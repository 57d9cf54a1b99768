package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(30*Nanosecond, func() { order = append(order, 3) })
	s.Schedule(10*Nanosecond, func() { order = append(order, 1) })
	s.Schedule(20*Nanosecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if s.Now() != 30*Nanosecond {
		t.Fatalf("clock = %v, want 30ns", s.Now())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5*Microsecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if i != v {
			t.Fatalf("same-timestamp events not FIFO: %v", order)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	s := New(1)
	fired := false
	s.Schedule(-5*Nanosecond, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved to %v on clamped event", s.Now())
	}
}

func TestAtInThePastClamps(t *testing.T) {
	s := New(1)
	s.Schedule(100*Nanosecond, func() {
		s.At(10*Nanosecond, func() {
			if s.Now() != 100*Nanosecond {
				t.Fatalf("past event fired at %v", s.Now())
			}
		})
	})
	s.Run()
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	ev := s.Schedule(10*Nanosecond, func() { fired = true })
	ev.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	s := New(1)
	fired := false
	late := s.Schedule(20*Nanosecond, func() { fired = true })
	s.Schedule(10*Nanosecond, func() { late.Cancel() })
	s.Run()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	s.Schedule(1*Millisecond, func() {})
	s.RunUntil(500 * Microsecond)
	if s.Now() != 500*Microsecond {
		t.Fatalf("RunUntil left clock at %v", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("future event lost: pending=%d", s.Pending())
	}
	s.RunUntil(2 * Millisecond)
	if s.Fired() != 1 {
		t.Fatalf("fired=%d, want 1", s.Fired())
	}
}

func TestRunForRelative(t *testing.T) {
	s := New(1)
	s.RunFor(3 * Second)
	if s.Now() != 3*Second {
		t.Fatalf("RunFor: clock=%v", s.Now())
	}
	s.RunFor(2 * Second)
	if s.Now() != 5*Second {
		t.Fatalf("RunFor twice: clock=%v", s.Now())
	}
}

func TestTickerPeriodic(t *testing.T) {
	s := New(1)
	var at []Time
	tk := s.Every(1*Millisecond, func() { at = append(at, s.Now()) })
	s.RunUntil(5500 * Microsecond)
	tk.Stop()
	s.RunUntil(10 * Millisecond)
	if len(at) != 5 {
		t.Fatalf("ticks=%d, want 5 (times %v)", len(at), at)
	}
	for i, ti := range at {
		want := Time(i+1) * Millisecond
		if ti != want {
			t.Fatalf("tick %d at %v, want %v", i, ti, want)
		}
	}
	if tk.Fires != 5 {
		t.Fatalf("Fires=%d, want 5", tk.Fires)
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := New(1)
	n := 0
	var tk *Ticker
	tk = s.Every(1*Microsecond, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	s.Run()
	if n != 3 {
		t.Fatalf("ticker ran %d times after Stop inside callback", n)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	New(1).Every(0, func() {})
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(seed)
		var draws []int64
		for i := 0; i < 50; i++ {
			d := Duration(1+i%7) * Microsecond
			s.Schedule(d*Duration(i+1), func() { draws = append(draws, s.Rand().Int63()) })
		}
		s.Run()
		return draws
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at draw %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical draw sequences")
	}
}

// Property: for any batch of delays, events fire in nondecreasing time order
// and the final clock equals the max delay.
func TestQuickEventOrderInvariant(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		s := New(7)
		var fireTimes []Time
		var max Time
		for _, r := range raw {
			d := Duration(r % 1_000_000_000) // up to 1ms
			if d > max {
				max = d
			}
			s.Schedule(d, func() { fireTimes = append(fireTimes, s.Now()) })
		}
		s.Run()
		if !sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] }) {
			return false
		}
		return s.Now() == max && len(fireTimes) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{3 * Nanosecond, "3ns"},
		{250 * Microsecond, "250us"},
		{7 * Millisecond, "7ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d ps -> %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestSeconds(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds=%v", got)
	}
}
