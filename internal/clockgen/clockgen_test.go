package clockgen

import (
	"math"
	"testing"

	"plugvolt/internal/sim"
)

func cfg() Config {
	return Config{BusMHz: 100, RelockTime: DefaultRelock, MinRatio: 8, MaxRatio: 36, InitialRatio: 32}
}

func newPLL(t *testing.T, s *sim.Simulator) *PLL {
	t.Helper()
	p, err := New(s, cfg())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	s := sim.New(1)
	bad := []Config{
		{BusMHz: 0, MinRatio: 8, MaxRatio: 36, InitialRatio: 8},
		{BusMHz: 100, MinRatio: 0, MaxRatio: 36, InitialRatio: 8},
		{BusMHz: 100, MinRatio: 20, MaxRatio: 10, InitialRatio: 20},
		{BusMHz: 100, MinRatio: 8, MaxRatio: 36, InitialRatio: 40},
		{BusMHz: 100, MinRatio: 8, MaxRatio: 36, InitialRatio: 4},
		{BusMHz: 100, MinRatio: 8, MaxRatio: 36, InitialRatio: 8, RelockTime: -1},
	}
	for i, c := range bad {
		if _, err := New(s, c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestInitialFrequency(t *testing.T) {
	s := sim.New(1)
	p := newPLL(t, s)
	if p.FreqKHz() != 3_200_000 {
		t.Fatalf("initial freq %d kHz", p.FreqKHz())
	}
	if p.FreqGHz() != 3.2 {
		t.Fatalf("initial freq %v GHz", p.FreqGHz())
	}
	if math.Abs(p.PeriodPS()-312.5) > 1e-9 {
		t.Fatalf("period %v ps", p.PeriodPS())
	}
	if !p.Locked() {
		t.Fatal("fresh PLL not locked")
	}
	if mn, mx := p.Range(); mn != 8 || mx != 36 {
		t.Fatalf("Range = %d, %d", mn, mx)
	}
}

func TestRelockDelay(t *testing.T) {
	s := sim.New(1)
	p := newPLL(t, s)
	if err := p.SetRatio(10); err != nil {
		t.Fatal(err)
	}
	if p.Ratio() != 32 {
		t.Fatalf("ratio changed before relock: %d", p.Ratio())
	}
	if p.Locked() {
		t.Fatal("reported locked during relock")
	}
	if p.PendingRatio() != 10 {
		t.Fatalf("pending = %d", p.PendingRatio())
	}
	s.RunUntil(DefaultRelock)
	if p.Ratio() != 10 || !p.Locked() {
		t.Fatalf("after relock: ratio=%d locked=%v", p.Ratio(), p.Locked())
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	s := sim.New(1)
	p := newPLL(t, s)
	if err := p.SetRatio(5); err == nil {
		t.Fatal("ratio below min accepted")
	}
	if err := p.SetRatio(40); err == nil {
		t.Fatal("ratio above max accepted")
	}
	if p.Commands != 0 {
		t.Fatalf("rejected commands counted: %d", p.Commands)
	}
}

func TestBackToBackCommands(t *testing.T) {
	s := sim.New(1)
	p := newPLL(t, s)
	if err := p.SetRatio(10); err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * sim.Microsecond) // mid-relock
	if err := p.SetRatio(20); err != nil {
		t.Fatal(err)
	}
	// First command pre-empted before taking effect: the frozen current
	// ratio is still 32 until the second relock completes.
	if p.Ratio() != 32 {
		t.Fatalf("mid pre-empt ratio=%d", p.Ratio())
	}
	s.RunFor(DefaultRelock)
	if p.Ratio() != 20 {
		t.Fatalf("final ratio=%d want 20", p.Ratio())
	}
	if p.Commands != 2 {
		t.Fatalf("Commands=%d", p.Commands)
	}
}

// TestResetMatchesNew resets a PLL mid-relock, after several commands, and
// requires New's state: locked at the initial ratio, no relock in flight,
// no commands counted.
func TestResetMatchesNew(t *testing.T) {
	s := sim.New(1)
	p := newPLL(t, s)
	for _, r := range []uint8{20, 36, 12} {
		if err := p.SetRatio(r); err != nil {
			t.Fatal(err)
		}
		s.RunFor(DefaultRelock / 3)
	}
	p.Reset()
	fresh := newPLL(t, s)
	if *p != *fresh {
		t.Fatalf("reset PLL %+v, new one %+v", *p, *fresh)
	}
}
