package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestScheduleFireZeroAlloc asserts the schedule→fire hot path is
// allocation-free in steady state (slots and heap capacity recycled).
func TestScheduleFireZeroAlloc(t *testing.T) {
	s := New(1)
	fn := func() {}
	// Warm the arena and heap capacity.
	for i := 0; i < 64; i++ {
		s.Schedule(Duration(i)*Nanosecond, fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(Nanosecond, fn)
		s.RunFor(2 * Nanosecond)
	})
	if allocs != 0 {
		t.Fatalf("schedule+fire allocated %.1f per op, want 0", allocs)
	}
}

// TestScheduleCancelZeroAlloc asserts eager cancellation recycles the slot
// without allocating.
func TestScheduleCancelZeroAlloc(t *testing.T) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.Schedule(Duration(i)*Nanosecond, fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		ev := s.Schedule(Microsecond, fn)
		ev.Cancel()
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel allocated %.1f per op, want 0", allocs)
	}
	if s.Pending() != 0 {
		t.Fatalf("cancelled events left %d pending", s.Pending())
	}
}

// TestTickerReArmZeroAlloc asserts a ticker re-arms without allocating a
// fresh closure per tick.
func TestTickerReArmZeroAlloc(t *testing.T) {
	s := New(1)
	ticks := 0
	tk := s.Every(Microsecond, func() { ticks++ })
	s.RunFor(10 * Microsecond) // warm-up: arena, heap, closure all built
	allocs := testing.AllocsPerRun(100, func() {
		s.RunFor(10 * Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("ticker re-arm allocated %.1f per 10 ticks, want 0", allocs)
	}
	if ticks < 1000 {
		t.Fatalf("ticker only fired %d times", ticks)
	}
	tk.Stop()
}

// TestPendingCountsLiveEvents verifies Pending excludes cancelled events
// (the old implementation counted corpses until they were popped).
func TestPendingCountsLiveEvents(t *testing.T) {
	s := New(1)
	fn := func() {}
	a := s.Schedule(10*Nanosecond, fn)
	s.Schedule(20*Nanosecond, fn)
	s.Schedule(30*Nanosecond, fn)
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	a.Cancel()
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending after cancel = %d, want 2", got)
	}
	if !a.Cancelled() {
		t.Fatal("Cancelled() should report true")
	}
	a.Cancel() // double-cancel is a no-op
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending after double cancel = %d, want 2", got)
	}
}

// TestCancelledEventsDoNotGrowQueue verifies a schedule/cancel churn leaves
// no residue in the queue (the unbounded-growth bug this PR fixes).
func TestCancelledEventsDoNotGrowQueue(t *testing.T) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 100_000; i++ {
		ev := s.Schedule(Duration(i+1)*Microsecond, fn)
		ev.Cancel()
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending = %d after cancel churn, want 0", got)
	}
	if len(s.heap) != 0 {
		t.Fatalf("heap holds %d entries after cancel churn, want 0", len(s.heap))
	}
	if len(s.slots) > 4 {
		t.Fatalf("arena grew to %d slots under schedule/cancel churn", len(s.slots))
	}
}

// TestStaleHandleAfterRecycle verifies that cancelling a fired event whose
// slot was recycled by a newer event does not disturb the newer event.
func TestStaleHandleAfterRecycle(t *testing.T) {
	s := New(1)
	firstFired, secondFired := false, false
	ev1 := s.Schedule(10*Nanosecond, func() { firstFired = true })
	s.RunFor(15 * Nanosecond) // ev1 fires; its slot returns to the free list
	ev2 := s.Schedule(10*Nanosecond, func() { secondFired = true })
	ev1.Cancel() // stale handle: same slot, older generation
	s.Run()
	if !firstFired || !secondFired {
		t.Fatalf("fired = (%v, %v), want both", firstFired, secondFired)
	}
	if !ev1.Cancelled() {
		t.Fatal("stale handle should still report Cancelled")
	}
	_ = ev2
}

// refSim is a brute-force reference scheduler: events kept in a plain
// slice, the next one found by linear minimum over (time, seq). It encodes
// the semantics the arena heap must preserve.
type refSim struct {
	now Time
	seq uint64
	q   []*refEvent
}

type refEvent struct {
	at        Time
	seq       uint64
	id        int
	cancelled bool
}

func (r *refSim) schedule(delay Duration, id int) *refEvent {
	if delay < 0 {
		delay = 0
	}
	r.seq++
	e := &refEvent{at: r.now + delay, seq: r.seq, id: id}
	r.q = append(r.q, e)
	return e
}

func (r *refSim) runUntil(t Time, fired *[]int) {
	for {
		best := -1
		for i, e := range r.q {
			if e.cancelled || e.at > t {
				continue
			}
			if best < 0 || e.at < r.q[best].at ||
				(e.at == r.q[best].at && e.seq < r.q[best].seq) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		e := r.q[best]
		r.q = append(r.q[:best], r.q[best+1:]...)
		r.now = e.at
		*fired = append(*fired, e.id)
	}
	if t > r.now {
		r.now = t
	}
	// Drop cancelled corpses so pending counts compare.
	live := r.q[:0]
	for _, e := range r.q {
		if !e.cancelled {
			live = append(live, e)
		}
	}
	r.q = live
}

// TestArenaMatchesReferenceScheduler drives the arena simulator and the
// reference scheduler with an identical randomized schedule/cancel/run
// workload and requires the same firing order at every step.
func TestArenaMatchesReferenceScheduler(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := New(7)
	ref := &refSim{}

	var gotOrder, wantOrder []int
	var handles []Event
	var refHandles []*refEvent
	nextID := 0

	for round := 0; round < 300; round++ {
		// Schedule a burst, including duplicate timestamps to exercise FIFO.
		for n := rng.Intn(8); n > 0; n-- {
			id := nextID
			nextID++
			delay := Duration(rng.Intn(50)-5) * Nanosecond // negatives clamp
			handles = append(handles, s.Schedule(delay, func() {
				gotOrder = append(gotOrder, id)
			}))
			refHandles = append(refHandles, ref.schedule(delay, id))
		}
		// Cancel a few arbitrary outstanding (or already-fired) handles.
		for n := rng.Intn(3); n > 0 && len(handles) > 0; n-- {
			i := rng.Intn(len(handles))
			handles[i].Cancel()
			refHandles[i].cancelled = true
		}
		window := Duration(rng.Intn(40)) * Nanosecond
		s.RunFor(window)
		ref.runUntil(ref.now+window, &wantOrder)

		if s.Now() != ref.now {
			t.Fatalf("round %d: clock %v, reference %v", round, s.Now(), ref.now)
		}
		if s.Pending() != len(ref.q) {
			t.Fatalf("round %d: pending %d, reference %d", round, s.Pending(), len(ref.q))
		}
	}
	s.Run()
	ref.runUntil(maxTime, &wantOrder)

	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("fired %d events, reference fired %d", len(gotOrder), len(wantOrder))
	}
	for i := range gotOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("firing order diverges at %d: got id %d, want id %d", i, gotOrder[i], wantOrder[i])
		}
	}
}

// TestResetMatchesNew drives a simulator through fired, pending and
// cancelled events and RNG draws, resets it, and requires New(seed)'s
// behaviour from it: clock, counters and queue at zero, the RNG unseeded
// until its first draw and then New(seed)'s stream, the same event order,
// and every handle from before the reset inert, even where the reset
// simulator hands its slot to a new event.
func TestResetMatchesNew(t *testing.T) {
	s := New(1)
	var stale []Event
	for i := 0; i < 8; i++ {
		stale = append(stale, s.Schedule(Duration(i+1)*Microsecond, func() {}))
	}
	s.RunFor(3 * Microsecond)
	stale[5].Cancel()
	_ = s.Rand().Int63()
	s.Reset(42)
	if s.Now() != 0 || s.Fired() != 0 || s.Pending() != 0 || s.seq != 0 {
		t.Fatalf("reset left now %v fired %d pending %d seq %d", s.Now(), s.Fired(), s.Pending(), s.seq)
	}
	if s.rng != nil {
		t.Fatal("reset left the RNG seeded")
	}
	fresh := New(42)
	var logs [2][]int
	for side, sim := range []*Simulator{s, fresh} {
		for k := 0; k < 8; k++ {
			sim.Schedule(Duration(3-k%3)*Microsecond, func() { logs[side] = append(logs[side], k) })
		}
	}
	for _, e := range stale {
		e.Cancel()
	}
	s.Run()
	fresh.Run()
	if fmt.Sprint(logs[0]) != fmt.Sprint(logs[1]) {
		t.Fatalf("reset simulator fired %v, a new one %v", logs[0], logs[1])
	}
	if s.Now() != fresh.Now() || s.Fired() != fresh.Fired() || s.seq != fresh.seq {
		t.Fatalf("reset: now %v fired %d seq %d; new: now %v fired %d seq %d",
			s.Now(), s.Fired(), s.seq, fresh.Now(), fresh.Fired(), fresh.seq)
	}
	for i := 0; i < 4; i++ {
		if a, b := s.Rand().Int63(), fresh.Rand().Int63(); a != b {
			t.Fatalf("draw %d: reset simulator %d, new one %d", i, a, b)
		}
	}
	if a := testing.AllocsPerRun(100, func() { s.Reset(7) }); a != 0 {
		t.Fatalf("Reset allocated %.1f objects, want 0", a)
	}
}
