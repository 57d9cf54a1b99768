// Package sim provides a deterministic discrete-event simulator used as the
// time base for the simulated Intel DVFS platform.
//
// All hardware substrates (voltage regulator slew, PLL relock, kernel-module
// polling, victim execution) schedule work on a single virtual clock with
// picosecond resolution. Determinism is a hard requirement: every experiment
// in the reproduction must be replayable bit-for-bit from a seed, so the
// simulator owns a seeded random source and events at equal timestamps fire
// in scheduling order.
//
// The event queue is a hand-rolled binary min-heap over an index-stable
// event arena: scheduling recycles slots through a free list instead of
// allocating an Event per call, heap entries are small value structs (no
// interface boxing), and cancellation removes the entry eagerly via the
// tracked heap index. The steady-state schedule/fire/cancel path performs no
// heap allocation, which matters because the characterization sweeps push
// hundreds of millions of events.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, measured in picoseconds since simulation
// start. int64 picoseconds cover ~106 days of virtual time, far beyond any
// experiment in this repository.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration = Time

// Common duration units.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String renders a Time using the largest natural unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.6gns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Event is a handle to a scheduled callback, returned by the scheduling
// methods so callers can cancel pending work (e.g. a kernel module being
// unloaded mid poll interval). It is a value handle into the simulator's
// event arena: copying it is cheap and scheduling allocates nothing. The
// generation counter makes stale handles harmless — cancelling an event that
// has already fired, been cancelled, or whose slot was recycled is a no-op
// on the simulator. The zero Event is valid and inert.
type Event struct {
	s    *Simulator
	slot int32
	gen  uint32
	// done records that Cancel was called through this handle, so a second
	// Cancel is a no-op even after the slot is recycled.
	done bool
}

// Cancel prevents a pending event from firing, removing it from the queue
// immediately. Cancelling an event that has already fired or been cancelled
// is a no-op.
func (e *Event) Cancel() {
	if e.done {
		return
	}
	e.done = true
	if e.s != nil {
		e.s.cancel(e.slot, e.gen)
	}
}

// eventSlot is one arena cell. Live slots hold the callback and track their
// heap position; free slots chain through next.
type eventSlot struct {
	fn   func()
	at   Time
	gen  uint32
	heap int32 // index into Simulator.heap, -1 when not queued
	next int32 // free-list link, meaningful only while free
}

// heapEnt is one packed entry of the min-heap. Ordering is (at, seq): seq is
// a global schedule counter, so events at equal timestamps fire in
// scheduling order — the FIFO property determinism depends on.
type heapEnt struct {
	at   Time
	seq  uint64
	slot int32
}

func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Simulator is a single-threaded discrete-event simulation kernel.
// The zero value is not usable; construct with New.
type Simulator struct {
	now      Time
	heap     []heapEnt
	slots    []eventSlot
	freeHead int32 // top of the free-slot stack, -1 when empty
	seq      uint64
	src      *Source    // nil until the first draw
	rng      *rand.Rand // rand.New(src), built with it
	seed     int64
	fired    uint64
}

// New returns a simulator whose random source is seeded with seed.
// Two simulators built with the same seed and driven by the same schedule of
// calls produce identical event orders and identical random draws.
//
// Seeding the source costs microseconds and kilobytes, and many simulators
// (the sharded characterizer's row platforms) never draw at all, so the
// source is only seeded on the first Rand or Source call. Event processing
// never touches it, so the stream is the same whenever that first call
// happens.
func New(seed int64) *Simulator {
	s := &Simulator{}
	s.Reset(seed)
	return s
}

// Reset returns the simulator to New(seed)'s state in place: the clock at
// zero, no pending events, the schedule and fired counters at zero and the
// random source dropped, to be seeded with seed on its first draw. The
// event arena keeps its capacity, so a warm simulator resets without
// allocating. Every slot's generation advances, so each handle issued before
// the reset is stale and cancelling it is a no-op; slots are handed out
// again in New's order, lowest index first.
func (s *Simulator) Reset(seed int64) {
	s.now, s.seq, s.fired = 0, 0, 0
	s.seed, s.src, s.rng = seed, nil, nil
	s.heap = s.heap[:0]
	s.freeHead = -1
	for i := len(s.slots) - 1; i >= 0; i-- {
		s.freeSlot(int32(i))
	}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand exposes the simulator's deterministic random source. All stochastic
// models (clock jitter, fault coin flips) must draw from this source and
// never from the global rand, otherwise replays diverge. The stream is
// exactly rand.New(rand.NewSource(seed))'s.
func (s *Simulator) Rand() *rand.Rand {
	if s.rng == nil {
		s.seedRand()
	}
	return s.rng
}

// Source returns the concrete source under Rand: a draw from either one
// advances the one stream that both read.
func (s *Simulator) Source() *Source {
	if s.src == nil {
		s.seedRand()
	}
	return s.src
}

// seedRand is kept out of line so Rand and Source, called per simulated
// instruction run, stay inlinable.
//
//go:noinline
func (s *Simulator) seedRand() {
	s.src = new(Source)
	s.src.Seed(s.seed)
	s.rng = rand.New(s.src)
}

// Fired returns the number of events executed so far; useful for tests and
// for asserting progress bounds.
func (s *Simulator) Fired() uint64 { return s.fired }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero (fires at the current instant, after already-queued events at the
// same timestamp).
func (s *Simulator) Schedule(delay Duration, fn func()) Event {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now+delay, fn)
}

// At runs fn at absolute virtual time t. Scheduling in the past is an error
// in the caller; we clamp to now to keep the clock monotone, which is the
// least surprising recovery.
func (s *Simulator) At(t Time, fn func()) Event {
	if t < s.now {
		t = s.now
	}
	s.seq++
	i := s.allocSlot()
	sl := &s.slots[i]
	sl.fn = fn
	sl.at = t
	s.heapPush(heapEnt{at: t, seq: s.seq, slot: i})
	return Event{s: s, slot: i, gen: sl.gen}
}

// allocSlot pops a recycled slot from the free list or grows the arena.
func (s *Simulator) allocSlot() int32 {
	if s.freeHead >= 0 {
		i := s.freeHead
		s.freeHead = s.slots[i].next
		return i
	}
	s.slots = append(s.slots, eventSlot{heap: -1})
	return int32(len(s.slots) - 1)
}

// freeSlot returns a slot to the free list. Bumping the generation
// invalidates every outstanding handle; clearing fn releases the callback's
// closure to the garbage collector.
func (s *Simulator) freeSlot(i int32) {
	sl := &s.slots[i]
	sl.fn = nil
	sl.gen++
	sl.heap = -1
	sl.next = s.freeHead
	s.freeHead = i
}

// cancel removes the event in slot i from the queue if the handle's
// generation still matches (i.e. the event has not fired or been recycled).
func (s *Simulator) cancel(i int32, gen uint32) {
	if i < 0 || int(i) >= len(s.slots) {
		return
	}
	sl := &s.slots[i]
	if sl.gen != gen || sl.heap < 0 {
		return
	}
	s.heapRemove(sl.heap)
	s.freeSlot(i)
}

// step executes the earliest pending event. It returns false when the queue
// is empty or the next event lies beyond limit.
func (s *Simulator) step(limit Time) bool {
	if len(s.heap) == 0 {
		return false
	}
	top := s.heap[0]
	if top.at > limit {
		return false
	}
	fn := s.slots[top.slot].fn
	s.heapPopRoot()
	s.freeSlot(top.slot)
	s.now = top.at
	s.fired++
	fn()
	return true
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled beyond t remain queued.
func (s *Simulator) RunUntil(t Time) {
	for s.step(t) {
	}
	if t > s.now {
		s.now = t
	}
}

// RunFor is RunUntil relative to the current time.
func (s *Simulator) RunFor(d Duration) { s.RunUntil(s.now + d) }

// heapPush appends e and restores the heap property, maintaining each live
// slot's back-pointer into the heap.
func (s *Simulator) heapPush(e heapEnt) {
	s.heap = append(s.heap, e)
	s.siftUp(len(s.heap) - 1)
}

// heapPopRoot removes the minimum entry.
func (s *Simulator) heapPopRoot() {
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	if n > 0 {
		s.siftDown(0)
	}
}

// heapRemove deletes the entry at heap index i (eager cancellation).
func (s *Simulator) heapRemove(i int32) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if int(i) == n {
		return
	}
	s.heap[i] = last
	if !s.siftDown(int(i)) {
		s.siftUp(int(i))
	}
}

func (s *Simulator) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !entLess(e, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.slots[s.heap[i].slot].heap = int32(i)
		i = p
	}
	s.heap[i] = e
	s.slots[e.slot].heap = int32(i)
}

// siftDown restores the heap property below i and reports whether the entry
// moved (heapRemove uses this to decide if a sift-up is still needed).
func (s *Simulator) siftDown(i int) bool {
	e := s.heap[i]
	n := len(s.heap)
	moved := false
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && entLess(s.heap[r], s.heap[l]) {
			c = r
		}
		if !entLess(s.heap[c], e) {
			break
		}
		s.heap[i] = s.heap[c]
		s.slots[s.heap[i].slot].heap = int32(i)
		i = c
		moved = true
	}
	s.heap[i] = e
	s.slots[e.slot].heap = int32(i)
	return moved
}

// Ticker invokes fn every period until cancelled. The first invocation is
// one full period after the call. Cancel the returned Ticker to stop.
type Ticker struct {
	sim     *Simulator
	period  Duration
	fn      func()
	tick    func() // single re-armed closure, built once in Every
	ev      Event
	stopped bool
	Fires   uint64 // number of completed invocations
}

// Every creates and starts a Ticker. Period must be positive.
func (s *Simulator) Every(period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.tick = func() {
		if t.stopped {
			return
		}
		t.Fires++
		t.fn()
		if !t.stopped {
			t.ev = t.sim.Schedule(t.period, t.tick)
		}
	}
	t.ev = s.Schedule(period, t.tick)
	return t
}

// Stop cancels future ticks. Safe to call multiple times and from within the
// tick callback itself.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}
