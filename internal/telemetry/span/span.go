// Package span is the causal tracing layer of the telemetry subsystem: a
// deterministic, virtual-clock span tracer whose output is part of the
// repository's golden-artifact contract.
//
// A span is a named interval on a track (a logical timeline such as "guard",
// "kernel/plugvolt_guard", "msr/core1" or "attack") with a parent link that
// records causality: the guard's corrective mailbox write is a child of the
// intervention that decided it, which is a child of the poll that detected
// the unsafe operating point, which is a child of the kthread tick that ran
// the poll. That chain is exactly the temporal safety argument of the paper's
// countermeasure — the window between an unsafe `wrmsr 0x150` and the guard's
// rewrite — made machine-checkable (see internal/slo).
//
// Determinism rules, mirroring the rest of internal/telemetry:
//
//   - Timestamps come from an injected func() sim.Time; wall clocks never
//     appear. Span durations are either virtual-clock deltas (End) or
//     explicit CPU-cost charges (EndWithCost) — the latter because kthread
//     work charges stolen time without advancing the sim clock.
//   - Span IDs are derived from (seed, track, per-track sequence) via FNV-64a,
//     never from pointers, goroutine identity or randomness, so two
//     identically-seeded runs mint identical IDs.
//   - Exporters (see export.go) sort spans by (start, track, sequence) before
//     rendering, so export bytes are independent of emission interleaving —
//     in particular of the characterizer's worker count, provided emitters
//     use per-row tracks.
//   - The buffer keeps the first cap spans and never shrinks, so once it is
//     full every later span is dropped. A scope started on a full tracer is
//     drop-only: it advances its track's sequence but mints no ID and skips
//     the lock and the scope stack. Start, Complete and Instant always mint,
//     so every ID they return, and every recorded byte, equals what an
//     unbounded tracer produces up to the cap; only Scope.ID of a drop-only
//     scope reads zero. Incident bundles, which carry mailbox-write Instant
//     IDs, therefore do not depend on the cap.
//
// All methods are nil-receiver safe: instrumented code holds a possibly-nil
// *Tracer and calls it unconditionally.
package span

import (
	"sort"
	"sync"
	"sync/atomic"

	"plugvolt/internal/sim"
)

// Clock produces the current virtual time. (*sim.Simulator).Now fits.
type Clock func() sim.Time

// ID identifies a span. The zero ID means "no span" (used for absent
// parents).
type ID uint64

// Span is one completed interval. Spans are immutable once recorded.
type Span struct {
	ID     ID
	Parent ID // zero when the span has no recorded parent
	Track  string
	Name   string
	Start  sim.Time
	Dur    sim.Duration
	// Attrs carries span metadata (core index, offset mV, outcome, ...).
	// Values should be JSON-friendly scalars.
	Attrs map[string]any
	// Seq is the span's per-track sequence number; together with Track it
	// totally orders spans minted on the same track and seeds the ID.
	Seq uint64
}

// DefaultCap bounds a tracer when the constructor gets cap <= 0. Spans past
// the cap are counted as dropped rather than evicting history, matching the
// journal's drop-newest policy: the opening of an experiment is usually the
// part worth keeping.
const DefaultCap = 1 << 16

// Tracer records spans. Construct with NewTracer; a nil *Tracer is a valid
// no-op sink.
type Tracer struct {
	mu    sync.Mutex
	clock Clock
	seed  int64
	cap   int
	spans []Span
	// full is set once spans holds cap entries. The buffer never shrinks,
	// so it is never cleared, and every span that ends afterwards is
	// dropped: scopes started on a full tracer skip the lock, the ID hash
	// and the scope stack (see dropping).
	full    atomic.Bool
	dropped atomic.Uint64
	// seqs holds each track's next sequence number, boxed so that hot, the
	// two most recently used tracks, can advance theirs without hashing the
	// track name: the guard's steady-state poll alternates between two.
	seqs map[string]*uint64
	hot  [2]trackSeq
	// stack is the scope stack of currently-open span IDs; the top is the
	// parent of the next span started. The simulation core is single-threaded,
	// which makes a single stack a sound causality model; the mutex keeps the
	// race detector happy for concurrent readers (the obs server), which
	// never read seqs or stack.
	stack []ID
}

// NewTracer builds a tracer stamped by clock, minting IDs from seed, bounded
// at cap spans (cap <= 0 selects DefaultCap). A nil clock stamps spans at
// time zero.
func NewTracer(clock Clock, seed int64, cap int) *Tracer {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Tracer{clock: clock, seed: seed, cap: cap, seqs: map[string]*uint64{}}
}

// now reads the tracer clock.
func (t *Tracer) now() sim.Time {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}

// FNV-64a parameters (matching hash/fnv); the hash is inlined here because
// fnv.New64a returns its state behind the hash.Hash64 interface, which heap-
// allocates on every mint — one allocation per span on the guard's poll path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvUint64 folds v's little-endian bytes into h — byte-identical to writing
// the 8 bytes through hash/fnv.
func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h ^= uint64(byte(v >> i))
		h *= fnvPrime64
	}
	return h
}

// mint allocates the next sequence number on track and derives the span ID
// from (seed, track, seq) via FNV-64a. Caller holds t.mu.
func (t *Tracer) mint(track string) (ID, uint64) {
	seq := t.nextSeq(track)
	h := fnvUint64(uint64(fnvOffset64), uint64(t.seed))
	for i := 0; i < len(track); i++ {
		h ^= uint64(track[i])
		h *= fnvPrime64
	}
	h = fnvUint64(h, seq)
	id := ID(h)
	if id == 0 { // reserve zero for "no span"
		id = 1
	}
	return id, seq
}

// trackSeq is one entry of the hot-track cache.
type trackSeq struct {
	track string
	next  *uint64
}

// nextSeq returns track's next sequence number and advances it. Only the
// writer calls it (see stack): mint under t.mu, the drop path without.
func (t *Tracer) nextSeq(track string) uint64 {
	var p *uint64
	switch {
	case t.hot[0].next != nil && t.hot[0].track == track:
		p = t.hot[0].next
	case t.hot[1].next != nil && t.hot[1].track == track:
		p = t.hot[1].next
	default:
		if p = t.seqs[track]; p == nil {
			p = new(uint64)
			t.seqs[track] = p
		}
		t.hot[1], t.hot[0] = t.hot[0], trackSeq{track: track, next: p}
	}
	seq := *p
	*p++
	return seq
}

// record appends a completed span, honoring the cap. Caller holds t.mu.
func (t *Tracer) record(s Span) {
	if len(t.spans) >= t.cap {
		t.dropped.Add(1)
		return
	}
	t.spans = append(t.spans, s)
	if len(t.spans) == t.cap {
		t.full.Store(true)
	}
}

// Active is a span under construction, returned by Start. A nil *Active
// (from a nil tracer) absorbs all calls.
type Active struct {
	t     *Tracer
	span  Span
	ended bool
}

// Start opens a span on track at the current virtual time, parented under
// the innermost span still open (the scope stack top). Close it with End or
// EndWithCost; until then it is the parent of any span started beneath it.
func (t *Tracer) Start(track, name string, attrs map[string]any) *Active {
	if t == nil {
		return nil
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id, seq := t.mint(track)
	var parent ID
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, id)
	return &Active{t: t, span: Span{
		ID: id, Parent: parent, Track: track, Name: name,
		Start: at, Attrs: attrs, Seq: seq,
	}}
}

// ID reports the active span's ID (zero on nil).
func (a *Active) ID() ID {
	if a == nil {
		return 0
	}
	return a.span.ID
}

// SetAttr attaches or overwrites one attribute before the span ends.
func (a *Active) SetAttr(key string, value any) {
	if a == nil || a.ended {
		return
	}
	a.t.mu.Lock()
	defer a.t.mu.Unlock()
	if a.span.Attrs == nil {
		a.span.Attrs = map[string]any{}
	}
	a.span.Attrs[key] = value
}

// End closes the span with a virtual-clock duration (now - start) and pops
// it from the scope stack. Ending twice is a no-op.
func (a *Active) End() {
	if a == nil || a.ended {
		return
	}
	a.finish(a.t.now() - a.span.Start)
}

// EndWithCost closes the span with an explicit duration — the CPU cost the
// work charged — instead of a clock delta. This is how kthread-side spans
// (polls, rdmsr/wrmsr steps) get nonzero durations: kernel work charges
// stolen time against the core without advancing the virtual clock, so a
// clock delta would always read zero.
func (a *Active) EndWithCost(d sim.Duration) {
	if a == nil || a.ended {
		return
	}
	if d < 0 {
		d = 0
	}
	a.finish(d)
}

func (a *Active) finish(d sim.Duration) {
	a.ended = true
	a.span.Dur = d
	t := a.t
	t.mu.Lock()
	defer t.mu.Unlock()
	// Pop this span from the scope stack. Out-of-order ends (a parent ended
	// before a still-open child) are tolerated by unwinding to the span.
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == a.span.ID {
			t.stack = t.stack[:i]
			break
		}
	}
	t.record(a.span)
}

// Scope is a by-value active span for allocation-free hot paths. Unlike
// Start, StartScope never heap-allocates: the Scope lives in the caller's
// frame. The trade-off is the contract on attrs — the map is retained by
// reference until the span is recorded at End/EndWithCost, so zero-alloc
// callers pass a preallocated map they never mutate afterwards (e.g. the
// guard's per-core poll attributes). There is no SetAttr; a scope's
// attributes are fixed at start. The zero Scope (and any Scope from a nil
// tracer) absorbs all calls.
type Scope struct {
	t     *Tracer
	span  Span
	ended bool
	// drop marks a scope started on a full tracer: it holds no span, and
	// ending it only counts the drop.
	drop bool
}

// StartScope opens a span exactly like Start — minted ID, parented under the
// scope-stack top, recorded when ended — but returns the active span by
// value. See Scope for the attrs aliasing contract. On a full tracer, whose
// span would be dropped at its end whatever happened in between, it returns
// a drop-only scope instead: the track's sequence still advances, so later
// IDs on the track are the ones an unbounded run mints, but the scope gets
// no ID, takes no lock and never touches the scope stack.
func (t *Tracer) StartScope(track, name string, attrs map[string]any) Scope {
	if t.dropping(track) {
		return Scope{t: t, drop: true}
	}
	return t.startScope(track, name, attrs, false)
}

// StartRootScope opens a span like StartScope but with no parent,
// regardless of the scope stack. Periodic work that interrupts whatever the
// simulator happens to be running — a kthread tick firing inside an attack
// campaign's RunFor — uses it so preemption is not mistaken for causality,
// and by value so steady-state tracing never heap-allocates. Spans started
// beneath it still parent under it normally.
func (t *Tracer) StartRootScope(track, name string, attrs map[string]any) Scope {
	if t.dropping(track) {
		return Scope{t: t, drop: true}
	}
	return t.startScope(track, name, attrs, true)
}

// dropping reports whether a scope started on track now would be dropped,
// and if so advances the track's sequence as minting would. Writers are
// single-threaded (see Tracer.stack) and readers never touch seqs, so this
// takes no lock.
func (t *Tracer) dropping(track string) bool {
	if t == nil || !t.full.Load() {
		return false
	}
	t.nextSeq(track)
	return true
}

func (t *Tracer) startScope(track, name string, attrs map[string]any, root bool) Scope {
	if t == nil {
		return Scope{}
	}
	at := t.now()
	t.mu.Lock()
	id, seq := t.mint(track)
	var parent ID
	if !root {
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1]
		}
	}
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return Scope{t: t, span: Span{
		ID: id, Parent: parent, Track: track, Name: name,
		Start: at, Attrs: attrs, Seq: seq,
	}}
}

// ID reports the scope's span ID (zero on the zero Scope and on a drop-only
// scope from a full tracer).
func (s *Scope) ID() ID { return s.span.ID }

// End closes the scope with a virtual-clock duration, like (*Active).End.
func (s *Scope) End() {
	if s.t == nil || s.ended {
		return
	}
	s.finish(s.t.now() - s.span.Start)
}

// EndWithCost closes the scope with an explicit CPU-cost duration, like
// (*Active).EndWithCost. Ending twice is a no-op.
func (s *Scope) EndWithCost(d sim.Duration) {
	if s.t == nil || s.ended {
		return
	}
	if d < 0 {
		d = 0
	}
	s.finish(d)
}

func (s *Scope) finish(d sim.Duration) {
	s.ended = true
	if s.drop {
		s.t.dropped.Add(1)
		return
	}
	s.span.Dur = d
	t := s.t
	t.mu.Lock()
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s.span.ID {
			t.stack = t.stack[:i]
			break
		}
	}
	t.record(s.span)
	t.mu.Unlock()
}

// Complete records an already-finished span in one call, parented under the
// current scope top. Use it for instantaneous or externally-timed work (an
// MSR write, a characterization row measured on its own private clock).
// It returns the minted ID so callers can reference the span.
func (t *Tracer) Complete(track, name string, start sim.Time, dur sim.Duration, attrs map[string]any) ID {
	if t == nil {
		return 0
	}
	if dur < 0 {
		dur = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, seq := t.mint(track)
	var parent ID
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.record(Span{ID: id, Parent: parent, Track: track, Name: name,
		Start: start, Dur: dur, Attrs: attrs, Seq: seq})
	return id
}

// Instant records a zero-duration span at the current virtual time.
func (t *Tracer) Instant(track, name string, attrs map[string]any) ID {
	if t == nil {
		return 0
	}
	return t.Complete(track, name, t.now(), 0, attrs)
}

// Spans returns a copy of the recorded spans in emission order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Len reports the number of retained spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped reports spans rejected after the cap was reached.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// sorted returns the spans ordered by (Start, Track, Seq) — the canonical
// export order, total because Seq is unique per track.
func sorted(spans []Span) []Span {
	out := append([]Span(nil), spans...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		return a.Seq < b.Seq
	})
	return out
}
