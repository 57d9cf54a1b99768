package span

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"strings"
	"testing"

	"plugvolt/internal/sim"
)

// kept returns a tracer that stores spans, as NewTracer followed by Keep.
func kept(clock Clock, seed int64, cap int) *Tracer {
	tr := NewTracer(clock, seed, cap)
	tr.Keep()
	return tr
}

// fakeClock is a manually-advanced virtual clock for pure unit tests.
type fakeClock struct{ now sim.Time }

func (c *fakeClock) clock() sim.Time { return c.now }

// emitSample records a small causal tree:
//
//	tick ─ poll ─ rdmsr
//	            └ intervention ─ write
func emitSample(tr *Tracer, c *fakeClock) {
	tick := tr.Start("kernel/guard", "kthread_tick", map[string]any{"core": 0})
	poll := tr.Start("guard", "guard_poll", map[string]any{"core": 1})
	tr.Complete("kernel/guard", "rdmsr", c.now, 120*sim.Nanosecond, map[string]any{"addr": "0x198"})
	iv := tr.Start("guard", "guard_intervention", map[string]any{"core": 1, "offset_mv": -230})
	tr.Instant("msr/core1", "mailbox_write", map[string]any{"offset_mv": 0, "outcome": "accepted"})
	iv.EndWithCost(400 * sim.Nanosecond)
	poll.EndWithCost(900 * sim.Nanosecond)
	c.now += 100 * sim.Microsecond
	tick.End()
}

func TestDeterministicIDsAndParents(t *testing.T) {
	build := func() *Tracer {
		c := &fakeClock{}
		tr := kept(c.clock, 42, 0)
		emitSample(tr, c)
		return tr
	}
	a, b := build().Spans(), build().Spans()
	if len(a) != len(b) || len(a) != 5 {
		t.Fatalf("span counts: %d vs %d (want 5)", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Parent != b[i].Parent {
			t.Errorf("span %d: ids differ across identical runs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].ID == 0 {
			t.Errorf("span %d: zero ID", i)
		}
	}
	// Causality: the mailbox write's parent is the intervention, whose
	// parent is the poll, whose parent is the tick.
	byName := map[string]Span{}
	for _, s := range a {
		byName[s.Name] = s
	}
	if byName["mailbox_write"].Parent != byName["guard_intervention"].ID {
		t.Errorf("mailbox_write parent = %x, want intervention %x",
			byName["mailbox_write"].Parent, byName["guard_intervention"].ID)
	}
	if byName["guard_intervention"].Parent != byName["guard_poll"].ID {
		t.Errorf("intervention parent = %x, want poll %x",
			byName["guard_intervention"].Parent, byName["guard_poll"].ID)
	}
	if byName["guard_poll"].Parent != byName["kthread_tick"].ID {
		t.Errorf("poll parent = %x, want tick %x",
			byName["guard_poll"].Parent, byName["kthread_tick"].ID)
	}
	if byName["kthread_tick"].Parent != 0 {
		t.Errorf("tick should be a root span, got parent %x", byName["kthread_tick"].Parent)
	}
}

func TestSeedChangesIDs(t *testing.T) {
	a := NewTracer(nil, 1, 0)
	b := NewTracer(nil, 2, 0)
	ia := a.Complete("t", "x", 0, 0, nil)
	ib := b.Complete("t", "x", 0, 0, nil)
	if ia == ib {
		t.Fatalf("same ID %x from different seeds", ia)
	}
}

func TestChromeTraceByteIdentical(t *testing.T) {
	render := func() []byte {
		c := &fakeClock{}
		tr := kept(c.clock, 7, 0)
		emitSample(tr, c)
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("chrome trace differs across identical runs:\n%s\n----\n%s", a, b)
	}
	// The document must be valid JSON with the expected shape.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, a)
	}
	var xs, ms int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			xs++
		case "M":
			ms++
		}
	}
	if xs != 5 || ms == 0 || xs+ms != len(doc.TraceEvents) {
		t.Fatalf("event mix: %d X, %d M of %d (want 5 X, >0 M, nothing else)", xs, ms, len(doc.TraceEvents))
	}
}

func TestChromeTraceOrderIndependent(t *testing.T) {
	// Two emission interleavings of the same spans must render identically:
	// this is what makes the export worker-count invariant.
	mk := func(order []int) []byte {
		tr := kept(nil, 3, 0)
		for _, freq := range order {
			tr.Complete("characterize/"+strings.Repeat("0", 0)+itoa(freq), "row",
				0, sim.Duration(freq)*sim.Microsecond, map[string]any{"freq_khz": freq})
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := mk([]int{1200, 1800, 2400})
	b := mk([]int{2400, 1200, 1800})
	if !bytes.Equal(a, b) {
		t.Fatalf("export depends on emission order:\n%s\n----\n%s", a, b)
	}
}

func itoa(v int) string {
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestFolded(t *testing.T) {
	c := &fakeClock{}
	tr := kept(c.clock, 7, 0)
	emitSample(tr, c)
	var buf bytes.Buffer
	if err := tr.WriteFolded(&buf); err != nil {
		t.Fatalf("WriteFolded: %v", err)
	}
	out := buf.String()
	want := "kernel/guard;kthread_tick;guard_poll;guard_intervention;mailbox_write 0\n"
	if !strings.Contains(out, want) {
		t.Errorf("folded output missing path %q:\n%s", want, out)
	}
	// Lines must be sorted and values aggregated self-times.
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Errorf("folded lines not sorted: %q then %q", lines[i-1], lines[i])
		}
	}
	// The intervention's self time excludes the (zero-cost) write: 400ns.
	if !strings.Contains(out, "guard_intervention 400\n") {
		t.Errorf("intervention self-time missing:\n%s", out)
	}
}

func TestCapDropsNewest(t *testing.T) {
	tr := kept(nil, 1, 4)
	for i := 0; i < 10; i++ {
		tr.Complete("t", "s", sim.Time(i), 0, nil)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	// The retained spans are the oldest (drop-newest policy).
	for i, s := range tr.Spans() {
		if s.Start != sim.Time(i) {
			t.Fatalf("span %d start = %d, want %d", i, s.Start, i)
		}
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Keep()
	a := tr.Start("t", "s", nil)
	a.SetAttr("k", 1)
	a.End()
	a.EndWithCost(5)
	if id := tr.Complete("t", "s", 0, 0, nil); id != 0 {
		t.Fatalf("nil Complete returned %x", id)
	}
	if tr.Instant("t", "s", nil) != 0 || tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer not inert")
	}
	if tr.Spans() != nil {
		t.Fatal("nil tracer returned data")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	if err := tr.WriteFolded(&buf); err != nil {
		t.Fatalf("nil WriteFolded: %v", err)
	}
}

func TestTsMicros(t *testing.T) {
	cases := []struct {
		ps   int64
		want string
	}{
		{0, "0"},
		{1_000_000, "1"},
		{1_500_000, "1.5"},
		{123, "0.000123"},
		{2_000_010, "2.00001"},
		{537_000_000_000, "537000"},
	}
	for _, c := range cases {
		if got := tsMicros(c.ps); got != c.want {
			t.Errorf("tsMicros(%d) = %q, want %q", c.ps, got, c.want)
		}
	}
}

func TestEndTwiceAndScopeUnwind(t *testing.T) {
	c := &fakeClock{}
	tr := kept(c.clock, 9, 0)
	outer := tr.Start("t", "outer", nil)
	inner := tr.Start("t", "inner", nil)
	outer.End() // out of order: unwinds past inner
	outer.End() // double end: no-op
	inner.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// A span started now must not be parented under the ended pair.
	root := tr.Start("t", "late", nil)
	root.End()
	for _, s := range tr.Spans() {
		if s.Name == "late" && s.Parent != 0 {
			t.Fatalf("late span inherited stale parent %x", s.Parent)
		}
	}
}

// fnvID is the span ID of (seed, track, seq) computed through hash/fnv, the
// reference the inlined hash in mint must match.
func fnvID(seed int64, track string, seq uint64) ID {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(track))
	binary.LittleEndian.PutUint64(b[:], seq)
	h.Write(b[:])
	id := ID(h.Sum64())
	if id == 0 {
		id = 1
	}
	return id
}

// TestMintMatchesFNV pins the inlined FNV-64a in mint to the hash/fnv
// reference: span IDs are part of the golden-artifact contract, so the
// allocation-free rewrite must mint bit-identical IDs.
func TestMintMatchesFNV(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, 1 << 40, -(1 << 40)} {
		tr := NewTracer(nil, seed, 0)
		for _, track := range []string{"", "guard", "kernel/plug_your_volt/3", "msr/core1"} {
			for want := uint64(0); want < 5; want++ {
				tr.mu.Lock()
				id, seq := tr.mint(track)
				tr.mu.Unlock()
				if seq != want {
					t.Fatalf("seed %d track %q: seq = %d, want %d", seed, track, seq, want)
				}
				if exp := fnvID(seed, track, seq); id != exp {
					t.Fatalf("seed %d track %q seq %d: id = %x, want fnv %x", seed, track, seq, id, exp)
				}
			}
		}
	}
}

// TestScopeMirrorsActive runs the same emission program through the pointer
// (Start/Active) and value (StartScope/Scope) APIs: recorded spans must be
// identical — IDs, parents, order, durations — so instrumented code can move
// to the zero-alloc form without touching golden traces.
func TestScopeMirrorsActive(t *testing.T) {
	viaActive := func() []Span {
		c := &fakeClock{}
		tr := kept(c.clock, 7, 0)
		tick := tr.Start("kernel/g", "tick", map[string]any{"core": 0})
		poll := tr.Start("guard", "poll", map[string]any{"core": 1})
		rd := tr.Start("kernel/g", "rdmsr", map[string]any{"addr": "0x198"})
		rd.EndWithCost(50 * sim.Nanosecond)
		poll.EndWithCost(700 * sim.Nanosecond)
		c.now += 100 * sim.Microsecond
		tick.End()
		return tr.Spans()
	}
	viaScope := func() []Span {
		c := &fakeClock{}
		tr := kept(c.clock, 7, 0)
		tick := tr.StartScope("kernel/g", "tick", map[string]any{"core": 0})
		poll := tr.StartScope("guard", "poll", map[string]any{"core": 1})
		rd := tr.StartScope("kernel/g", "rdmsr", map[string]any{"addr": "0x198"})
		rd.EndWithCost(50 * sim.Nanosecond)
		poll.EndWithCost(700 * sim.Nanosecond)
		c.now += 100 * sim.Microsecond
		tick.End()
		return tr.Spans()
	}
	a, s := viaActive(), viaScope()
	if len(a) != len(s) || len(a) != 3 {
		t.Fatalf("span counts: active %d, scope %d (want 3)", len(a), len(s))
	}
	for i := range a {
		if a[i].ID != s[i].ID || a[i].Parent != s[i].Parent || a[i].Track != s[i].Track ||
			a[i].Name != s[i].Name || a[i].Start != s[i].Start || a[i].Dur != s[i].Dur ||
			a[i].Seq != s[i].Seq {
			t.Errorf("span %d differs: active %+v, scope %+v", i, a[i], s[i])
		}
	}
}

// TestScopeZeroValueAndDoubleEnd covers the inert paths: the zero Scope (and
// a nil tracer's Scope) absorbs calls, and a scope ends at most once.
func TestScopeZeroValueAndDoubleEnd(t *testing.T) {
	var nilTr *Tracer
	s := nilTr.StartScope("t", "x", nil)
	s.End()
	s.EndWithCost(5)
	if s.ID() != 0 {
		t.Fatalf("nil tracer scope has ID %x", s.ID())
	}
	var zero Scope
	zero.End() // must not panic

	tr := kept(nil, 3, 0)
	sc := tr.StartScope("t", "x", nil)
	sc.EndWithCost(10)
	sc.EndWithCost(20)
	sc.End()
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Dur != 10 {
		t.Fatalf("double-ended scope recorded %+v, want one span of dur 10", spans)
	}
}

// TestScopeSteadyStateZeroAlloc is the tracer-level half of the guard's
// zero-alloc contract: once the store is full (drop-newest steady state),
// and on a tracer that stores nothing from its first span, StartScope
// returns drop-only scopes, which still advance the track's sequence; once
// that entry exists, StartScope+EndWithCost must not allocate.
func TestScopeSteadyStateZeroAlloc(t *testing.T) {
	c := &fakeClock{}
	attrs := map[string]any{"core": 0}
	for _, tc := range []struct {
		name    string
		tr      *Tracer
		wantLen int
	}{{"full store", kept(c.clock, 11, 8), 8}, {"no store", NewTracer(c.clock, 11, 8), 0}} {
		tr := tc.tr
		for i := 0; i < 16; i++ { // fill the store + warm seqs/stack capacity
			sc := tr.StartScope("guard", "poll", attrs)
			sc.EndWithCost(700 * sim.Nanosecond)
		}
		if tr.Len() != tc.wantLen || tr.Dropped() != 8 {
			t.Fatalf("%s: warm-up: len=%d dropped=%d, want len %d and 8 spans past the cap", tc.name, tr.Len(), tr.Dropped(), tc.wantLen)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			sc := tr.StartScope("guard", "poll", attrs)
			sc.EndWithCost(700 * sim.Nanosecond)
		})
		if allocs != 0 {
			t.Fatalf("%s: StartScope/EndWithCost allocates %.1f per span in steady state, want 0", tc.name, allocs)
		}
	}
}

// TestUnkeptTracerStoresNothing: a tracer that was never asked to store
// mints the IDs a storing tracer mints and reports the same drop count, but
// stores and exports nothing, and its drop-only scopes carry no ID.
func TestUnkeptTracerStoresNothing(t *testing.T) {
	c := &fakeClock{}
	st, bare := kept(c.clock, 5, 4), NewTracer(c.clock, 5, 4)
	for i := 0; i < 3; i++ {
		emitSample(st, c)
		emitSample(bare, c)
		if st.Complete("msr/core1", "x", 0, 0, nil) != bare.Complete("msr/core1", "x", 0, 0, nil) ||
			st.Start("guard", "y", nil).ID() != bare.Start("guard", "y", nil).ID() {
			t.Fatalf("round %d: IDs differ between a storing and a bare tracer", i)
		}
		if st.Dropped() != bare.Dropped() {
			t.Fatalf("round %d: Dropped %d, storing tracer %d", i, bare.Dropped(), st.Dropped())
		}
	}
	if sc := bare.StartScope("guard", "poll", nil); sc.ID() != 0 {
		t.Fatalf("bare tracer's scope carries ID %x", sc.ID())
	}
	if st.Len() != 4 || st.Dropped() != 3*6-4 {
		t.Fatalf("storing tracer: Len %d, Dropped %d; want 4 and %d", st.Len(), st.Dropped(), 3*6-4)
	}
	if bare.Len() != 0 || bare.Spans() != nil {
		t.Fatalf("bare tracer stored %d spans", bare.Len())
	}
	var trace, folded bytes.Buffer
	if err := bare.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := bare.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	if got := trace.String(); got != "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n]}\n" || folded.Len() != 0 {
		t.Fatalf("bare tracer exported %q and %q", got, folded.String())
	}
	// Keep after the store filled does not reopen it.
	st.Keep()
	st.Complete("t", "z", 0, 0, nil)
	if st.Len() != 4 {
		t.Fatalf("Keep reopened a full store: Len %d", st.Len())
	}
}

// TestFullTracerDropOnlyScopes pins the drop path: on a full tracer a scope
// gets no ID and counts one drop when it ends (once, however often it is
// ended), while Start, Complete and Instant keep minting the IDs an
// unbounded tracer would, because dropped scopes still advance their
// track's sequence.
func TestFullTracerDropOnlyScopes(t *testing.T) {
	const seed = 13
	tr := kept(nil, seed, 2)
	tr.Complete("msr/core0", "mailbox_write", 0, 0, nil)
	open := tr.StartScope("guard", "poll", nil) // guard seq 0, started before full
	tr.Complete("msr/core0", "mailbox_write", 0, 0, nil)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want a full buffer of 2", tr.Len())
	}
	sc := tr.StartScope("guard", "poll", nil) // guard seq 1
	root := tr.StartRootScope("guard", "tick", nil)
	if sc.ID() != 0 || root.ID() != 0 {
		t.Fatalf("drop-only scopes carry IDs %x, %x; want 0", sc.ID(), root.ID())
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped = %d before any span ended, want 0", tr.Dropped())
	}
	sc.EndWithCost(5)
	sc.End()
	root.End()
	open.End()
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3 (two drop-only scopes, one pre-full scope)", tr.Dropped())
	}
	if a := tr.Start("guard", "intervention", nil); a.ID() != fnvID(seed, "guard", 3) {
		t.Errorf("Start after dropped scopes minted %x, want guard seq 3 %x", a.ID(), fnvID(seed, "guard", 3))
	}
	if id := tr.Complete("guard", "x", 0, 0, nil); id != fnvID(seed, "guard", 4) {
		t.Errorf("Complete minted %x, want guard seq 4 %x", id, fnvID(seed, "guard", 4))
	}
	if id := tr.Instant("msr/core0", "mailbox_write", nil); id != fnvID(seed, "msr/core0", 2) {
		t.Errorf("Instant minted %x, want msr/core0 seq 2 %x", id, fnvID(seed, "msr/core0", 2))
	}
	if tr.Len() != 2 || tr.Dropped() != 5 {
		t.Fatalf("Len = %d, Dropped = %d; want 2 and 5", tr.Len(), tr.Dropped())
	}
}

// TestConcurrentReadersDuringDrops runs the single writer past the cap,
// through both the locked record path and the lock-free drop path, while
// another goroutine reads the store and the drop count and exports. Under
// -race this checks that readers never touch writer-only state
// unsynchronized.
func TestConcurrentReadersDuringDrops(t *testing.T) {
	c := &fakeClock{}
	tr := kept(c.clock, 17, 64)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf bytes.Buffer
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = tr.Len(), tr.Dropped()
			buf.Reset()
			if err := tr.WriteFolded(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	attrs := map[string]any{"core": 0}
	for i := 0; i < 500; i++ {
		tick := tr.StartRootScope("kernel/g", "tick", attrs)
		poll := tr.StartScope("guard", "poll", attrs)
		tr.Instant("msr/core0", "mailbox_write", nil)
		poll.EndWithCost(700 * sim.Nanosecond)
		tick.EndWithCost(1000 * sim.Nanosecond)
		c.now += 100 * sim.Microsecond
	}
	close(stop)
	<-done
	if tr.Len() != 64 || tr.Dropped() != 3*500-64 {
		t.Fatalf("Len = %d, Dropped = %d; want 64 and %d", tr.Len(), tr.Dropped(), 3*500-64)
	}
}
