package span

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"plugvolt/internal/sim"
)

// refTracer is the always-minting tracer algorithm, the oracle for
// FuzzTracerDropEquivalence: every start mints an ID and pushes the scope
// stack, and a span is dropped only when it is recorded into a full
// buffer.
type refTracer struct {
	clock   Clock
	seed    int64
	cap     int
	spans   []Span
	dropped uint64
	seqs    map[string]uint64
	stack   []ID
}

// refSpan is an open span of the reference tracer, started by any of
// Start, StartScope or StartRootScope.
type refSpan struct {
	t     *refTracer
	span  Span
	ended bool
}

func newRefTracer(clock Clock, seed int64, cap int) *refTracer {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &refTracer{clock: clock, seed: seed, cap: cap, seqs: map[string]uint64{}}
}

func (t *refTracer) mint(track string) (ID, uint64) {
	seq := t.seqs[track]
	t.seqs[track] = seq + 1
	return fnvID(t.seed, track, seq), seq
}

func (t *refTracer) top() ID {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return 0
}

func (t *refTracer) record(s Span) {
	if len(t.spans) >= t.cap {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

func (t *refTracer) start(track, name string, attrs map[string]any, root bool) *refSpan {
	id, seq := t.mint(track)
	var parent ID
	if !root {
		parent = t.top()
	}
	t.stack = append(t.stack, id)
	return &refSpan{t: t, span: Span{ID: id, Parent: parent, Track: track, Name: name,
		Start: t.clock(), Attrs: attrs, Seq: seq}}
}

func (s *refSpan) end(d sim.Duration) {
	if s.ended {
		return
	}
	s.ended = true
	if d < 0 {
		d = 0
	}
	s.span.Dur = d
	t := s.t
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s.span.ID {
			t.stack = t.stack[:i]
			break
		}
	}
	t.record(s.span)
}

func (t *refTracer) complete(track, name string, start sim.Time, dur sim.Duration, attrs map[string]any) ID {
	if dur < 0 {
		dur = 0
	}
	id, seq := t.mint(track)
	t.record(Span{ID: id, Parent: t.top(), Track: track, Name: name,
		Start: start, Dur: dur, Attrs: attrs, Seq: seq})
	return id
}

// Scripts draw tracks, names and scope attributes from small shared pools,
// so scopes, Start, Complete and Instant collide on the same tracks.
var (
	dropTracks = []string{"guard", "kernel/plug_your_volt", "msr/core0", "characterize/1200"}
	dropNames  = []string{"poll", "rdmsr", "kthread_tick", "mailbox_write"}
	dropAttrs  = []map[string]any{nil, {"core": 0}, {"core": 1, "addr": "0x198"}}
)

// openSpan is one span open on the storing tracer, on the bare tracer and
// on the reference. Exactly one of scope and active is set, and bareScope or
// bareActive to match.
type openSpan struct {
	scope      *Scope
	active     *Active
	bareScope  *Scope
	bareActive *Active
	ref        *refSpan
}

// runDropScript interprets script in lockstep on a storing tracer, on a
// bare tracer that was never asked to store, and on the reference tracer,
// and fails on the first observable difference. script[0] picks the cap
// (0-24, 0 selecting DefaultCap); each following byte pair is one operation
// and its argument.
func runDropScript(t *testing.T, script []byte) {
	if len(script) == 0 {
		return
	}
	c := &fakeClock{}
	capacity := int(script[0]) % 25
	tr := kept(c.clock, 21, capacity)
	bare := NewTracer(c.clock, 21, capacity)
	ref := newRefTracer(c.clock, 21, capacity)
	var open []openSpan
	pick := func(arg byte) *openSpan {
		if len(open) == 0 {
			return nil
		}
		return &open[int(arg)%len(open)]
	}
	for i := 1; i+1 < len(script); i += 2 {
		op, arg := script[i]%9, script[i+1]
		track, name := dropTracks[int(arg)%len(dropTracks)], dropNames[int(arg>>2)%len(dropNames)]
		attrs := dropAttrs[int(arg>>4)%len(dropAttrs)]
		switch op {
		case 0, 1: // StartScope, StartRootScope
			root := op == 1
			start := (*Tracer).StartScope
			if root {
				start = (*Tracer).StartRootScope
			}
			sc, bsc := new(Scope), new(Scope)
			*sc, *bsc = start(tr, track, name, attrs), start(bare, track, name, attrs)
			r := ref.start(track, name, attrs, root)
			if id := sc.ID(); id != 0 && id != r.span.ID {
				t.Fatalf("op %d: scope ID %x, reference %x", i, id, r.span.ID)
			} else if id == 0 && len(ref.spans) < ref.cap {
				t.Fatalf("op %d: drop-only scope on a tracer with %d of %d spans", i, len(ref.spans), ref.cap)
			}
			if id := bsc.ID(); id != 0 {
				t.Fatalf("op %d: the bare tracer's scope carries ID %x", i, id)
			}
			open = append(open, openSpan{scope: sc, bareScope: bsc, ref: r})
		case 2: // Start
			a := tr.Start(track, name, map[string]any{"n": int(arg)})
			b := bare.Start(track, name, map[string]any{"n": int(arg)})
			r := ref.start(track, name, map[string]any{"n": int(arg)}, false)
			if a.ID() != r.span.ID || b.ID() != r.span.ID {
				t.Fatalf("op %d: Start IDs %x (bare %x), reference %x", i, a.ID(), b.ID(), r.span.ID)
			}
			open = append(open, openSpan{active: a, bareActive: b, ref: r})
		case 3: // End, possibly out of order or a second time
			if o := pick(arg); o != nil {
				if o.scope != nil {
					o.scope.End()
					o.bareScope.End()
				} else {
					o.active.End()
					o.bareActive.End()
				}
				o.ref.end(c.now - o.ref.span.Start)
			}
		case 4: // EndWithCost, negative costs included
			if o := pick(arg); o != nil {
				d := sim.Duration(int(arg)-96) * sim.Nanosecond
				if o.scope != nil {
					o.scope.EndWithCost(d)
					o.bareScope.EndWithCost(d)
				} else {
					o.active.EndWithCost(d)
					o.bareActive.EndWithCost(d)
				}
				o.ref.end(d)
			}
		case 5: // Complete, negative durations included
			start := c.now - sim.Time(arg)*sim.Nanosecond
			d := sim.Duration(int(arg)-64) * sim.Nanosecond
			got := tr.Complete(track, name, start, d, map[string]any{"n": int(arg)})
			gotBare := bare.Complete(track, name, start, d, map[string]any{"n": int(arg)})
			if want := ref.complete(track, name, start, d, map[string]any{"n": int(arg)}); got != want || gotBare != want {
				t.Fatalf("op %d: Complete IDs %x (bare %x), reference %x", i, got, gotBare, want)
			}
		case 6: // Instant
			got, gotBare := tr.Instant(track, name, attrs), bare.Instant(track, name, attrs)
			if want := ref.complete(track, name, c.now, 0, attrs); got != want || gotBare != want {
				t.Fatalf("op %d: Instant IDs %x (bare %x), reference %x", i, got, gotBare, want)
			}
		default: // the clock moves
			c.now += sim.Time(arg) * sim.Nanosecond
		}
		if tr.Len() != len(ref.spans) || tr.Dropped() != ref.dropped {
			t.Fatalf("op %d: Len %d, Dropped %d; reference %d, %d", i, tr.Len(), tr.Dropped(), len(ref.spans), ref.dropped)
		}
		if bare.Len() != 0 || bare.Dropped() != ref.dropped {
			t.Fatalf("op %d: bare tracer Len %d, Dropped %d; want 0 and %d", i, bare.Len(), bare.Dropped(), ref.dropped)
		}
	}
	if got := tr.Spans(); !reflect.DeepEqual(got, ref.spans) {
		t.Fatalf("recorded spans differ:\n%+v\nreference:\n%+v", got, ref.spans)
	}
	if got := bare.Spans(); len(got) != 0 {
		t.Fatalf("the bare tracer stored %d spans", len(got))
	}
	// The storing tracer exports the reference's spans; the bare one exports
	// what an empty store does.
	for _, pair := range []struct{ got, want *Tracer }{
		{tr, &Tracer{spans: ref.spans}},
		{bare, &Tracer{}},
	} {
		for _, w := range []struct {
			name  string
			write func(*Tracer, io.Writer) error
		}{
			{"WriteChromeTrace", (*Tracer).WriteChromeTrace},
			{"WriteFolded", (*Tracer).WriteFolded},
		} {
			var got, want bytes.Buffer
			if err := w.write(pair.got, &got); err != nil {
				t.Fatal(err)
			}
			if err := w.write(pair.want, &want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s differs from the reference:\n%s\nreference:\n%s", w.name, got.Bytes(), want.Bytes())
			}
		}
	}
}

// FuzzTracerDropEquivalence checks the drop-only path against the
// always-minting reference: for any script, a storing tracer has the
// reference's recorded spans, Len, Dropped and exports, a tracer that
// stores nothing has its Dropped and an empty store and exports, and both
// return every ID that Start, Complete and Instant return on the
// reference.
func FuzzTracerDropEquivalence(f *testing.F) {
	// Fill a 3-span tracer, then drop scopes on the tracks Complete and
	// Instant use next.
	f.Add([]byte{3, 5, 0, 5, 1, 5, 2, 0, 0, 0, 2, 4, 0, 4, 1, 5, 0, 6, 2, 6, 0})
	// Nested scopes and an Active, ended out of order and twice, across
	// the fill point.
	f.Add([]byte{4, 1, 1, 0, 0, 2, 17, 0, 1, 8, 40, 3, 0, 3, 0, 4, 2, 5, 3, 0, 2, 4, 1, 3, 3, 6, 1, 5, 2})
	// Default cap: nothing drops.
	f.Add([]byte{0, 1, 0, 0, 5, 2, 9, 6, 2, 8, 7, 4, 1, 3, 0, 4, 0, 5, 1})
	// Cap 1 with clock movement between every step.
	f.Add([]byte{1, 0, 16, 8, 100, 0, 33, 8, 3, 4, 0, 4, 1, 2, 50, 6, 3, 3, 1, 5, 200})
	f.Fuzz(func(t *testing.T, script []byte) {
		runDropScript(t, script)
	})
}
