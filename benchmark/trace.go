package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// tracer records host-time spans from the benchmark's own code, around the
// calls it makes into the simulator's packages. Spans stay in memory until
// the run ends. A nil *tracer records nothing, so one op body serves both
// the timed (untraced) and the traced phase.
type tracer struct {
	workload string
	t0       time.Time
	spans    []interval
	open     []int // indices of the spans not yet ended, innermost last
	op       int   // id of the op spans are being recorded for
}

// interval is one recorded span. Its layer is the part of Name before the
// first dot: "attack.e1.plundervolt.polling" belongs to layer "attack".
type interval struct {
	Name       string
	Start, End time.Duration // since the tracer started
	Parent     int           // index of the enclosing span, -1 for an op root
	Op         int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (s interval) dur() time.Duration { return s.End - s.Start }

func (s interval) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, interval{Name: name, Start: time.Since(t.t0), Parent: parent, Op: t.op})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// named returns the durations of every span called name.
func (t *tracer) named(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// withPrefix returns the durations of every span whose name starts with p.
func (t *tracer) withPrefix(p string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, p) {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each layer's self time, summed over all spans of the
// layer: a span's duration minus the part of it its child spans cover.
// Spans are recorded on one goroutine and nest strictly, so children never
// overlap and the self times of an op's spans add up to its root span.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.layer()] += s.dur() - child[i]
	}
	return out
}

// rootTime is the summed duration of the op root spans.
func (t *tracer) rootTime() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent < 0 {
			d += s.dur()
		}
	}
	return d
}

// writeSelfTimes prints the self-time table, largest layer first.
func (t *tracer) writeSelfTimes(w io.Writer) {
	self := t.selfTimes()
	layers := make([]string, 0, len(self))
	var sum time.Duration
	for l, d := range self {
		layers = append(layers, l)
		sum += d
	}
	sort.Slice(layers, func(i, j int) bool {
		if self[layers[i]] != self[layers[j]] {
			return self[layers[i]] > self[layers[j]]
		}
		return layers[i] < layers[j]
	})
	root := t.rootTime()
	fmt.Fprintf(w, "%-12s %14s %8s\n", "layer", "self ms", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "%-12s %14.3f %7.2f%%\n", l, ms(self[l]), pct(self[l], root))
	}
	fmt.Fprintf(w, "%-12s %14.3f %7.2f%%  (traced op time %.3f ms)\n", "sum", ms(sum), pct(sum, root), ms(root))
}

// writeChrome writes the spans in the Chrome trace-event format: one
// process per workload, one thread per op. Load the file in
// chrome://tracing or ui.perfetto.dev.
func writeChrome(w io.Writer, traces []*tracer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	for p, t := range traces {
		events = append(events, event{Name: "process_name", Ph: "M", Pid: p + 1,
			Args: map[string]any{"name": t.workload}})
		for i, s := range t.spans {
			events = append(events, event{
				Name: s.Name, Cat: s.layer(), Ph: "X",
				Ts: us(s.Start), Dur: us(s.dur()), Pid: p + 1, Tid: s.Op,
				Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func pct(part, whole time.Duration) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// medianOf is the median of a set of durations in the given unit.
func medianOf(ds []time.Duration, unit time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d) / float64(unit)
	}
	return summarize(v).Median
}

// sumOf totals a set of durations.
func sumOf(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
