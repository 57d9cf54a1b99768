// Package telemetry is the deterministic metrics-and-events subsystem of the
// reproduction: a registry of counters, gauges and fixed-bucket histograms
// with labeled series, plus a bounded structured event journal, all driven by
// the sim virtual clock — never the wall clock.
//
// Determinism is the design constraint that separates this from an
// off-the-shelf metrics library. The paper's quantitative claims (the guard
// wins the turnaround race, the 0.28 % SPEC2017 overhead of Table 2) are
// reproduced on a seeded virtual-time simulator whose golden-artifact
// contract requires bit-for-bit replay. So:
//
//   - timestamps come from an injected func() sim.Time, usually
//     (*sim.Simulator).Now, and nothing here ever reads time.Now();
//   - snapshots and expositions iterate metrics and series in sorted order,
//     so two identically-seeded runs render byte-identical output;
//   - instruments never advance the clock or draw randomness — observing a
//     value cannot perturb the experiment being observed.
//
// The sharded characterizer publishes its rows in frequency order, so every
// series is a function of the seed and the flags, whatever the worker count
// or the Go scheduler did.
//
// All instrument methods are nil-receiver safe: code under instrumentation
// holds possibly-nil *Counter/*Gauge/*Histogram fields and calls them
// unconditionally; with telemetry disabled the calls are no-ops.
package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry/span"
)

// Clock produces the current virtual time. (*sim.Simulator).Now fits.
type Clock func() sim.Time

// Labels name one series within a metric family, e.g. {"core": "1"}.
type Labels map[string]string

// signature renders labels in sorted key order — the canonical series key:
// `"k1"="v1","k2"="v2"`, each side quoted as strconv.Quote (and so %q) does.
func (l Labels) signature() string {
	if len(l) == 0 {
		return ""
	}
	// Both buffers live on the stack unless the set outgrows them; the
	// returned string is the one allocation.
	var keyBuf [8]string
	keys := keyBuf[:0]
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var bytesBuf [128]byte
	buf := bytesBuf[:0]
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		// Both sides quoted: an unquoted key would let a crafted key like
		// `a="1",b` forge another set's signature.
		buf = strconv.AppendQuote(buf, k)
		buf = append(buf, '=')
		buf = strconv.AppendQuote(buf, l[k])
	}
	return string(buf)
}

// clone copies the label set so callers can reuse their map.
func (l Labels) clone() Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// Kind discriminates the metric families.
type Kind string

// Metric kinds, matching the Prometheus exposition TYPE names.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// series is one labeled instance of a metric family. A series is either a
// scalar (counter/gauge) or a histogram, per its family's kind.
type series struct {
	labels Labels
	value  float64  // counter: monotone sum; gauge: last set
	counts []uint64 // histogram: per-bucket counts (parallel to bounds)
	sum    float64  // histogram: sum of observations
	n      uint64   // histogram: observation count
}

// family is one named metric with its labeled series.
type family struct {
	name   string
	help   string
	kind   Kind
	bounds []float64 // histogram upper bounds, ascending; +Inf implicit
	series map[string]*series
}

func (f *family) get(labels Labels) *series {
	sig := labels.signature()
	s := f.series[sig]
	if s == nil {
		s = &series{labels: labels.clone()}
		if f.kind == KindHistogram {
			s.counts = make([]uint64, len(f.bounds))
		}
		f.series[sig] = s
	}
	return s
}

// Registry holds metric families keyed by name. The zero value is unusable;
// construct with NewRegistry. A nil *Registry is a valid no-op source of
// instruments.
type Registry struct {
	mu    sync.Mutex
	clock Clock
	fams  map[string]*family
}

// NewRegistry builds a registry stamped by the given virtual clock. A nil
// clock means snapshots carry time zero (useful for pure unit tests).
func NewRegistry(clock Clock) *Registry {
	return &Registry{clock: clock, fams: map[string]*family{}}
}

// now reads the registry clock.
func (r *Registry) now() sim.Time {
	if r == nil || r.clock == nil {
		return 0
	}
	return r.clock()
}

// lookup returns the named family, creating it with the given kind on first
// use. Re-registering an existing name with a different kind panics: metric
// names are programmer-controlled, and a silent kind change would corrupt
// every consumer of the exposition.
func (r *Registry) lookup(name, help string, kind Kind, bounds []float64) *family {
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bounds: bounds,
			series: map[string]*series{}}
		r.fams[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// Counter is a monotonically increasing metric. Methods on a nil receiver
// are no-ops.
type Counter struct {
	r *Registry
	s *series
}

// Counter returns the named counter series, creating it on first use.
// A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Counter{r: r, s: r.lookup(name, help, KindCounter, nil).get(labels)}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	c.r.mu.Lock()
	c.s.value += v
	c.r.mu.Unlock()
}

// Gauge is a metric that can move in both directions. Methods on a nil
// receiver are no-ops.
type Gauge struct {
	r *Registry
	s *series
}

// Gauge returns the named gauge series, creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Gauge{r: r, s: r.lookup(name, help, KindGauge, nil).get(labels)}
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.r.mu.Lock()
	g.s.value = v
	g.r.mu.Unlock()
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative on
// exposition (Prometheus-style le bounds) but stored per-bucket internally.
// Methods on a nil receiver are no-ops.
type Histogram struct {
	r      *Registry
	f      *family
	s      *series
	bounds []float64
}

// Histogram returns the named histogram series with the given ascending
// upper bounds, creating it on first use. The bucket layout is fixed by the
// first registration; later calls for the same name reuse it (their bounds
// argument is ignored), so one family's series always share a layout.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, KindHistogram, append([]float64(nil), bounds...))
	return &Histogram{r: r, f: f, s: f.get(labels), bounds: f.bounds}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	h.s.sum += v
	h.s.n++
	for i, b := range h.bounds {
		if v <= b {
			h.s.counts[i]++
			return
		}
	}
	// Above every bound: only the implicit +Inf bucket (the total count n)
	// sees it.
}

// Seconds converts a virtual duration to the float seconds the exposition
// uses as its base unit for time series.
func Seconds(d sim.Duration) float64 { return float64(d) / float64(sim.Second) }

// Set bundles a Registry, a Journal and a span Tracer on a shared clock —
// the unit a subsystem accepts to become observable. A nil *Set (and nil
// fields) turns every instrumentation site into a no-op.
type Set struct {
	Reg     *Registry
	Journal *Journal
	Trace   *span.Tracer
}

// NewSet builds a registry, a journal bounded at journalCap events, and a
// span tracer minting IDs from seed, which stores spans only once a reader
// asks (span.Tracer.Keep), all on the same clock. The journal's
// drop-newest count is wired to the telemetry_journal_dropped_total counter
// so silent event loss is visible in the exposition.
func NewSet(clock Clock, journalCap int, seed int64) *Set {
	s := &Set{
		Reg:     NewRegistry(clock),
		Journal: NewJournal(clock, journalCap),
		Trace:   span.NewTracer(span.Clock(clock), seed, 0),
	}
	dropped := s.Reg.Counter("telemetry_journal_dropped_total",
		"journal events rejected after the cap was reached (drop-newest policy)", nil)
	s.Journal.OnDrop(dropped.Inc)
	return s
}

// Registry returns the set's registry; nil-safe.
func (s *Set) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.Reg
}

// Events returns the set's journal; nil-safe.
func (s *Set) Events() *Journal {
	if s == nil {
		return nil
	}
	return s.Journal
}

// Spans returns the set's span tracer; nil-safe (a nil tracer is itself a
// valid no-op sink, so instrumentation can call s.Spans().Start(...)
// unconditionally).
func (s *Set) Spans() *span.Tracer {
	if s == nil {
		return nil
	}
	return s.Trace
}
