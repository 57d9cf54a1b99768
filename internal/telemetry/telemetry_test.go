package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"plugvolt/internal/sim"
)

func testClock(t *sim.Time) Clock { return func() sim.Time { return *t } }

func TestCounterGaugeBasics(t *testing.T) {
	now := sim.Time(0)
	r := NewRegistry(testClock(&now))
	c := r.Counter("polls_total", "polls", Labels{"core": "0"})
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 3 {
		t.Fatalf("counter %v", got)
	}
	// Same name+labels resolves to the same series.
	if got := r.Counter("polls_total", "polls", Labels{"core": "0"}).Value(); got != 3 {
		t.Fatalf("re-lookup %v", got)
	}
	// Different labels are a distinct series.
	r.Counter("polls_total", "polls", Labels{"core": "1"}).Inc()
	snap := r.Snapshot()
	if got := snap.Total("polls_total"); got != 4 {
		t.Fatalf("total %v", got)
	}
	if got := snap.Value("polls_total", Labels{"core": "1"}); got != 1 {
		t.Fatalf("core 1 %v", got)
	}

	g := r.Gauge("stolen_seconds", "stolen", nil)
	g.Set(1.5)
	g.Add(-0.5)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("gauge %v", got)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("x", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as gauge did not panic")
		}
	}()
	r.Gauge("x", "", nil)
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "", nil)
	c.Inc()
	c.Add(1)
	if c.Value() != 0 {
		t.Fatal("nil counter has value")
	}
	g := r.Gauge("b", "", nil)
	g.Set(1)
	g.Add(1)
	h := r.Histogram("c", "", []float64{1}, nil)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram recorded")
	}
	var j *Journal
	j.Emit("x", nil)
	if len(j.Events()) != 0 || j.Full() {
		t.Fatal("nil journal recorded")
	}
	if err := j.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var s *Set
	if s.Registry() != nil || s.Events() != nil {
		t.Fatal("nil set components non-nil")
	}
	snap := r.Snapshot()
	if len(snap.Metrics) != 0 {
		t.Fatal("nil registry snapshot non-empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry(nil)
	h := r.Histogram("lat_seconds", "latency", []float64{1, 2, 5}, nil)
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Sum() != 16 {
		t.Fatalf("sum %v", h.Sum())
	}
	snap := r.Snapshot()
	ss := snap.Find("lat_seconds").Series[0]
	want := []uint64{2, 3, 4} // cumulative per le bound; +Inf = 5
	for i, b := range ss.Buckets {
		if b.Cumulative != want[i] {
			t.Fatalf("bucket %d: %d != %d", i, b.Cumulative, want[i])
		}
	}
}

func TestSnapshotDeterministicRendering(t *testing.T) {
	build := func() *Snapshot {
		now := sim.Time(42 * sim.Microsecond)
		r := NewRegistry(testClock(&now))
		// Insertion order scrambled relative to name/label order on purpose.
		r.Counter("z_total", "zs", Labels{"b": "2", "a": "1"}).Add(7)
		r.Counter("z_total", "zs", Labels{"a": "1", "b": "1"}).Add(3)
		r.Gauge("a_gauge", "", nil).Set(1.25)
		h := r.Histogram("m_hist", "", []float64{1, 2}, Labels{"k": "v"})
		h.Observe(0.5)
		h.Observe(9)
		return r.Snapshot()
	}
	var b1, b2 bytes.Buffer
	if err := build().WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("prometheus rendering not byte-stable")
	}
	j1, err := build().JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := build().JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatal("json rendering not byte-stable")
	}
	out := b1.String()
	for _, want := range []string{
		"# snapshot at_ps 42000000",
		"# TYPE z_total counter",
		`z_total{a="1",b="1"} 3`,
		`z_total{a="1",b="2"} 7`,
		"a_gauge 1.25",
		`m_hist_bucket{k="v",le="1"} 1`,
		`m_hist_bucket{k="v",le="+Inf"} 2`,
		`m_hist_sum{k="v"} 9.5`,
		`m_hist_count{k="v"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Series must appear sorted by label signature.
	if strings.Index(out, `b="1"`) > strings.Index(out, `b="2"`) {
		t.Fatal("series not sorted by label signature")
	}
}

func TestJournalBoundedAndOrdered(t *testing.T) {
	now := sim.Time(0)
	j := NewJournal(testClock(&now), 3)
	dropped := 0
	j.OnDrop(func() { dropped++ })
	for i := 0; i < 5; i++ {
		now = sim.Time(i) * sim.Microsecond
		j.Emit("tick", map[string]any{"i": i})
	}
	if n := len(j.Events()); n != 3 {
		t.Fatalf("len %d", n)
	}
	if dropped != 2 {
		t.Fatalf("dropped %d", dropped)
	}
	ev := j.Events()
	for i, e := range ev {
		if e.At != sim.Time(i)*sim.Microsecond {
			t.Fatalf("event %d at %v", i, e.At)
		}
	}
	if got := len(j.OfType("tick")); got != 3 {
		t.Fatalf("of-type %d", got)
	}
	if got := len(j.OfType("absent")); got != 0 {
		t.Fatalf("of-type absent %d", got)
	}
}

func TestJournalJSONLDeterministic(t *testing.T) {
	render := func() string {
		now := sim.Time(5 * sim.Microsecond)
		j := NewJournal(testClock(&now), 0)
		j.Emit("guard_intervention", map[string]any{
			"core": 1, "offset_mv": -135, "freq_khz": 3600000, "safe_mv": 0,
		})
		var sb strings.Builder
		if err := j.WriteJSONL(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("jsonl not byte-stable")
	}
	want := `{"at_ps":5000000,"type":"guard_intervention","core":1,"freq_khz":3600000,"offset_mv":-135,"safe_mv":0}` + "\n"
	if a != want {
		t.Fatalf("jsonl %q != %q", a, want)
	}
}

func TestSetConstruction(t *testing.T) {
	now := sim.Time(0)
	s := NewSet(testClock(&now), 8, 1)
	if s.Registry() == nil || s.Events() == nil || s.Spans() == nil {
		t.Fatal("set components nil")
	}
	if s.Events().cap != 8 {
		t.Fatalf("journal cap %d", s.Events().cap)
	}
	if Seconds(1500*sim.Millisecond) != 1.5 {
		t.Fatal("Seconds conversion")
	}
}

// TestJournalExactCapacityBoundary pins down the off-by-one surface of the
// drop-newest policy: the cap-th Emit is retained, Full() flips exactly
// there (not one early), and every rejection after the flip — and only
// those — is counted and reported via OnDrop.
func TestJournalExactCapacityBoundary(t *testing.T) {
	const cap = 4
	now := sim.Time(0)
	j := NewJournal(testClock(&now), cap)

	var dropCB int
	j.OnDrop(func() { dropCB++ })

	// Fill to exactly cap. At every step short of cap the journal must not
	// report full — a premature Full() would make hot paths suppress events
	// the journal still has room for.
	for i := 0; i < cap; i++ {
		if j.Full() {
			t.Fatalf("full at len %d, cap %d", i, cap)
		}
		now = sim.Time(i) * sim.Microsecond
		j.Emit("tick", map[string]any{"i": i})
	}
	if n := len(j.Events()); n != cap {
		t.Fatalf("len %d after filling to cap %d", n, cap)
	}
	if !j.Full() {
		t.Fatal("not full at exactly cap")
	}
	if dropCB != 0 {
		t.Fatalf("%d drops before the cap was exceeded", dropCB)
	}

	// The first over-cap Emit is rejected, keeping the oldest history.
	j.Emit("over", map[string]any{"i": cap})
	if n := len(j.Events()); n != cap {
		t.Fatalf("len %d after over-cap emit", n)
	}
	if dropCB != 1 {
		t.Fatalf("one rejection, %d drops reported", dropCB)
	}
	if got := len(j.OfType("over")); got != 0 {
		t.Fatalf("over-cap event retained: %d", got)
	}

	// The retained window is the exact prefix: events 0..cap-1 in order.
	for i, e := range j.Events() {
		if e.Fields["i"] != i {
			t.Fatalf("retained event %d carries i=%v; drop-newest must keep the opening", i, e.Fields["i"])
		}
	}

	// Every further rejection is reported once.
	for i := 0; i < 3; i++ {
		j.Emit("over", nil)
	}
	if dropCB != 4 {
		t.Fatalf("%d drops reported after 4 total rejections", dropCB)
	}
}

// TestJournalCapOneAndDefault: the degenerate smallest journal still obeys
// the boundary contract, and a non-positive cap selects the default.
func TestJournalCapOneAndDefault(t *testing.T) {
	now := sim.Time(0)
	j := NewJournal(testClock(&now), 1)
	dropped := 0
	j.OnDrop(func() { dropped++ })
	if j.Full() {
		t.Fatal("empty cap-1 journal reports full")
	}
	j.Emit("only", nil)
	if !j.Full() || len(j.Events()) != 1 || dropped != 0 {
		t.Fatalf("after one emit: full=%v len=%d dropped=%d", j.Full(), len(j.Events()), dropped)
	}
	j.Emit("rejected", nil)
	if len(j.Events()) != 1 || dropped != 1 {
		t.Fatalf("after rejection: len=%d dropped=%d", len(j.Events()), dropped)
	}
	if ev := j.Events(); len(ev) != 1 || ev[0].Type != "only" {
		t.Fatalf("retained %+v", ev)
	}

	for _, cap := range []int{0, -7} {
		if got := NewJournal(testClock(&now), cap).cap; got != DefaultJournalCap {
			t.Fatalf("cap %d selected %d, want DefaultJournalCap", cap, got)
		}
	}
}
