package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"plugvolt/internal/sim"
)

// Edge cases of snapshot rendering and merging: label sets crafted to
// collide on a naive signature, escaping in the exposition, and merges.

func snapClock() Clock {
	now := sim.Time(0)
	return func() sim.Time { return now }
}

func TestLabelSignatureCollisionResistance(t *testing.T) {
	// Without key quoting these two sets render the same naive signature
	// `a="1",b="2"`; they must stay distinct series.
	setA := Labels{"a": "1", "b": "2"}
	setB := Labels{`a="1",b`: "2"}
	if setA.signature() == setB.signature() {
		t.Fatalf("signature collision: %q", setA.signature())
	}

	reg := NewRegistry(snapClock())
	reg.Counter("c", "", setA).Add(1)
	reg.Counter("c", "", setB).Add(10)
	snap := reg.Snapshot()
	m := snap.Find("c")
	if m == nil || len(m.Series) != 2 {
		t.Fatalf("collided label sets merged into %+v", m)
	}
	if got := snap.Value("c", setA); got != 1 {
		t.Errorf("setA value = %v, want 1", got)
	}
	if got := snap.Value("c", setB); got != 10 {
		t.Errorf("setB value = %v, want 10", got)
	}
}

func TestDiffValueEscapingInExposition(t *testing.T) {
	// Quotes and commas in label *values* must survive the round trip
	// without forging other series.
	tricky := Labels{"path": `a",b=`}
	reg := NewRegistry(snapClock())
	reg.Counter("hits", "", tricky).Add(3)
	var sb strings.Builder
	if err := reg.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `hits{path="a\",b="} 3`) {
		t.Errorf("tricky value rendered wrong:\n%s", sb.String())
	}
}

// mergeFixture builds a registry snapshot with one counter, one gauge and
// one histogram, scaled by k so merged sums are easy to predict.
func mergeFixture(k float64) *Snapshot {
	r := NewRegistry(func() sim.Time { return sim.Time(int64(k) * 100) })
	r.Counter("polls_total", "", Labels{"core": "0"}).Add(10 * k)
	r.Counter("polls_total", "", Labels{"core": "1"}).Add(1 * k)
	r.Gauge("stolen_seconds", "", nil).Set(2 * k)
	h := r.Histogram("latency", "", []float64{1, 2}, nil)
	for i := 0; i < int(k); i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	return r.Snapshot()
}

func TestMergeSnapshots(t *testing.T) {
	a, b := mergeFixture(1), mergeFixture(3)
	m, err := MergeSnapshots(a, b, nil) // nil inputs are skipped
	if err != nil {
		t.Fatal(err)
	}
	if m.AtPS != 300 {
		t.Errorf("AtPS = %d, want max input 300", m.AtPS)
	}
	if got := m.Value("polls_total", Labels{"core": "0"}); got != 40 {
		t.Errorf("merged counter = %v, want 40", got)
	}
	if got := m.Total("polls_total"); got != 44 {
		t.Errorf("merged counter total = %v, want 44", got)
	}
	if got := m.Value("stolen_seconds", nil); got != 8 {
		t.Errorf("merged gauge = %v, want 8", got)
	}
	hs := m.Find("latency")
	if hs == nil || len(hs.Series) != 1 {
		t.Fatalf("merged histogram missing: %+v", hs)
	}
	s := hs.Series[0]
	if s.Count != 8 || s.Sum != 8 {
		t.Errorf("merged histogram count=%d sum=%v, want 8/8", s.Count, s.Sum)
	}
	if len(s.Buckets) != 2 || s.Buckets[0].Cumulative != 4 || s.Buckets[1].Cumulative != 8 {
		t.Errorf("merged buckets %+v", s.Buckets)
	}

	// Order-invariance: merging (b, a) renders the same bytes as (a, b).
	m2, err := MergeSnapshots(b, a)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := m.JSON()
	j2, _ := m2.JSON()
	if !bytes.Equal(j1, j2) {
		t.Error("merge is input-order sensitive")
	}

	// Series present in only one input pass through whole.
	r := NewRegistry(nil)
	r.Counter("unique_total", "", nil).Add(5)
	m3, err := MergeSnapshots(a, r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got := m3.Value("unique_total", nil); got != 5 {
		t.Errorf("pass-through series = %v, want 5", got)
	}
}

func TestMergeSnapshotsConflicts(t *testing.T) {
	c := NewRegistry(nil)
	c.Counter("x", "", nil).Add(1)
	g := NewRegistry(nil)
	g.Gauge("x", "", nil).Set(1)
	if _, err := MergeSnapshots(c.Snapshot(), g.Snapshot()); err == nil {
		t.Error("kind conflict not rejected")
	}
	h1 := NewRegistry(nil)
	h1.Histogram("h", "", []float64{1}, nil).Observe(0.5)
	h2 := NewRegistry(nil)
	h2.Histogram("h", "", []float64{1, 2}, nil).Observe(0.5)
	if _, err := MergeSnapshots(h1.Snapshot(), h2.Snapshot()); err == nil {
		t.Error("bucket layout mismatch not rejected")
	}
	h3 := NewRegistry(nil)
	h3.Histogram("h", "", []float64{9}, nil).Observe(0.5)
	if _, err := MergeSnapshots(h1.Snapshot(), h3.Snapshot()); err == nil {
		t.Error("bucket bound mismatch not rejected")
	}
}

// fmtSignature is the fmt rendering of a label signature that signature's
// strconv rendering must reproduce byte for byte.
func fmtSignature(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%q=%q", k, l[k])
	}
	return sb.String()
}

// FuzzLabelSignature holds signature to the fmt rendering on label sets of
// up to three pairs (equal keys collapse). The seeds carry quotes, commas,
// equals signs, backslashes, non-ASCII and invalid UTF-8 in keys and
// values, so the quoting that keeps one set from forging another's
// signature stays pinned.
func FuzzLabelSignature(f *testing.F) {
	f.Add("core", "0", "", "", "", "")
	f.Add(`a="1",b`, "2", "a", "1", "b", "2")
	f.Add(`k\`, `v\"`, "=", ",", `"`, `\\`)
	f.Add("modèle", "Kaby Lake R", "核", "ßé ", "\x00\x7f", "\xff\xfe")
	f.Add("", "", `"=","`, `"`, "a,b=c", "tab\there")
	f.Fuzz(func(t *testing.T, k1, v1, k2, v2, k3, v3 string) {
		l := Labels{k1: v1, k2: v2, k3: v3}
		if got, want := l.signature(), fmtSignature(l); got != want {
			t.Fatalf("signature %q, fmt renders %q", got, want)
		}
	})
}

// TestLabelSignatureMatchesFmt covers what the fuzz target's three pairs
// cannot: no labels at all, and a set with more keys and more bytes than
// signature's stack buffers hold.
func TestLabelSignatureMatchesFmt(t *testing.T) {
	many := Labels{}
	for i := 0; i < 12; i++ {
		many[fmt.Sprintf("k%02d\"", 11-i)] = fmt.Sprintf("v=%d,", i)
	}
	for _, l := range []Labels{nil, {}, many} {
		if got, want := l.signature(), fmtSignature(l); got != want {
			t.Errorf("signature %q, fmt renders %q", got, want)
		}
	}
}

// TestMergeDecodedSnapshotsMatchesLive merges snapshots decoded from JSON,
// as a fleet checkpoint restores them, with live ones. Decoded series carry
// no cached signature, so the merge must compute the one Registry.Snapshot
// caches: every mix, and a fold over merged results, renders the bytes of
// merging the live snapshots alone.
func TestMergeDecodedSnapshotsMatchesLive(t *testing.T) {
	live := func(k float64) *Snapshot {
		reg := NewRegistry(snapClock())
		reg.Counter("c", "help", Labels{"core": "0"}).Add(k)
		reg.Counter("c", "help", Labels{`a="1",b`: "2"}).Add(2 * k)
		reg.Counter("c", "help", Labels{"a": "1", "b": "2"}).Add(3 * k)
		reg.Counter("plain", "", nil).Add(k)
		reg.Gauge("g", "", Labels{"model": "Kaby Lake R", "core": "1"}).Set(k)
		reg.Histogram("h", "", []float64{1, 10}, Labels{"path": `x\y`}).Observe(k)
		return reg.Snapshot()
	}
	decode := func(s *Snapshot) *Snapshot {
		data, err := s.JSON()
		if err != nil {
			t.Fatal(err)
		}
		var d Snapshot
		if err := json.Unmarshal(data, &d); err != nil {
			t.Fatal(err)
		}
		return &d
	}
	a, b, c := live(1), live(2), live(5)
	want := render(t, mustMerge(t, a, b, c))
	for name, got := range map[string]*Snapshot{
		"decoded first":   mustMerge(t, decode(a), b, c),
		"decoded last":    mustMerge(t, a, b, decode(c)),
		"all decoded":     mustMerge(t, decode(a), decode(b), decode(c)),
		"decoded fold":    mustMerge(t, decode(mustMerge(t, a, b)), c),
		"live fold":       mustMerge(t, mustMerge(t, decode(a), b), decode(c)),
		"decoded reorder": mustMerge(t, decode(c), a, decode(b)),
	} {
		if !bytes.Equal(render(t, got), want) {
			t.Errorf("%s: merged bytes differ from the live merge", name)
		}
	}
}
