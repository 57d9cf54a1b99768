package telemetry

import (
	"regexp"
	"strings"
	"testing"
)

// Histogram bucket lines must appear in ascending numeric le order in every
// rendered snapshot — including merges. The bounds {20, 100, 500} are the
// trap case: lexicographically "100" < "20" < "500", so any code path that
// ever sorted bucket lines (or their le labels) as strings would reorder
// them. Bounds are validated ascending at registration and every
// snapshot/merge path preserves slice order positionally; this test pins
// that contract.
func TestBucketLinesNumericOrder(t *testing.T) {
	r := NewRegistry(nil)
	h := r.Histogram("m_us", "latency", []float64{20, 100, 500}, Labels{"core": "0"})
	h.Observe(10)
	before := r.Snapshot()
	for _, v := range []float64{15, 50, 50, 300, 9999} {
		h.Observe(v)
	}
	after := r.Snapshot()

	leSeq := func(s *Snapshot) []string {
		var sb strings.Builder
		if err := s.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		re := regexp.MustCompile(`m_us_bucket\{core="0",le="([^"]+)"\} (\d+)`)
		var les []string
		for _, m := range re.FindAllStringSubmatch(sb.String(), -1) {
			les = append(les, m[1])
		}
		return les
	}

	want := []string{"20", "100", "500", "+Inf"}
	for name, s := range map[string]*Snapshot{"before": before, "after": after} {
		got := leSeq(s)
		if len(got) != len(want) {
			t.Fatalf("%s: bucket lines %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: bucket line %d has le=%q, want %q (numeric order, not lexicographic)", name, i, got[i], want[i])
			}
		}
	}

	// Merging preserves the same order — the fleet path renders merged
	// snapshots straight to Prometheus text.
	merged, err := MergeSnapshots(after, after)
	if err != nil {
		t.Fatal(err)
	}
	got := leSeq(merged)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("merged: bucket line %d has le=%q, want %q", i, got[i], want[i])
		}
	}
}
