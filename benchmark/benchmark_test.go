package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// repoRoot is the repository root as seen from this package's directory.
const repoRoot = ".."

// TestWorkloadOracles sets every workload up at the artifact seed and runs
// one op, untraced and, for the fleets, traced; every oracle must hold.
func TestWorkloadOracles(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.setup(runEnv{seed: artifactSeed, repo: repoRoot})
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.reference(); err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			d1, err := inst.op(nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(w.name, "fleet-") {
				return
			}
			// The traced replicate must reproduce fleet.RunStream exactly.
			d2, err := inst.op(newTracer(), rec)
			if err != nil {
				t.Fatal(err)
			}
			if d1 != d2 {
				t.Errorf("traced op digest %s, untraced %s", d2, d1)
			}
			if w.name == "fleet-attack" {
				// Two campaigns of the run seed's fleets beat the guard. The
				// benchmark reports that; it does not fail on it.
				if got := rec.samples["attack.guard_defeats"]; len(got) == 0 || got[0] != 2 {
					t.Errorf("attack.guard_defeats = %v, want 2", got)
				}
			}
		})
	}
}

// TestEmittedMetricsMatchBenchmarkJSON runs the cheapest workload in both
// modes and checks that the metric names of its last output line are the
// end_to_end and per_layer sets of BENCHMARK.json, with their units.
func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, " ") != strings.Join(ours, " ") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	want := map[metricKind]map[string]string{endToEnd: {}, perLayer: {}}
	for _, m := range spec.EndToEnd {
		want[endToEnd][m.Name] = m.Unit
		if d, ok := lookup(m.Name); !ok || d.better != m.Better || d.bound != m.Bound {
			t.Errorf("end_to_end %s: BENCHMARK.json says %s, bound %g; metricDefs %+v", m.Name, m.Better, m.Bound, d)
		}
	}
	for _, m := range spec.PerLayer {
		want[perLayer][m.Name] = m.Unit
		if d, ok := lookup(m.Name); !ok || d.better != m.Better {
			t.Errorf("per_layer %s: BENCHMARK.json says %s; metricDefs %+v", m.Name, m.Better, d)
		}
	}

	var figs workload
	for _, w := range workloads {
		if w.name == "characterize-paper" {
			figs = w
		}
	}
	res, _, err := run(figs, runEnv{seed: 7, repo: repoRoot}, 0, true, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("characterize-paper: correct %v, %d failed: %v", res.Correct, res.Failed, res.Failures)
	}
	for kind, traced := range map[metricKind]bool{endToEnd: false, perLayer: true} {
		line, err := contractLine(res, traced)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if got.Attempted < 1 || !got.Correct {
			t.Errorf("trace %v: %s", traced, line)
		}
		emitted := map[string]string{}
		for name, v := range got.Metrics {
			emitted[name] = v.Unit
		}
		if a, b := sortedPairs(emitted), sortedPairs(want[kind]); a != b {
			t.Errorf("trace %v emits\n%s\nBENCHMARK.json lists\n%s", traced, a, b)
		}
	}
}

func sortedPairs(m map[string]string) string {
	var out []string
	for k, v := range m {
		out = append(out, k+" "+v)
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestQuartilesMatchPython checks the quartiles against values
// statistics.quantiles(data, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1.5, 3.2}, [3]float64{1.075, 2.35, 3.625}},
		{[]float64{1, 4, 5}, [3]float64{1, 4, 5}},
		{[]float64{1, 2.5, 3, 4.5, 6, 7.5, 9}, [3]float64{2.5, 4.5, 7.5}},
	} {
		got := quartiles(c.data)
		for i := range got {
			if d := got[i] - c.want[i]; d > 1e-12 || d < -1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
				break
			}
		}
	}
	s := summarize([]float64{5, 1, 3})
	if s.Median != 3 || s.N != 3 || s.TailPct != 0 {
		t.Errorf("summarize = %+v", s)
	}
}

// TestSelfTimesPartitionTheOp checks that the layers' self times add up to
// the op root when spans nest.
func TestSelfTimesPartitionTheOp(t *testing.T) {
	tr := newTracer()
	root := tr.begin("bench.op")
	tr.do("core.a", func() error {
		return tr.do("sim.b", func() error { return nil })
	})
	tr.do("core.c", func() error { return nil })
	tr.end(root)
	var sum int64
	for _, d := range tr.selfTimes() {
		sum += int64(d)
	}
	if sum != int64(tr.rootTime()) {
		t.Errorf("self times sum to %d ns, op root is %d ns", sum, tr.rootTime())
	}
}
