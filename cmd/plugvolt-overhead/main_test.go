package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plugvolt/internal/clitest"
)

// The -sweep report at the default seed, pinned byte for byte: EXPERIMENTS
// quotes its rail travel and margins, and DefaultGuardConfig's comment its
// Kaby Lake R margin.
const (
	sweepCometLake = `poll-period sweep on Comet Lake (per-core=false); shallowest onset -75 mV -> rail travel 170us

period        pinned cost   worst turnaround rail-race margin
20us               3.500%              740us           +150us
50us               1.400%              770us           +120us
100us              0.700%              820us            +70us
250us              0.280%              970us -80us (RACE LOST)
1ms                0.070%             1.72ms -830us (RACE LOST)
10ms               0.007%            10.72ms -9.83ms (RACE LOST)
`
	sweepKabyLakeR = `poll-period sweep on Kaby Lake R (per-core=false); shallowest onset -45 mV -> rail travel 110us

period        pinned cost   worst turnaround rail-race margin
20us               3.500%              740us            +90us
50us               1.400%              770us            +60us
100us              0.700%              820us            +10us
250us              0.280%              970us -140us (RACE LOST)
1ms                0.070%             1.72ms -890us (RACE LOST)
10ms               0.007%            10.72ms -9.89ms (RACE LOST)
`
	energyReport = `== guard overhead over 500ms (poll 100us, Comet Lake)
   package energy:            7.9851 J
   guard energy (attrib):   0.012224 J
   energy overhead:           0.1531 %   (paper Table 2 runtime overhead: 0.28%)
   runtime overhead:          0.7000 %

== safe undervolt (-65 mV) vs full clamp (0 mV) over 500ms
   clamp energy (cores):      6.9851 J
   safe undervolt:            5.7130 J
   measured savings:           18.21 %
   model closed form:          18.36 %   (savings the clamp deployment forfeits)

== per-governor energy over 500ms
   governor          cores J      avg W
   performance       51.3227    102.645
   powersave          1.6584      3.317
`
)

// TestRunTable2: the default report is Table 2 as artifacts/ carries it,
// and it, its exposition and its journal are the same bytes at any
// GOMAXPROCS. The journal only repeats because Table 2's instruction mixes
// are summed in a fixed order.
func TestRunTable2(t *testing.T) {
	golden := func(name string) string {
		data, err := os.ReadFile(filepath.Join("..", "..", "artifacts", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	r := clitest.Identical(t, run, 0, false,
		"-metrics-out", clitest.Out+"/m.prom", "-events-out", clitest.Out+"/e.jsonl")
	if r.Stdout != golden("table2_overhead.txt") {
		t.Error("stdout differs from artifacts/table2_overhead.txt")
	}
	if len(r.Files) != 2 || !strings.Contains(string(r.Files["e.jsonl"]), "guard_loaded") {
		t.Fatalf("wrote %d files; journal lacks guard_loaded", len(r.Files))
	}
	if r := clitest.Exec(t, run, "-markdown"); r.Code != 0 || r.Stdout != golden("table2_overhead.md") {
		t.Errorf("-markdown: exit %d; stdout differs from artifacts/table2_overhead.md", r.Code)
	}
}

func TestRunSweep(t *testing.T) {
	r := clitest.Identical(t, run, 0, false, "-sweep",
		"-metrics-out", clitest.Out+"/m.prom", "-events-out", clitest.Out+"/e.jsonl")
	if r.Stdout != sweepCometLake || len(r.Files) != 2 {
		t.Fatalf("wrote %d files; stdout:\n%s", len(r.Files), r.Stdout)
	}
	if r := clitest.Exec(t, run, "-sweep", "-cpu", "kabylaker"); r.Code != 0 || r.Stdout != sweepKabyLakeR {
		t.Fatalf("-cpu kabylaker: exit %d, stdout:\n%s", r.Code, r.Stdout)
	}
}

// TestRunEnergy pins the energy report: the guard's energy overhead next
// to the paper's runtime overhead, the safe-undervolt savings against the
// closed form, and the governor curve.
func TestRunEnergy(t *testing.T) {
	if r := clitest.Identical(t, run, 0, false, "-energy"); r.Stdout != energyReport {
		t.Fatalf("stdout:\n%s", r.Stdout)
	}
}

func TestRunExitCodes(t *testing.T) {
	clitest.ExitCodes(t, run, []clitest.Case{
		{"unknown_flag", []string{"-frobnicate"}, 2, "flag provided but not defined"},
		{"positional_args", []string{"stray"}, 2, "unexpected arguments"},
		{"sweep_with_energy", []string{"-sweep", "-energy"}, 2, "-sweep does not read -energy"},
		{"sweep_with_markdown", []string{"-sweep", "-markdown"}, 2, "-sweep does not read -markdown"},
		{"energy_with_markdown", []string{"-energy", "-markdown"}, 2, "-energy does not read -markdown"},
		{"energy_with_percore", []string{"-energy", "-percore"}, 2, "-energy does not read -percore"},
		{"energy_with_metrics", []string{"-energy", "-metrics-out", "m.prom"}, 2, "-energy does not read -metrics-out"},
		{"energy_with_events", []string{"-energy", "-events-out", "e.jsonl"}, 2, "-energy does not read -events-out"},
		{"unknown_cpu", []string{"-cpu", "pentium4"}, 1, "pentium4"},
	})
	r := clitest.Exec(t, run, "-version")
	if r.Code != 0 || !strings.Contains(r.Stdout, "plugvolt-overhead") {
		t.Fatalf("-version: exit %d, stdout %q", r.Code, r.Stdout)
	}
}
