package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plugvolt/internal/clitest"
)

// TestRunStrategiesByteIdentical checks what -strategy promises: bisect
// prints the same bytes as sweep, for the raw grid and for the multi-seed
// spread report. The default -csv grid is also Fig. 2's golden CSV.
func TestRunStrategiesByteIdentical(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "artifacts", "fig2_skylake.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-csv"}, {"-seeds", "3"}} {
		var outs []string
		for _, strategy := range []string{"sweep", "bisect"} {
			r := clitest.Exec(t, run, append(args, "-strategy", strategy)...)
			if r.Code != 0 || r.Stdout == "" {
				t.Fatalf("%q -strategy %s: exit %d, %d bytes out (stderr: %s)", args, strategy, r.Code, len(r.Stdout), r.Stderr)
			}
			outs = append(outs, r.Stdout)
		}
		if outs[0] != outs[1] {
			t.Errorf("%q: bisect output differs from sweep", args)
		}
		if args[0] == "-csv" && outs[0] != string(golden) {
			t.Error("-csv differs from artifacts/fig2_skylake.csv")
		}
	}
}

// TestRunOutputsIdentical: the heatmap, the grid JSON, the exposition and
// the journal are the same bytes at any GOMAXPROCS and -workers, for both
// strategies. The row counters, characterize_row events and row spans are
// published in frequency order, not in the order the workers finish rows.
func TestRunOutputsIdentical(t *testing.T) {
	for _, strategy := range []string{"sweep", "bisect"} {
		t.Run(strategy, func(t *testing.T) {
			r := clitest.Identical(t, run, 0, true, "-cpu", "kabylaker", "-strategy", strategy,
				"-json", clitest.Out+"/grid.json",
				"-metrics-out", clitest.Out+"/m.prom", "-events-out", clitest.Out+"/e.jsonl")
			if len(r.Files) != 3 || !strings.Contains(string(r.Files["e.jsonl"]), `"type":"characterize_row"`) {
				t.Fatalf("wrote %d files; journal:\n%s", len(r.Files), r.Files["e.jsonl"])
			}
		})
	}
}

func TestRunExitCodes(t *testing.T) {
	clitest.ExitCodes(t, run, []clitest.Case{
		{"unknown_flag", []string{"-frobnicate"}, 2, "flag provided but not defined"},
		{"positional_args", []string{"stray"}, 2, "unexpected arguments"},
		{"classes_with_csv", []string{"-classes", "-csv"}, 2, "-classes does not read -csv"},
		{"classes_with_seeds", []string{"-classes", "-seeds", "2"}, 2, "-classes does not read -seeds"},
		{"seeds_with_metrics", []string{"-seeds", "2", "-metrics-out", "m.prom"}, 2, "-seeds does not read -metrics-out"},
		{"unknown_strategy", []string{"-strategy", "random"}, 1, `unknown sweep strategy "random"`},
		{"unknown_strategy_seeds", []string{"-strategy", "random", "-seeds", "2"}, 1, `unknown sweep strategy "random"`},
		{"unknown_cpu", []string{"-cpu", "pentium4"}, 1, "pentium4"},
	})
	r := clitest.Exec(t, run, "-version")
	if r.Code != 0 || !strings.Contains(r.Stdout, "plugvolt-characterize") {
		t.Fatalf("-version: exit %d, stdout %q", r.Code, r.Stdout)
	}
}
