package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exec drives the CLI through the run() harness — the same code path main
// uses, minus os.Exit — and returns (exit code, stdout, stderr).
func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

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
			code, stdout, stderr := exec(t, append(args, "-strategy", strategy)...)
			if code != 0 || stdout == "" {
				t.Fatalf("%q -strategy %s: exit %d, %d bytes out (stderr: %s)", args, strategy, code, len(stdout), stderr)
			}
			outs = append(outs, stdout)
		}
		if outs[0] != outs[1] {
			t.Errorf("%q: bisect output differs from sweep", args)
		}
		if args[0] == "-csv" && outs[0] != string(golden) {
			t.Error("-csv differs from artifacts/fig2_skylake.csv")
		}
	}
}

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"unknown_flag", []string{"-frobnicate"}, 2, "flag provided but not defined"},
		{"positional_args", []string{"stray"}, 2, "unexpected arguments"},
		{"unknown_strategy", []string{"-strategy", "random"}, 1, `unknown sweep strategy "random"`},
		{"unknown_strategy_seeds", []string{"-strategy", "random", "-seeds", "2"}, 1, `unknown sweep strategy "random"`},
		{"unknown_cpu", []string{"-cpu", "pentium4"}, 1, "pentium4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := exec(t, tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Fatalf("stderr %q does not mention %q", stderr, tc.stderr)
			}
		})
	}
	code, stdout, _ := exec(t, "-version")
	if code != 0 || !strings.Contains(stdout, "plugvolt-characterize") {
		t.Fatalf("-version: exit %d, stdout %q", code, stdout)
	}
}
