package main

import (
	"strings"
	"testing"

	"plugvolt/internal/clitest"
)

// TestRunOutputsIdentical runs a successful Plundervolt campaign, a
// VoltJockey campaign against the guard and the annealing search against
// the guard. Each run's results table, exposition, journal and incident
// bundles are the same bytes at any GOMAXPROCS.
func TestRunOutputsIdentical(t *testing.T) {
	outs := []string{"-metrics-out", clitest.Out + "/m.prom", "-events-out", clitest.Out + "/e.jsonl",
		"-incidents-out", clitest.Out + "/incidents.bin"}
	for _, tc := range []struct {
		name   string
		args   []string
		stdout string
	}{
		{"plundervolt_none", []string{"-attack", "plundervolt", "-defense", "none"}, "plundervolt vs none: factored N"},
		{"voltjockey_polling", []string{"-attack", "voltjockey", "-defense", "polling"}, "voltjockey vs polling"},
		{"anneal_polling", []string{"-search", "anneal", "-defense", "polling"}, "redteam vs polling"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := clitest.Identical(t, run, 0, false, append(tc.args, outs...)...)
			if len(r.Files) != 3 || !strings.Contains(r.Stdout, tc.stdout) {
				t.Fatalf("wrote %d files; stdout:\n%s", len(r.Files), r.Stdout)
			}
		})
	}
}

func TestRunExitCodes(t *testing.T) {
	clitest.ExitCodes(t, run, []clitest.Case{
		{"unknown_flag", []string{"-frobnicate"}, 2, "flag provided but not defined"},
		{"positional_args", []string{"stray"}, 2, "unexpected arguments"},
		{"unknown_attack", []string{"-attack", "rowhammer"}, 2, `unknown attack "rowhammer"`},
		{"unknown_defense", []string{"-defense", "firewall"}, 2, `unknown defense "firewall"`},
		{"unknown_search", []string{"-search", "random"}, 2, `unknown search mode "random"`},
		{"anneal_with_attack", []string{"-search", "anneal", "-attack", "voltjockey"}, 2, "-search anneal does not read -attack"},
		{"matrix_with_defense", []string{"-matrix", "-defense", "polling"}, 2, "-matrix does not read -attack or -defense"},
		{"flight_window_without_incidents", []string{"-flight-window", "64"}, 2, "-flight-window is read only with -incidents-out"},
		{"unknown_cpu", []string{"-cpu", "pentium4"}, 1, "pentium4"},
	})
	r := clitest.Exec(t, run, "-version")
	if r.Code != 0 || !strings.Contains(r.Stdout, "plugvolt-attack") {
		t.Fatalf("-version: exit %d, stdout %q", r.Code, r.Stdout)
	}
}
