package main

import (
	"encoding/json"
	"strings"
	"testing"

	"plugvolt/internal/clitest"
	"plugvolt/internal/flight"
)

// every requests each output file the CLI can write.
var every = []string{
	"-metrics-out", clitest.Out + "/m.prom", "-events-out", clitest.Out + "/e.jsonl",
	"-trace", clitest.Out + "/rail.csv", "-trace-out", clitest.Out + "/spans.json",
	"-folded-out", clitest.Out + "/spans.folded", "-incidents-out", clitest.Out + "/incidents.bin",
}

// TestRunOutputsIdentical: the guarded run with the SLO watchdog writes
// every output, and each is the same bytes at any GOMAXPROCS. The span
// outputs and the watchdog read the stored spans, so the trace's span count
// and the watchdog's stats line are pinned: a run that stores no spans
// exports an empty trace and reports polls=0.
func TestRunOutputsIdentical(t *testing.T) {
	r := clitest.Identical(t, run, 0, false, append([]string{"-window", "10ms", "-slo"}, every...)...)
	if len(r.Files) != 6 {
		t.Fatalf("wrote %d files, want 6", len(r.Files))
	}
	for _, want := range []string{"EXECUTE-thread faults: 0", "-- SLO watchdog", "-- E3:",
		"  polls=400 interventions=18 writes(accepted=36 unsafe=18 guard=18) faults=0\n"} {
		if !strings.Contains(r.Stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, r.Stdout)
		}
	}
	var trace struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(r.Files["spans.json"], &trace); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans != 1401 {
		t.Errorf("-trace-out holds %d spans, want 1401", spans)
	}
	if !strings.Contains(string(r.Files["spans.folded"]), "guard_poll") {
		t.Errorf("-folded-out has no guard_poll stack:\n%s", r.Files["spans.folded"])
	}
}

// TestRunCrashWritesEveryOutput: at a 1 ms poll the attack crashes the
// victim. The run still writes every requested file, its incidents hold
// the crash bundle, and it exits 4, not the usage-error code.
func TestRunCrashWritesEveryOutput(t *testing.T) {
	r := clitest.Identical(t, run, 4, false, append([]string{"-poll", "1ms", "-window", "20ms"}, every...)...)
	if len(r.Files) != 6 || !strings.Contains(r.Stdout, "MACHINE CRASHED") {
		t.Fatalf("wrote %d files; stdout:\n%s", len(r.Files), r.Stdout)
	}
	bundles, err := flight.DecodeAll(r.Files["incidents.bin"])
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) == 0 || bundles[0].Cause != string(flight.CauseCrash) {
		t.Fatalf("incidents: %d bundles, want a crash bundle first", len(bundles))
	}
}

func TestRunExitCodes(t *testing.T) {
	clitest.ExitCodes(t, run, []clitest.Case{
		{"unknown_flag", []string{"-frobnicate"}, 2, "flag provided but not defined"},
		{"positional_args", []string{"stray"}, 2, "unexpected arguments"},
		{"flight_window_without_incidents", []string{"-flight-window", "64"}, 2, "-flight-window is read only with -incidents-out"},
		{"unknown_cpu", []string{"-cpu", "pentium4"}, 1, "pentium4"},
		// A 25 us poll costs the guard more than its 250 mW energy budget.
		{"slo_violation", []string{"-poll", "25us", "-window", "10ms", "-slo"}, 3, ""},
	})
	r := clitest.Exec(t, run, "-version")
	if r.Code != 0 || !strings.Contains(r.Stdout, "plugvolt-guard") {
		t.Fatalf("-version: exit %d, stdout %q", r.Code, r.Stdout)
	}
}
