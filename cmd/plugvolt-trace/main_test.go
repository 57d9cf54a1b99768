package main

import (
	"strings"
	"testing"

	"plugvolt/internal/clitest"
)

// TestRunOutputsIdentical: the guarded run's dwell report and its sample
// timeline are the same bytes at any GOMAXPROCS, and the guard keeps the
// rail out of the unsafe set.
func TestRunOutputsIdentical(t *testing.T) {
	r := clitest.Identical(t, run, 0, false, "-csv", clitest.Out+"/timeline.csv")
	if len(r.Files) != 1 || !strings.Contains(r.Stdout, "unsafe RAIL dwell:     total 0ps,") {
		t.Fatalf("wrote %d files; stdout:\n%s", len(r.Files), r.Stdout)
	}
}

func TestRunExitCodes(t *testing.T) {
	clitest.ExitCodes(t, run, []clitest.Case{
		{"unknown_flag", []string{"-frobnicate"}, 2, "flag provided but not defined"},
		{"positional_args", []string{"stray"}, 2, "unexpected arguments"},
		{"unknown_cpu", []string{"-cpu", "pentium4"}, 1, "pentium4"},
	})
	r := clitest.Exec(t, run, "-version")
	if r.Code != 0 || !strings.Contains(r.Stdout, "plugvolt-trace") {
		t.Fatalf("-version: exit %d, stdout %q", r.Code, r.Stdout)
	}
}
