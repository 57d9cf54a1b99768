package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"plugvolt/internal/clitest"
)

// exec drives the CLI through the run() harness — the same code path main
// uses, minus os.Exit — and returns (exit code, stdout, stderr).
func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	r := clitest.Exec(t, run, args...)
	return r.Code, r.Stdout, r.Stderr
}

// tiny is the cheapest real fleet the tests can run end to end.
var tiny = []string{"-machines", "1", "-attack", "none", "-window", "1ms"}

func TestRunExitCodes(t *testing.T) {
	clitest.ExitCodes(t, run, []clitest.Case{
		{"unknown_flag", []string{"-frobnicate"}, 2, "flag provided but not defined"},
		{"positional_args", append(tiny[:len(tiny):len(tiny)], "stray"), 2, "unexpected arguments"},
		{"bad_models", []string{"-machines", "1", "-models", "pentium4"}, 1, "pentium4"},
		{"bad_attack", []string{"-machines", "1", "-attack", "rowhammer"}, 1, "rowhammer"},
		{"zero_machines", []string{"-machines", "0"}, 1, "at least one machine"},
		{"batch_exceeds_machines", []string{"-machines", "2", "-batch", "5"}, 2, "-batch 5 exceeds -machines 2"},
		{"window_with_attack", []string{"-machines", "1", "-attack", "voltjockey", "-window", "1ms"}, 2, "-attack voltjockey does not read -window"},
		{"epochs_with_attack", []string{"-machines", "1", "-attack", "voltjockey", "-epochs", "2"}, 1, "epochs"},
		{"resume_missing", []string{"-machines", "1", "-resume", "/nonexistent/fleet.ckpt"}, 1, "reading checkpoint"},
	})
}

// TestRunOutputsIdentical: a campaign fleet's report and merged exposition
// are the same bytes at any GOMAXPROCS and -workers.
func TestRunOutputsIdentical(t *testing.T) {
	r := clitest.Identical(t, run, 0, true, "-attack", "voltjockey",
		"-out", clitest.Out+"/fleet.json", "-metrics-out", clitest.Out+"/fleet.prom")
	if len(r.Files) != 2 || !strings.Contains(r.Stdout, "attacks: 8 run") {
		t.Fatalf("wrote %d files; stdout:\n%s", len(r.Files), r.Stdout)
	}
}

func TestRunVersion(t *testing.T) {
	code, stdout, _ := exec(t, "-version")
	if code != 0 || !strings.Contains(stdout, "plugvolt-fleet") {
		t.Fatalf("exit %d, stdout %q", code, stdout)
	}
}

// TestRunStreamEngine: the default invocation writes the per-model rollup
// report, and its outputs match a differently-shaped rerun byte for byte.
func TestRunStreamEngine(t *testing.T) {
	dir := t.TempDir()
	outA, promA := filepath.Join(dir, "a.json"), filepath.Join(dir, "a.prom")
	outB, promB := filepath.Join(dir, "b.json"), filepath.Join(dir, "b.prom")
	code, stdout, stderr := exec(t, "-machines", "3", "-attack", "none", "-window", "1ms",
		"-out", outA, "-metrics-out", promA)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "3 machines x 1 epochs = 3 machine-windows") {
		t.Fatalf("summary missing: %q", stdout)
	}
	data, err := os.ReadFile(outA)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		ByModel []struct{ Machines int } `json:"by_model"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.ByModel) != 3 {
		t.Fatalf("report carries %d per-model rows, want 3", len(rep.ByModel))
	}
	if code, _, stderr := exec(t, "-machines", "3", "-attack", "none", "-window", "1ms",
		"-batch", "1", "-workers", "8", "-epochs", "2", "-out", outB, "-metrics-out", promB); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, pair := range [][2]string{{outA, outB}, {promA, promB}} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s and %s differ across execution shapes", pair[0], pair[1])
		}
	}
}

// TestRunResumeWorkflow drives the full CLI resume loop: checkpoint a run,
// resume it with a mismatched seed (exit 1, typed message), then resume it
// correctly and compare against an uninterrupted reference run.
func TestRunResumeWorkflow(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fleet.ckpt")
	ref := filepath.Join(dir, "ref.json")
	got := filepath.Join(dir, "got.json")

	// Uninterrupted reference.
	if code, _, stderr := exec(t, "-machines", "4", "-seed", "9", "-attack", "none",
		"-window", "1ms", "-batch", "2", "-out", ref); code != 0 {
		t.Fatalf("reference run: exit %d: %s", code, stderr)
	}
	// Checkpointed run. The harness cannot deliver a mid-run SIGINT
	// deterministically, so run it to completion — the checkpoint file is
	// rewritten at every batch boundary and ends at the final boundary;
	// resuming from it must be a no-op prefix of the reference.
	if code, _, stderr := exec(t, "-machines", "4", "-seed", "9", "-attack", "none",
		"-window", "1ms", "-batch", "2", "-checkpoint", ckpt); code != 0 {
		t.Fatalf("checkpointed run: exit %d: %s", code, stderr)
	}

	// Mismatched seed: typed rejection, exit 1.
	code, _, stderr := exec(t, "-machines", "4", "-seed", "10", "-attack", "none",
		"-window", "1ms", "-batch", "2", "-resume", ckpt)
	if code != 1 || !strings.Contains(stderr, "does not match") {
		t.Fatalf("mismatched resume: exit %d, stderr %q", code, stderr)
	}

	// Correct resume: completes (instantly — all machines done) with the
	// reference bytes.
	code, _, stderr = exec(t, "-machines", "4", "-seed", "9", "-attack", "none",
		"-window", "1ms", "-batch", "3", "-resume", ckpt, "-out", got)
	if code != 0 {
		t.Fatalf("resume: exit %d: %s", code, stderr)
	}
	a, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("resumed report differs from the uninterrupted reference")
	}
}

// TestRunHaltResume interrupts a checkpointed run with SIGINT: it halts at
// a batch boundary with exit 4, and a resumed run ends with the bytes of an
// uninterrupted one.
func TestRunHaltResume(t *testing.T) {
	// While this channel is registered, a SIGINT never takes the default
	// action (exiting the test binary), even between runs.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	defer signal.Stop(sigc)

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fleet.ckpt")
	ref := filepath.Join(dir, "ref.json")
	got := filepath.Join(dir, "got.json")
	fleet := []string{"-machines", "64", "-attack", "none", "-window", "1ms", "-batch", "1"}
	if code, _, stderr := exec(t, append(fleet, "-out", ref)...); code != 0 {
		t.Fatalf("reference run: exit %d: %s", code, stderr)
	}
	// The checkpoint appears after the first of 64 batches; the signal
	// then lands long before the last.
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
			if _, err := os.Stat(ckpt); err == nil {
				if err := self.Signal(os.Interrupt); err != nil {
					t.Error(err)
				}
				return
			}
		}
	}()
	code, _, stderr := exec(t, append(fleet, "-checkpoint", ckpt)...)
	close(done)
	if code != 4 || !strings.Contains(stderr, "halted at a batch boundary") {
		t.Fatalf("interrupted run: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := exec(t, append(fleet, "-resume", ckpt, "-out", got)...); code != 0 {
		t.Fatalf("resume: exit %d: %s", code, stderr)
	}
	a, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("resumed report differs from the uninterrupted reference")
	}
}
