package main

import (
	"bytes"
	"encoding/json"
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

// tiny is the cheapest real fleet the tests can run end to end.
var tiny = []string{"-machines", "1", "-attack", "none", "-window", "1ms"}

func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"unknown_flag", []string{"-frobnicate"}, 2, "flag provided but not defined"},
		{"positional_args", append(tiny[:len(tiny):len(tiny)], "stray"), 2, "unexpected arguments"},
		{"bad_models", []string{"-machines", "1", "-models", "pentium4"}, 1, "pentium4"},
		{"bad_attack", []string{"-machines", "1", "-attack", "rowhammer"}, 1, "rowhammer"},
		{"zero_machines", []string{"-machines", "0"}, 1, "at least one machine"},
		{"batch_exceeds_machines", []string{"-machines", "2", "-batch", "5"}, 2, "-batch 5 exceeds -machines 2"},
		{"epochs_with_attack", []string{"-machines", "1", "-attack", "voltjockey", "-epochs", "2"}, 1, "epochs"},
		{"resume_missing", []string{"-machines", "1", "-resume", "/nonexistent/fleet.ckpt"}, 1, "reading checkpoint"},
		{"bad_listen", append(tiny[:len(tiny):len(tiny)], "-listen", "999.999.999.999:0"), 1, "-listen"},
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

// TestRunLiveGauges: -listen serves the fleet progress gauges over HTTP
// while never touching the report exposition.
func TestRunLiveGauges(t *testing.T) {
	dir := t.TempDir()
	prom := filepath.Join(dir, "fleet.prom")
	// Occupy a port first so the address is real; run() prints the bound
	// address to stderr. Use :0 to let the kernel pick.
	code, _, stderr := exec(t, "-machines", "2", "-attack", "none", "-window", "1ms",
		"-batch", "1", "-listen", "127.0.0.1:0", "-metrics-out", prom)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "serving live progress on") {
		t.Fatalf("no listen banner: %q", stderr)
	}
	data, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "fleet_stream_") {
		t.Fatal("live progress gauges leaked into the report exposition")
	}
}
