package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plugvolt/internal/clitest"
)

// TestRunRegeneratesArtifacts regenerates the default bundle at seed 42
// and requires every file to equal the committed artifacts/ byte for byte:
// Figs. 2-4, Table 2, E1, E2, E3 and the index.
func TestRunRegeneratesArtifacts(t *testing.T) {
	out := t.TempDir()
	if r := clitest.Exec(t, run, "-out", out, "-seed", "42"); r.Code != 0 {
		t.Fatalf("exit %d (stderr: %s)", r.Code, r.Stderr)
	}
	golden := filepath.Join("..", "..", "artifacts")
	want, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 16 || len(got) != len(want) {
		t.Fatalf("bundle has %d files, artifacts/ %d, want 16 each", len(got), len(want))
	}
	for _, e := range want {
		w, err := os.ReadFile(filepath.Join(golden, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(out, e.Name()))
		if err != nil {
			t.Fatalf("bundle is missing %s: %v", e.Name(), err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from artifacts/%s", e.Name(), e.Name())
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	clitest.ExitCodes(t, run, []clitest.Case{
		{"unknown_flag", []string{"-frobnicate"}, 2, "flag provided but not defined"},
		{"positional_args", []string{"stray"}, 2, "unexpected arguments"},
	})
	r := clitest.Exec(t, run, "-version")
	if r.Code != 0 || !strings.Contains(r.Stdout, "plugvolt-report") {
		t.Fatalf("-version: exit %d, stdout %q", r.Code, r.Stdout)
	}
}
