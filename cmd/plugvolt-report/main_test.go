package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRegeneratesArtifacts regenerates the default bundle at seed 42
// and requires every file to equal the committed artifacts/ byte for byte:
// Figs. 2-4, Table 2, E1, E2, E3 and the index.
func TestRunRegeneratesArtifacts(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-out", out, "-seed", "42"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
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
	for _, args := range [][]string{{"-frobnicate"}, {"stray"}} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); !errors.Is(err, errUsage) {
			t.Fatalf("run(%q) = %v, want a usage error", args, err)
		}
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-version"}, &stdout, &stderr); err != nil || !strings.Contains(stdout.String(), "plugvolt-report") {
		t.Fatalf("-version: err %v, stdout %q", err, stdout.String())
	}
}
