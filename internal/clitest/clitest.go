// Package clitest drives a command's run(args, stdout, stderr) int seam in
// process, for the cmd packages' tests. Every command under cmd/ wraps such
// a run in its main, so one harness checks their exit codes and their
// outputs, and checks that every file a command writes is a function of its
// flags: the same bytes at any GOMAXPROCS and any -workers value.
package clitest

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// Run is the seam a command's main wraps.
type Run func(args []string, stdout, stderr io.Writer) int

// Result is what one invocation returned and wrote.
type Result struct {
	Code   int
	Stdout string
	Stderr string
	// Files holds every file the invocation wrote into its output
	// directory, by name.
	Files map[string][]byte
}

// Out is the placeholder an argument uses for the invocation's output
// directory, as in "-metrics-out", clitest.Out+"/m.prom".
const Out = "{out}"

// Exec runs the command once, with Out in args replaced by a fresh
// directory whose files it returns.
func Exec(t *testing.T, run Run, args ...string) Result {
	t.Helper()
	return exec(t, run, t.TempDir(), args)
}

func exec(t *testing.T, run Run, dir string, args []string) Result {
	t.Helper()
	full := make([]string, len(args))
	for i, a := range args {
		full[i] = strings.ReplaceAll(a, Out, dir)
	}
	var stdout, stderr bytes.Buffer
	r := Result{Code: run(full, &stdout, &stderr), Files: map[string][]byte{}}
	r.Stdout, r.Stderr = stdout.String(), stderr.String()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		r.Files[e.Name()] = data
	}
	return r
}

// Identical runs args at GOMAXPROCS 1, 2 and 8, crossed with -workers 1, 2
// and 8 when workers is set. Every run must exit with code and print the
// same stdout, and write the same files with the same bytes, into one
// output directory that is emptied between runs (so a path a command
// prints is the same in every run). Identical returns the first run.
func Identical(t *testing.T, run Run, code int, workers bool, args ...string) Result {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "out")
	shapes := [][]string{nil}
	if workers {
		shapes = [][]string{{"-workers", "1"}, {"-workers", "2"}, {"-workers", "8"}}
	}
	var first *Result
	for _, procs := range []int{1, 2, 8} {
		for _, shape := range shapes {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			prev := runtime.GOMAXPROCS(procs)
			r := exec(t, run, dir, append(append([]string(nil), args...), shape...))
			runtime.GOMAXPROCS(prev)
			name := fmt.Sprintf("GOMAXPROCS=%d %q", procs, shape)
			if r.Code != code {
				t.Fatalf("%s: exit %d, want %d (stderr: %s)", name, r.Code, code, r.Stderr)
			}
			if first == nil {
				first = &r
				continue
			}
			if r.Stdout != first.Stdout {
				t.Errorf("%s: stdout differs from the first run", name)
			}
			if len(r.Files) != len(first.Files) {
				t.Errorf("%s: wrote %d files, the first run %d", name, len(r.Files), len(first.Files))
			}
			for f, data := range first.Files {
				if !bytes.Equal(r.Files[f], data) {
					t.Errorf("%s: %s differs from the first run", name, f)
				}
			}
		}
	}
	return *first
}

// Case is one exit-code expectation: running Args exits with Code and
// prints Stderr somewhere on stderr. It is an unnamed struct type, so a
// test's case table can list the fields in order.
type Case = struct {
	Name   string
	Args   []string
	Code   int
	Stderr string
}

// ExitCodes runs each case as a subtest.
func ExitCodes(t *testing.T, run Run, cases []Case) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			r := Exec(t, run, tc.Args...)
			if r.Code != tc.Code {
				t.Fatalf("exit %d, want %d (stderr: %s)", r.Code, tc.Code, r.Stderr)
			}
			if !strings.Contains(r.Stderr, tc.Stderr) {
				t.Fatalf("stderr %q does not mention %q", r.Stderr, tc.Stderr)
			}
		})
	}
}
