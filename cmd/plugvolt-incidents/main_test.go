package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plugvolt/internal/buildinfo"
	"plugvolt/internal/clitest"
	"plugvolt/internal/flight"
	"plugvolt/internal/sim"
)

// recordIncidents captures one fault incident per detail on a fresh
// recorder, each after an accepted mailbox write of its own depth.
func recordIncidents(details ...string) []*flight.Bundle {
	var now sim.Time
	rec := flight.NewRecorder(func() sim.Time { return now }, 64, 1, "skylake", 42)
	for i, d := range details {
		now += sim.Microsecond
		rec.MailboxWrite(1, -100-i, 0, flight.OutcomeAccepted, 0)
		rec.Trigger(flight.CauseFault, 1, d)
		rec.Seal()
	}
	return rec.Bundles()
}

// writeIncidents frames the bundles with flight.EncodeAll, the format
// behind -incidents-out, and writes them to a fresh file; corrupt flips a
// byte in the last frame first.
func writeIncidents(t *testing.T, bundles []*flight.Bundle, corrupt bool) string {
	t.Helper()
	data, err := flight.EncodeAll(bundles)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt {
		data[len(data)-2] ^= 0xff
	}
	path := filepath.Join(t.TempDir(), "incidents.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRun drives the CLI through run(), the code path main uses minus
// os.Exit, on a five-bundle file (the shape `plugvolt-attack -matrix
// -incidents-out` writes). Every case pins the exit code and the whole of
// stdout; a failing decode or selection prints nothing to stdout.
func TestRun(t *testing.T) {
	five := []string{"attack=a", "attack=b", "attack=c", "attack=d", "attack=e"}
	bundles, other := recordIncidents(five...), recordIncidents("attack=z")
	path, again := writeIncidents(t, bundles, false), writeIncidents(t, recordIncidents(five...), false)
	otherPath, empty := writeIncidents(t, other, false), writeIncidents(t, nil, false)
	corrupt := writeIncidents(t, bundles, true)

	listing := func(i int) string {
		return fmt.Sprintf("%3d  %s\n     %s\n", i, bundles[i-1].Label(), bundles[i-1].Detail)
	}
	diff := func(a, b *flight.Bundle) string {
		var buf bytes.Buffer
		if _, err := flight.Diff(&buf, a, b); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	var all, timeline3, version bytes.Buffer
	for i := range bundles {
		all.WriteString(listing(i + 1))
	}
	if err := bundles[2].WriteTimeline(&timeline3); err != nil {
		t.Fatal(err)
	}
	buildinfo.Fprint(&version, "plugvolt-incidents")

	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{"list", []string{"-list", path}, 0, all.String(), ""},
		{"list_is_default", []string{path}, 0, all.String(), ""},
		{"list_n", []string{"-list", "-n", "2", path}, 0, listing(2), ""},
		{"list_n_past_end", []string{"-list", "-n", "6", path}, 2, "", "bundle 6 out of range (file has 5)"},
		{"list_n_negative", []string{"-list", "-n", "-1", path}, 2, "", "bundle -1 out of range"},
		{"list_empty_file", []string{"-list", empty}, 0, "no incidents\n", ""},
		{"timeline_n", []string{"-timeline", "-n", "3", path}, 0, timeline3.String(), ""},
		{"timeline_n_past_end", []string{"-timeline", "-n", "6", path}, 2, "", "bundle 6 out of range"},
		{"diff_identical", []string{"-diff", path, again}, 0, diff(bundles[0], bundles[0]), ""},
		{"diff_identical_n", []string{"-diff", "-n", "4", path, again}, 0, diff(bundles[3], bundles[3]), ""},
		{"diff_differ", []string{"-diff", path, otherPath}, 1, diff(bundles[0], other[0]), ""},
		{"diff_one_file", []string{"-diff", path}, 2, "", "exactly two files"},
		{"diff_n_past_end", []string{"-diff", "-n", "2", path, otherPath}, 2, "", "bundle 2 out of range (file has 1)"},
		{"diff_missing_file", []string{"-diff", path, filepath.Join(t.TempDir(), "absent.bin")}, 2, "", "absent.bin"},
		{"corrupt_list", []string{"-list", corrupt}, 2, "", "bundle 4:"},
		{"corrupt_list_n", []string{"-list", "-n", "1", corrupt}, 2, "", "bundle 4:"},
		{"corrupt_timeline", []string{"-timeline", corrupt}, 2, "", "bundle 4:"},
		{"corrupt_diff", []string{"-diff", corrupt, path}, 2, "", "bundle 4:"},
		{"version", []string{"-version"}, 0, version.String(), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := clitest.Exec(t, run, tc.args...)
			if r.Code != tc.code || r.Stdout != tc.stdout || !strings.Contains(r.Stderr, tc.stderr) {
				t.Fatalf("exit %d, stdout\n%s\nstderr %q\nwant exit %d, stdout\n%s\nstderr containing %q",
					r.Code, r.Stdout, r.Stderr, tc.code, tc.stdout, tc.stderr)
			}
		})
	}
}
