package golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plugvolt"
	"plugvolt/internal/core"
	"plugvolt/internal/report"
)

// update rewrites the golden artifacts from a fresh sweep:
//
//	go test ./internal/golden -run Golden -update
//
// (test-binary flags must follow the package path, or `go test` applies
// them to the current-directory package instead).
var update = flag.Bool("update", false, "rewrite the fig{2,3,4} golden artifacts from a fresh sweep")

// goldenSeed matches plugvolt-report's default; the goldens are that
// bundle's fig* files.
const goldenSeed = 42

var figures = []struct {
	model string
	base  string
}{
	{"skylake", "fig2_skylake"},
	{"kabylaker", "fig3_kabylaker"},
	{"cometlake", "fig4_cometlake"},
}

func artifactsDir() string { return filepath.Join("..", "..", "artifacts") }

func sweep(t *testing.T, model string, workers int) *core.Grid {
	t.Helper()
	sys, err := plugvolt.NewSystem(model, goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := plugvolt.QuickSweep()
	cfg.Workers = workers
	g, err := sys.Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGoldenFigures re-derives the three figure grids with 1, 2 and 8
// workers and asserts bit-for-bit equality with each other and with the
// checked-in artifacts. -update regenerates the artifacts instead.
func TestGoldenFigures(t *testing.T) {
	for _, fig := range figures {
		fig := fig
		t.Run(fig.base, func(t *testing.T) {
			grids := map[int]*core.Grid{}
			jsons := map[int][]byte{}
			for _, w := range []int{1, 2, 8} {
				g := sweep(t, fig.model, w)
				data, err := g.JSON()
				if err != nil {
					t.Fatal(err)
				}
				grids[w], jsons[w] = g, data
			}
			for _, w := range []int{2, 8} {
				if !bytes.Equal(jsons[1], jsons[w]) {
					t.Fatalf("workers=%d vs workers=1: %s", w, DiffGrids(grids[1], grids[w]))
				}
			}
			// Every row has a fault band, checked before -update can bless it.
			if n, rows := len(grids[1].UnsafeSet().OnsetMV), len(grids[1].FreqsKHz); n != rows {
				t.Fatalf("%d of %d rows have an unsafe region", n, rows)
			}

			jsonPath := filepath.Join(artifactsDir(), fig.base+".json")
			csvPath := filepath.Join(artifactsDir(), fig.base+".csv")
			if *update {
				writeGolden(t, fig.base, grids[1], jsons[1])
			}

			golden, err := LoadGridJSON(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantJSON, jsons[1]) {
				d := DiffGrids(golden, grids[1])
				if d == "" {
					d = "JSON bytes differ but grids are equal (formatting drift — rerun -update)"
				}
				t.Fatalf("fresh sweep diverges from %s: %s", jsonPath, d)
			}

			goldenCSV, err := LoadGridCSV(csvPath)
			if err != nil {
				t.Fatal(err)
			}
			if d := DiffCells(goldenCSV, grids[1]); d != "" {
				t.Fatalf("fresh sweep diverges from %s: %s", csvPath, d)
			}
		})
	}
}

// writeGolden rewrites all three renderings of one figure so the bundle
// stays self-consistent (the same files plugvolt-report produces).
func writeGolden(t *testing.T, base string, g *core.Grid, js []byte) {
	t.Helper()
	var txt, csv strings.Builder
	if err := report.WriteHeatmap(&txt, g); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteGridCSV(&csv, g); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		base + ".json": js,
		base + ".csv":  []byte(csv.String()),
		base + ".txt":  []byte(txt.String()),
	} {
		if err := os.WriteFile(filepath.Join(artifactsDir(), name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("rewrote golden %s.{json,csv,txt}", base)
}

// TestGoldenLoadersRejectCorruption exercises the loader error paths the
// conformance suite depends on: a corrupted golden must fail loudly, not
// silently pass the diff.
func TestGoldenLoadersRejectCorruption(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name string
		csv  string
	}{
		{"bad header", "freq,off,class\n"},
		{"bad field count", "freq_khz,offset_mv,class\n1000,-5\n"},
		{"bad freq", "freq_khz,offset_mv,class\nx,-5,safe\n"},
		{"bad offset", "freq_khz,offset_mv,class\n1000,x,safe\n"},
		{"bad class", "freq_khz,offset_mv,class\n1000,-5,melted\n"},
		{"duplicate cell", "freq_khz,offset_mv,class\n1000,-5,safe\n1000,-5,safe\n"},
		{"ragged row", "freq_khz,offset_mv,class\n1000,-5,safe\n1000,-10,safe\n2000,-5,safe\n"},
		{"positive offsets", "freq_khz,offset_mv,class\n1000,5,safe\n"},
	}
	for _, c := range cases {
		if _, err := LoadGridCSV(write("bad.csv", c.csv)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := LoadGridCSV(filepath.Join(dir, "absent.csv")); err == nil {
		t.Error("missing CSV accepted")
	}
	if _, err := LoadGridJSON(write("bad.json", "{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := LoadGridJSON(write("empty.json", "{}")); err == nil {
		t.Error("structurally invalid JSON grid accepted")
	}
	if _, err := LoadGridJSON(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing JSON accepted")
	}
}

// TestGoldenCSVRoundTrip: a real artifact survives the CSV parse and
// matches its JSON sibling cell for cell — the two renderings describe the
// same grid.
func TestGoldenCSVRoundTrip(t *testing.T) {
	for _, fig := range figures {
		j, err := LoadGridJSON(filepath.Join(artifactsDir(), fig.base+".json"))
		if err != nil {
			t.Fatal(err)
		}
		c, err := LoadGridCSV(filepath.Join(artifactsDir(), fig.base+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if d := DiffCells(j, c); d != "" {
			t.Fatalf("%s: JSON and CSV renderings disagree: %s", fig.base, d)
		}
	}
}

// TestDiffReportsFirstDivergentCell pins the failure message format the
// satellite task asks for.
func TestDiffReportsFirstDivergentCell(t *testing.T) {
	a, err := LoadGridJSON(filepath.Join(artifactsDir(), "fig2_skylake.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadGridJSON(filepath.Join(artifactsDir(), "fig2_skylake.json"))
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffGrids(a, b); d != "" {
		t.Fatalf("identical grids diff: %s", d)
	}
	b.Cells[3][7] = (b.Cells[3][7] + 1) % 3
	d := DiffCells(a, b)
	want := "cell ("
	if !strings.Contains(d, want) || !strings.Contains(d, "kHz") || !strings.Contains(d, "mV") {
		t.Fatalf("diff %q does not name the divergent (freq, offset) cell", d)
	}
	b.Seed++
	if d := DiffGrids(a, b); !strings.Contains(d, "seed") {
		t.Fatalf("metadata diff %q does not name the field", d)
	}
}
