package report

import (
	"strings"
	"testing"

	"plugvolt/internal/attack"
	"plugvolt/internal/core"
	"plugvolt/internal/spec"
)

func testGrid() *core.Grid {
	g := &core.Grid{
		Model:      "Test Lake",
		Microcode:  "0x1",
		Iterations: 1000,
		FreqsKHz:   []int{1_000_000, 2_000_000},
		OffsetsMV:  []int{-1, -2, -3, -4},
		Cells: [][]core.Classification{
			{core.Safe, core.Safe, core.Fault, core.Crash},
			{core.Safe, core.Fault, core.Fault, core.Crash},
		},
	}
	return g
}

func TestWriteHeatmap(t *testing.T) {
	var sb strings.Builder
	if err := WriteHeatmap(&sb, testGrid()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Test Lake",
		"1.0 GHz |..x#|",
		"2.0 GHz |.xx#|",
		"onset   -3 mV",
		"onset   -2 mV",
		"crash   -4 mV",
		"maximal safe state: -1 mV",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("heatmap missing %q:\n%s", want, out)
		}
	}
}

func TestWriteHeatmapInvalidGrid(t *testing.T) {
	var sb strings.Builder
	if err := WriteHeatmap(&sb, &core.Grid{}); err == nil {
		t.Fatal("invalid grid rendered")
	}
}

func TestWriteGridCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteGridCSV(&sb, testGrid()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "freq_khz,offset_mv,class" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) != 1+2*4 {
		t.Fatalf("csv rows %d", len(lines))
	}
	if !strings.Contains(out, "1000000,-3,fault") {
		t.Fatalf("missing cell row:\n%s", out)
	}
	if err := WriteGridCSV(&sb, &core.Grid{}); err == nil {
		t.Fatal("invalid grid rendered")
	}
}

func TestWriteTable2Formats(t *testing.T) {
	tab := &spec.Table2{
		Model: "Comet Lake",
		Rows: []spec.Table2Row{
			{Benchmark: "503.bwaves_r", BaseWithout: 628.59, BaseWith: 628.9,
				BaseSlowdownPct: 0.05, PeakWithout: 604.21, PeakWith: 606.84, PeakSlowdownPct: 0.43},
		},
		MeanAbsBasePct: 0.3, MeanAbsPeakPct: 0.25, MeanAbsPct: 0.275,
		DirectOverheadPct: 0.31,
	}
	var sb strings.Builder
	WriteTable2(&sb, tab)
	out := sb.String()
	for _, want := range []string{"Comet Lake", "503.bwaves_r", "628.59", "0.28%", "0.310%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	WriteTable2Markdown(&sb, tab)
	md := sb.String()
	if !strings.Contains(md, "| 503.bwaves_r |") || !strings.Contains(md, "**0.28%**") {
		t.Fatalf("markdown table malformed:\n%s", md)
	}
}

func TestWriteAttackResults(t *testing.T) {
	var sb strings.Builder
	WriteAttackResults(&sb, []*attack.Result{
		{Attack: "plundervolt", Defense: "none", Model: "Sky Lake", Succeeded: true, Attempts: 3},
		{Attack: "plundervolt", Defense: "polling (this work)", Model: "Sky Lake"},
	})
	out := sb.String()
	if !strings.Contains(out, "SUCCESS") || !strings.Contains(out, "defeated") {
		t.Fatalf("attack table outcomes missing:\n%s", out)
	}
}

func TestWriteDefenseMatrixAndTurnaround(t *testing.T) {
	var sb strings.Builder
	WriteDefenseMatrix(&sb, []DefenseProperty{
		{Defense: "polling (this work)", PreventsFaults: true, AllowsBenignDVFS: true, SurvivesStepping: true},
		{Defense: "access-control", PreventsFaults: true},
	})
	out := sb.String()
	if !strings.Contains(out, "polling (this work)") || !strings.Contains(out, "yes") || !strings.Contains(out, "no") {
		t.Fatalf("matrix malformed:\n%s", out)
	}
	sb.Reset()
	WriteTurnaround(&sb, []TurnaroundRow{{Deployment: "kernel module", WorstCase: "120us", Note: "poll + VR"}})
	if !strings.Contains(sb.String(), "kernel module") {
		t.Fatal("turnaround table malformed")
	}
}

func TestWriteOnsetCurves(t *testing.T) {
	var sb strings.Builder
	curves := []OnsetCurve{
		{Label: "imul", Grid: testGrid()},
		{Label: "aes", Grid: testGrid()},
	}
	if err := WriteOnsetCurves(&sb, curves); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"imul", "aes", "1.0", "2.0", "-3", "-2"} {
		if !strings.Contains(out, want) {
			t.Errorf("curves missing %q:\n%s", want, out)
		}
	}
	if err := WriteOnsetCurves(&sb, nil); err == nil {
		t.Fatal("empty curves accepted")
	}
	bad := []OnsetCurve{{Label: "x", Grid: &core.Grid{}}}
	if err := WriteOnsetCurves(&sb, bad); err == nil {
		t.Fatal("invalid grid accepted")
	}
	// All-safe grid renders "-" cells rather than failing.
	safe := testGrid()
	for fi := range safe.Cells {
		for oi := range safe.Cells[fi] {
			safe.Cells[fi][oi] = core.Safe
		}
	}
	sb.Reset()
	if err := WriteOnsetCurves(&sb, []OnsetCurve{{Label: "quiet", Grid: safe}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "-\n") && !strings.Contains(sb.String(), "- ") {
		t.Fatalf("missing dash cells:\n%s", sb.String())
	}
}

func TestWriteOnsetSpreads(t *testing.T) {
	var sb strings.Builder
	WriteOnsetSpreads(&sb, []core.OnsetSpread{
		{FreqKHz: 3_200_000, MinMV: -120, MaxMV: -110, MeanMV: -115, StdMV: 4.1, Runs: 3},
	})
	out := sb.String()
	if !strings.Contains(out, "3.2") || !strings.Contains(out, "-120") || !strings.Contains(out, "4.10") {
		t.Fatalf("spreads table malformed:\n%s", out)
	}
}
