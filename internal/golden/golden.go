// Package golden loads and diffs the checked-in characterization artifacts
// (artifacts/fig{2,3,4}_*.{csv,json}) so the conformance suite can assert
// that a fresh sweep at any worker count reproduces the published grids bit
// for bit. Failures point at the first divergent (frequency, offset) cell
// rather than dumping whole grids.
package golden

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"plugvolt/internal/core"
)

// LoadGridJSON reads and validates a golden grid in Grid.JSON form.
func LoadGridJSON(path string) (*core.Grid, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := core.GridFromJSON(data)
	if err != nil {
		return nil, fmt.Errorf("golden: %s: %w", path, err)
	}
	return g, nil
}

// LoadGridCSV parses report.WriteGridCSV output (freq_khz,offset_mv,class
// per line) back into a grid. CSV carries no metadata, so Model/Seed/
// Iterations/Reboots are zero; compare it with DiffCells, not DiffGrids.
func LoadGridCSV(path string) (*core.Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	g := &core.Grid{}
	cells := map[int]map[int]core.Classification{}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if line == 1 {
			if text != "freq_khz,offset_mv,class" {
				return nil, fmt.Errorf("golden: %s: unexpected header %q", path, text)
			}
			continue
		}
		if text == "" {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("golden: %s:%d: %d fields", path, line, len(parts))
		}
		freq, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("golden: %s:%d: freq %q", path, line, parts[0])
		}
		off, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("golden: %s:%d: offset %q", path, line, parts[1])
		}
		cls, err := parseClass(parts[2])
		if err != nil {
			return nil, fmt.Errorf("golden: %s:%d: %w", path, line, err)
		}
		if cells[freq] == nil {
			cells[freq] = map[int]core.Classification{}
			g.FreqsKHz = append(g.FreqsKHz, freq)
		}
		if _, dup := cells[freq][off]; dup {
			return nil, fmt.Errorf("golden: %s:%d: duplicate cell (%d, %d)", path, line, freq, off)
		}
		cells[freq][off] = cls
		if len(g.FreqsKHz) == 1 {
			// First row defines the offset axis; later rows must match it.
			g.OffsetsMV = append(g.OffsetsMV, off)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g.Cells = make([][]core.Classification, len(g.FreqsKHz))
	for fi, freq := range g.FreqsKHz {
		row := make([]core.Classification, len(g.OffsetsMV))
		for oi, off := range g.OffsetsMV {
			cls, ok := cells[freq][off]
			if !ok {
				return nil, fmt.Errorf("golden: %s: missing cell (%d, %d)", path, freq, off)
			}
			row[oi] = cls
		}
		if len(cells[freq]) != len(g.OffsetsMV) {
			return nil, fmt.Errorf("golden: %s: row %d kHz has %d cells, want %d",
				path, freq, len(cells[freq]), len(g.OffsetsMV))
		}
		g.Cells[fi] = row
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("golden: %s: %w", path, err)
	}
	return g, nil
}

func parseClass(s string) (core.Classification, error) {
	for _, c := range []core.Classification{core.Safe, core.Fault, core.Crash} {
		if s == c.String() {
			return c, nil
		}
	}
	return 0, fmt.Errorf("golden: unknown class %q", s)
}

// DiffCells compares the axes and cell data of two grids and returns a
// description of the first divergence ("" when identical). Metadata is
// ignored, which is what CSV goldens support.
func DiffCells(want, got *core.Grid) string {
	if d := diffAxis("frequency", want.FreqsKHz, got.FreqsKHz); d != "" {
		return d
	}
	if d := diffAxis("offset", want.OffsetsMV, got.OffsetsMV); d != "" {
		return d
	}
	for fi, f := range want.FreqsKHz {
		for oi, off := range want.OffsetsMV {
			if want.Cells[fi][oi] != got.Cells[fi][oi] {
				return fmt.Sprintf("cell (%d kHz, %d mV): golden %s, fresh %s",
					f, off, want.Cells[fi][oi], got.Cells[fi][oi])
			}
		}
	}
	return ""
}

// DiffGrids compares everything DiffCells does plus the grid metadata.
func DiffGrids(want, got *core.Grid) string {
	switch {
	case want.Model != got.Model:
		return fmt.Sprintf("model: golden %q, fresh %q", want.Model, got.Model)
	case want.Microcode != got.Microcode:
		return fmt.Sprintf("microcode: golden %q, fresh %q", want.Microcode, got.Microcode)
	case want.Seed != got.Seed:
		return fmt.Sprintf("seed: golden %d, fresh %d", want.Seed, got.Seed)
	case want.Iterations != got.Iterations:
		return fmt.Sprintf("iterations: golden %d, fresh %d", want.Iterations, got.Iterations)
	case want.Reboots != got.Reboots:
		return fmt.Sprintf("reboots: golden %d, fresh %d", want.Reboots, got.Reboots)
	}
	return DiffCells(want, got)
}

func diffAxis(name string, want, got []int) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%s axis: golden %d entries, fresh %d", name, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("%s axis[%d]: golden %d, fresh %d", name, i, want[i], got[i])
		}
	}
	return ""
}
