// Package report renders the reproduction's figures and tables: the
// safe/unsafe characterization heatmaps of Figs. 2-4 (ASCII and CSV), the
// Table 2 overhead table (text and markdown), and the attack-vs-defense
// matrices of experiments E1/E2.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"plugvolt/internal/attack"
	"plugvolt/internal/core"
	"plugvolt/internal/spec"
)

// cell glyphs for the characterization heatmap.
const (
	glyphSafe  = '.'
	glyphFault = 'x'
	glyphCrash = '#'
)

// WriteHeatmap renders a Fig. 2/3/4-style map: frequency rows (ascending
// down the page), offset columns (shallow left to deep right), one glyph
// per grid cell, with onset/crash annotations per row.
func WriteHeatmap(w io.Writer, g *core.Grid) error {
	if err := g.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "Safe/unsafe characterization — %s (microcode %s), %d imuls/point, seed %d\n",
		g.Model, g.Microcode, g.Iterations, g.Seed)
	fmt.Fprintf(w, "offset axis: %d mV (left) .. %d mV (right), '%c'=safe '%c'=fault '%c'=crash\n\n",
		g.OffsetsMV[0], g.OffsetsMV[len(g.OffsetsMV)-1], glyphSafe, glyphFault, glyphCrash)
	for fi, f := range g.FreqsKHz {
		var sb strings.Builder
		for _, cl := range g.Cells[fi] {
			switch cl {
			case core.Safe:
				sb.WriteRune(glyphSafe)
			case core.Fault:
				sb.WriteRune(glyphFault)
			default:
				sb.WriteRune(glyphCrash)
			}
		}
		onset, hasOnset := g.OnsetMV(f)
		crash, hasCrash := g.CrashMV(f)
		ann := ""
		if hasOnset {
			ann = fmt.Sprintf(" onset %4d mV", onset)
		}
		if hasCrash {
			ann += fmt.Sprintf(", crash %4d mV", crash)
		}
		fmt.Fprintf(w, "%4.1f GHz |%s|%s\n", float64(f)/1e6, sb.String(), ann)
	}
	msv := g.MaximalSafeOffsetMV(0)
	fmt.Fprintf(w, "\nmaximal safe state: %d mV (safe at every frequency); reboots during sweep: %d\n",
		msv, g.Reboots)
	return nil
}

// WriteGridCSV emits the raw grid for external plotting: one line per cell,
// freq_khz,offset_mv,class.
func WriteGridCSV(w io.Writer, g *core.Grid) error {
	if err := g.Validate(); err != nil {
		return err
	}
	fmt.Fprintln(w, "freq_khz,offset_mv,class")
	for fi, f := range g.FreqsKHz {
		for oi, off := range g.OffsetsMV {
			fmt.Fprintf(w, "%d,%d,%s\n", f, off, g.Cells[fi][oi])
		}
	}
	return nil
}

// WriteTable2 renders the regenerated Table 2 with the paper's column
// structure.
func WriteTable2(w io.Writer, t *spec.Table2) {
	fmt.Fprintf(w, "Table 2 — polling countermeasure overhead on %s (SPECrate2017 stand-ins)\n\n", t.Model)
	fmt.Fprintf(w, "%-17s %12s %12s %10s %12s %12s %10s\n",
		"Benchmark", "Base w/o", "Base w/", "Slowdown", "Peak w/o", "Peak w/", "Slowdown")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-17s %12.2f %12.2f %9.2f%% %12.2f %12.2f %9.2f%%\n",
			r.Benchmark, r.BaseWithout, r.BaseWith, r.BaseSlowdownPct,
			r.PeakWithout, r.PeakWith, r.PeakSlowdownPct)
	}
	fmt.Fprintf(w, "\nmean |slowdown|: base %.2f%%, peak %.2f%%, overall %.2f%% (paper reports 0.28%%)\n",
		t.MeanAbsBasePct, t.MeanAbsPeakPct, t.MeanAbsPct)
	fmt.Fprintf(w, "direct polling cost on pinned core: %.3f%%\n", t.DirectOverheadPct)
}

// WriteTable2Markdown renders Table 2 as a markdown table (for
// EXPERIMENTS.md).
func WriteTable2Markdown(w io.Writer, t *spec.Table2) {
	fmt.Fprintf(w, "| Benchmark | Base w/o | Base w/ | Slowdown | Peak w/o | Peak w/ | Slowdown |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|\n")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s | %.2f | %.2f | %.2f%% | %.2f | %.2f | %.2f%% |\n",
			r.Benchmark, r.BaseWithout, r.BaseWith, r.BaseSlowdownPct,
			r.PeakWithout, r.PeakWith, r.PeakSlowdownPct)
	}
	fmt.Fprintf(w, "\nMean |slowdown|: **%.2f%%** (paper: 0.28%%)\n", t.MeanAbsPct)
}

// WriteAttackResults renders an E1-style effectiveness table.
func WriteAttackResults(w io.Writer, results []*attack.Result) {
	fmt.Fprintf(w, "%-12s %-30s %-12s %-10s %8s %8s %8s %8s\n",
		"Attack", "Defense", "CPU", "Outcome", "Attempts", "Writes", "Blocked", "Faults")
	for _, r := range results {
		outcome := "defeated"
		if r.Succeeded {
			outcome = "SUCCESS"
		}
		fmt.Fprintf(w, "%-12s %-30s %-12s %-10s %8d %8d %8d %8d\n",
			r.Attack, r.Defense, r.Model, outcome, r.Attempts, r.MailboxWrites,
			r.BlockedWrites, r.FaultsObserved)
	}
}

// DefenseProperty is one row of the E2 comparison matrix (the qualitative
// columns the paper argues in Secs. 1 and 5).
type DefenseProperty struct {
	Defense          string
	PreventsFaults   bool
	AllowsBenignDVFS bool
	SurvivesStepping bool
	HardwareCapable  bool
}

// WriteDefenseMatrix renders the qualitative comparison.
func WriteDefenseMatrix(w io.Writer, rows []DefenseProperty) {
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	fmt.Fprintf(w, "%-32s %-16s %-18s %-20s %-16s\n",
		"Defense", "Prevents faults", "Benign DVFS OK", "Survives stepping", "HW-deployable")
	for _, r := range rows {
		fmt.Fprintf(w, "%-32s %-16s %-18s %-20s %-16s\n",
			r.Defense, yn(r.PreventsFaults), yn(r.AllowsBenignDVFS),
			yn(r.SurvivesStepping), yn(r.HardwareCapable))
	}
}

// TurnaroundRow is one row of the E3 turnaround comparison.
type TurnaroundRow struct {
	Deployment string
	// WorstCase is a human-readable worst-case unsafe-state dwell bound.
	WorstCase string
	// Note explains the bound.
	Note string
}

// WriteTurnaround renders the E3 table.
func WriteTurnaround(w io.Writer, rows []TurnaroundRow) {
	fmt.Fprintf(w, "%-28s %-18s %s\n", "Deployment", "Worst-case window", "Why")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %-18s %s\n", r.Deployment, r.WorstCase, r.Note)
	}
}

// OnsetCurve labels a grid for curve comparison (models or classes).
type OnsetCurve struct {
	Label string
	Grid  *core.Grid
}

// WriteOnsetCurves tabulates fault-onset offsets against frequency for
// several characterizations side by side — the combined Figs. 2-4 view, or
// a per-instruction-class comparison.
func WriteOnsetCurves(w io.Writer, curves []OnsetCurve) error {
	if len(curves) == 0 {
		return fmt.Errorf("report: no curves")
	}
	// Union of frequencies, ascending.
	freqSet := map[int]bool{}
	for _, c := range curves {
		if err := c.Grid.Validate(); err != nil {
			return fmt.Errorf("report: curve %q: %w", c.Label, err)
		}
		for _, f := range c.Grid.FreqsKHz {
			freqSet[f] = true
		}
	}
	freqs := make([]int, 0, len(freqSet))
	for f := range freqSet {
		freqs = append(freqs, f)
	}
	sort.Ints(freqs)

	fmt.Fprintf(w, "%-10s", "GHz")
	for _, c := range curves {
		fmt.Fprintf(w, " %14s", c.Label)
	}
	fmt.Fprintln(w, "   (fault onset, mV)")
	for _, f := range freqs {
		fmt.Fprintf(w, "%-10.1f", float64(f)/1e6)
		for _, c := range curves {
			if on, ok := c.Grid.OnsetMV(f); ok {
				fmt.Fprintf(w, " %14d", on)
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WriteOnsetSpreads tabulates run-to-run onset variation (multi-seed
// characterization), the measured basis for the guard margin.
func WriteOnsetSpreads(w io.Writer, spreads []core.OnsetSpread) {
	fmt.Fprintf(w, "%-10s %8s %8s %8s %8s %6s\n", "GHz", "min mV", "max mV", "mean", "std", "runs")
	for _, sp := range spreads {
		fmt.Fprintf(w, "%-10.1f %8d %8d %8.1f %8.2f %6d\n",
			float64(sp.FreqKHz)/1e6, sp.MinMV, sp.MaxMV, sp.MeanMV, sp.StdMV, sp.Runs)
	}
}
