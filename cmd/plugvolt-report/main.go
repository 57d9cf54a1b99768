// plugvolt-report regenerates the complete experiment bundle — every
// figure and table of the reproduction — into one directory:
//
//	artifacts/
//	  fig2_skylake.txt / .csv / .json     characterization maps (F2-F4)
//	  fig3_kabylaker.txt / ...
//	  fig4_cometlake.txt / ...
//	  table2_overhead.txt / .md           SPEC2017 overhead (T2)
//	  e1_attack_matrix.txt / .json        attack effectiveness (E1)
//	  e2_defense_matrix.txt               qualitative comparison (E2)
//	  e3_turnaround.txt                   deployment-level windows (E3)
//	  index.md                            what's what
//
// Usage:
//
//	plugvolt-report -out artifacts
//	plugvolt-report -out artifacts -full   # adds all 5 defenses + class curves
//	plugvolt-report -workers 8             # shard the sweeps; same bytes out
//
// Exit codes: 0 success; 1 runtime error; 2 usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"plugvolt"
	"plugvolt/internal/attack"
	"plugvolt/internal/buildinfo"
	"plugvolt/internal/core"
	"plugvolt/internal/cpu"
	"plugvolt/internal/defense"
	"plugvolt/internal/report"
	"plugvolt/internal/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: flag parsing and the bundle
// steps, with no direct os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plugvolt-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	b := &bundle{stderr: stderr}
	fs.StringVar(&b.outDir, "out", "artifacts", "output directory")
	fs.Int64Var(&b.seed, "seed", 42, "experiment seed")
	fs.BoolVar(&b.full, "full", false, "run the full defense matrix and class curves (slower)")
	fs.IntVar(&b.workers, "workers", 0, "frequency-row shards per sweep (0 = GOMAXPROCS); artifacts are identical for any value")
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "plugvolt-report: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *version {
		buildinfo.Fprint(stdout, "plugvolt-report")
		return 0
	}
	if err := b.regenerate(); err != nil {
		fmt.Fprintln(stderr, "plugvolt-report:", err)
		return 1
	}
	return 0
}

// regenerate writes the bundle step by step.
func (b *bundle) regenerate() error {
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return err
	}
	b.index.WriteString("# plugvolt experiment bundle\n\nRegenerated with `plugvolt-report`.\n\n")
	b.index.WriteString("The `fig*` grids are golden artifacts: `go test ./internal/golden -run Golden` " +
		"re-derives them with 1, 2 and 8 workers and diffs bit-for-bit; after an intentional " +
		"engine change, regenerate with `go test ./internal/golden -run Golden -update` " +
		"(or rerun `plugvolt-report`, which produces identical bytes for any `-workers` value).\n\n")

	steps := []func() error{b.figures, b.table2, b.attackMatrix, b.defenseMatrix, b.turnaround}
	if b.full {
		steps = append(steps, b.classCurves)
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	if err := b.write("index.md", b.index.String()); err != nil {
		return err
	}
	fmt.Fprintf(b.stderr, "bundle written to %s\n", b.outDir)
	return nil
}

// bundle is one regeneration: the flag values, the index being assembled
// and where progress goes.
type bundle struct {
	outDir  string
	seed    int64
	full    bool
	workers int
	stderr  io.Writer
	index   strings.Builder
}

// figures regenerates F2-F4 for all three CPU models.
func (b *bundle) figures() error {
	models := []struct {
		fig   int
		model string
	}{{2, "skylake"}, {3, "kabylaker"}, {4, "cometlake"}}
	for _, m := range models {
		b.step("fig%d: characterizing %s", m.fig, m.model)
		sys, err := plugvolt.NewSystem(m.model, b.seed)
		if err != nil {
			return err
		}
		grid, err := sys.Characterize(b.quickCfg())
		if err != nil {
			return err
		}
		base := fmt.Sprintf("fig%d_%s", m.fig, m.model)
		var txt, csv strings.Builder
		if err := report.WriteHeatmap(&txt, grid); err != nil {
			return err
		}
		if err := report.WriteGridCSV(&csv, grid); err != nil {
			return err
		}
		js, err := grid.JSON()
		if err != nil {
			return err
		}
		if err := b.writeAll(base+".txt", txt.String(), base+".csv", csv.String(), base+".json", string(js)); err != nil {
			return err
		}
		fmt.Fprintf(&b.index, "- `%s.{txt,csv,json}` — Fig. %d safe/unsafe map (%s), maximal safe state %d mV\n",
			base, m.fig, grid.Model, grid.MaximalSafeOffsetMV(0))
	}
	return nil
}

// table2 regenerates the overhead table on Comet Lake.
func (b *bundle) table2() error {
	b.step("table2: SPEC overhead on cometlake")
	sys, err := plugvolt.NewSystem("cometlake", 2017)
	if err != nil {
		return err
	}
	grid, err := sys.Characterize(b.quickCfg())
	if err != nil {
		return err
	}
	guard, err := core.NewGuard(grid.UnsafeSet(), sys.Platform.Spec.BusMHz, core.DefaultGuardConfig())
	if err != nil {
		return err
	}
	h, err := spec.NewHarness(sys.Platform, sys.Kernel, spec.DefaultHarnessConfig())
	if err != nil {
		return err
	}
	loadGuard := func(on bool) error {
		loaded := sys.Kernel.Loaded(core.ModuleName)
		switch {
		case on && !loaded:
			return sys.Kernel.Load(guard.Module())
		case !on && loaded:
			return sys.Kernel.Unload(core.ModuleName)
		}
		return nil
	}
	tab, err := h.MeasureTable(loadGuard, 0)
	if err != nil {
		return err
	}
	var txt, md strings.Builder
	report.WriteTable2(&txt, tab)
	report.WriteTable2Markdown(&md, tab)
	if err := b.writeAll("table2_overhead.txt", txt.String(), "table2_overhead.md", md.String()); err != nil {
		return err
	}
	fmt.Fprintf(&b.index, "- `table2_overhead.{txt,md}` — T2, mean |slowdown| %.2f%% (paper 0.28%%)\n", tab.MeanAbsPct)
	return nil
}

// attackMatrix regenerates E1 (and E2's live columns with -full).
func (b *bundle) attackMatrix() error {
	b.step("e1: attack matrix")
	newEnv := func() (*defense.Env, error) {
		sys, err := plugvolt.NewSystem("skylake", b.seed)
		if err != nil {
			return nil, err
		}
		return sys.Env(), nil
	}
	pollBuilder := func(env *defense.Env) (defense.Countermeasure, error) {
		sc, err := core.NewShardedCharacterizer(env.Platform.Spec, env.Platform.Seed(), b.quickCfg())
		if err != nil {
			return nil, err
		}
		g, err := sc.Run()
		if err != nil {
			return nil, err
		}
		return defense.NewPolling(g.UnsafeSet(), env.Platform.Spec.BusMHz, core.DefaultGuardConfig())
	}
	defenses := []attack.DefenseFactory{
		{Name: "none", Build: func(*defense.Env) (defense.Countermeasure, error) { return defense.None{}, nil }},
		{Name: "polling", Build: pollBuilder},
	}
	if b.full {
		defenses = append(defenses,
			attack.DefenseFactory{Name: "access-control", Build: func(*defense.Env) (defense.Countermeasure, error) {
				return &defense.AccessControl{}, nil
			}},
			attack.DefenseFactory{Name: "microcode", Build: func(env *defense.Env) (defense.Countermeasure, error) {
				msv, err := b.maximalSafe(env)
				if err != nil {
					return nil, err
				}
				return &defense.WriteGuard{MaxSafeOffsetMV: msv}, nil
			}},
			attack.DefenseFactory{Name: "clamp", Build: func(env *defense.Env) (defense.Countermeasure, error) {
				msv, err := b.maximalSafe(env)
				if err != nil {
					return nil, err
				}
				return &defense.WriteGuard{MaxSafeOffsetMV: msv, Clamp: true}, nil
			}},
		)
	}
	attacks := []attack.AttackFactory{
		{Name: "plundervolt", Build: func() attack.Attack { return attack.DefaultPlundervolt(b.seed) }},
		{Name: "voltjockey", Build: func() attack.Attack { return attack.DefaultVoltJockey() }},
		{Name: "v0ltpwn", Build: func() attack.Attack { return attack.DefaultV0LTpwn() }},
		{Name: "voltpillager", Build: func() attack.Attack { return attack.DefaultVoltPillager() }},
	}
	results, err := attack.Matrix(newEnv, defenses, attacks)
	if err != nil {
		return err
	}
	var txt strings.Builder
	report.WriteAttackResults(&txt, results)
	txt.WriteString("\n")
	for _, r := range results {
		fmt.Fprintf(&txt, "  %s vs %s: %s\n", r.Attack, r.Defense, r.Notes)
	}
	js, err := attack.ResultsJSON(results)
	if err != nil {
		return err
	}
	if err := b.writeAll("e1_attack_matrix.txt", txt.String(), "e1_attack_matrix.json", string(js)); err != nil {
		return err
	}
	fmt.Fprintf(&b.index, "- `e1_attack_matrix.{txt,json}` — E1, %d cells (voltpillager documents the hardware boundary)\n", len(results))
	return nil
}

// defenseMatrix regenerates the E2 qualitative comparison.
func (b *bundle) defenseMatrix() error {
	var txt strings.Builder
	report.WriteDefenseMatrix(&txt, []report.DefenseProperty{
		{Defense: "none", AllowsBenignDVFS: true},
		{Defense: "access-control (SA-00289)", PreventsFaults: true, SurvivesStepping: true},
		{Defense: "minefield (deflection)", PreventsFaults: true, AllowsBenignDVFS: true},
		{Defense: "polling (this work)", PreventsFaults: true, AllowsBenignDVFS: true, SurvivesStepping: true},
		{Defense: "microcode write-ignore", PreventsFaults: true, AllowsBenignDVFS: true, SurvivesStepping: true, HardwareCapable: true},
		{Defense: "clamp MSR", PreventsFaults: true, AllowsBenignDVFS: true, SurvivesStepping: true, HardwareCapable: true},
	})
	if err := b.write("e2_defense_matrix.txt", txt.String()); err != nil {
		return err
	}
	b.index.WriteString("- `e2_defense_matrix.txt` — E2 qualitative comparison (live evidence in internal/defense tests)\n")
	return nil
}

// turnaround regenerates the E3 table.
func (b *bundle) turnaround() error {
	b.step("e3: turnaround")
	sys, err := plugvolt.NewSystem("skylake", b.seed)
	if err != nil {
		return err
	}
	grid, err := sys.Characterize(b.quickCfg())
	if err != nil {
		return err
	}
	g, err := core.NewGuard(grid.UnsafeSet(), sys.Platform.Spec.BusMHz, core.DefaultGuardConfig())
	if err != nil {
		return err
	}
	rail := sys.Platform.Core(0).VR.Config()
	var txt strings.Builder
	report.WriteTurnaround(&txt, []report.TurnaroundRow{
		{Deployment: "kernel module (Sec. 4.3)",
			WorstCase: g.WorstCaseTurnaround(rail.CommandLatency, rail.SlewMVPerUS).String(),
			Note:      "poll period + VR command latency + slew from sweep floor"},
		{Deployment: "microcode (Sec. 5.1)", WorstCase: "0", Note: "wrmsr write-ignored before commit"},
		{Deployment: "clamp MSR (Sec. 5.2)", WorstCase: "0", Note: "offset clamped in hardware"},
	})
	if err := b.write("e3_turnaround.txt", txt.String()); err != nil {
		return err
	}
	b.index.WriteString("- `e3_turnaround.txt` — E3 deployment-level unsafe windows (empirical rail dwell: plugvolt-trace)\n")
	return nil
}

// classCurves writes the per-instruction-class onset comparison (-full).
func (b *bundle) classCurves() error {
	b.step("class curves (imul/aes/fma)")
	var curves []report.OnsetCurve
	for _, class := range []string{"imul", "aesenc", "fma"} {
		sys, err := plugvolt.NewSystem("skylake", b.seed)
		if err != nil {
			return err
		}
		cfg := b.quickCfg()
		cfg.Class = cpu.Class(class)
		grid, err := sys.Characterize(cfg)
		if err != nil {
			return err
		}
		curves = append(curves, report.OnsetCurve{Label: class, Grid: grid})
	}
	var txt strings.Builder
	if err := report.WriteOnsetCurves(&txt, curves); err != nil {
		return err
	}
	if err := b.write("class_onsets.txt", txt.String()); err != nil {
		return err
	}
	b.index.WriteString("- `class_onsets.txt` — measured per-class fault onsets (imul shallowest)\n")
	return nil
}

// --- helpers ---

// quickCfg is the bundle's sweep configuration: plugvolt.QuickSweep plus
// the CLI's worker count (the grids are identical for any value).
func (b *bundle) quickCfg() core.CharacterizerConfig {
	cfg := plugvolt.QuickSweep()
	cfg.Workers = b.workers
	return cfg
}

func (b *bundle) maximalSafe(env *defense.Env) (int, error) {
	sc, err := core.NewShardedCharacterizer(env.Platform.Spec, env.Platform.Seed(), b.quickCfg())
	if err != nil {
		return 0, err
	}
	g, err := sc.Run()
	if err != nil {
		return 0, err
	}
	return g.MaximalSafeOffsetMV(20), nil
}

func (b *bundle) write(name, content string) error {
	return os.WriteFile(filepath.Join(b.outDir, name), []byte(content), 0o644)
}

// writeAll writes name, content pairs in order, stopping at the first
// error.
func (b *bundle) writeAll(pairs ...string) error {
	for i := 0; i+1 < len(pairs); i += 2 {
		if err := b.write(pairs[i], pairs[i+1]); err != nil {
			return err
		}
	}
	return nil
}

func (b *bundle) step(format string, args ...any) {
	fmt.Fprintf(b.stderr, format+"\n", args...)
}
