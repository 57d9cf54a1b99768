package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"plugvolt"
	"plugvolt/internal/attack"
	"plugvolt/internal/core"
	"plugvolt/internal/defense"
	"plugvolt/internal/report"
	"plugvolt/internal/sim"
	"plugvolt/internal/spec"
)

// artifactSeed is the seed the committed artifacts/ bundle was made with.
const artifactSeed = 42

// bundleFiles are the files of plugvolt-report's default bundle.
var bundleFiles = []string{
	"fig2_skylake.txt", "fig2_skylake.csv", "fig2_skylake.json",
	"fig3_kabylaker.txt", "fig3_kabylaker.csv", "fig3_kabylaker.json",
	"fig4_cometlake.txt", "fig4_cometlake.csv", "fig4_cometlake.json",
	"table2_overhead.txt", "table2_overhead.md",
	"e1_attack_matrix.txt", "e1_attack_matrix.json",
	"e2_defense_matrix.txt", "e3_turnaround.txt", "index.md",
}

// report-bundle is what a reproducer runs: one in-process regeneration of
// plugvolt-report's default bundle (Figs. 2-4 quick, Table 2, the E1
// attack matrix, E2, E3). About 90% of it is the two Plundervolt RSA-CRT
// campaigns of E1, so victim and the per-instruction cpu fault model
// dominate it, and the guard poll and the characterizer barely show.
type bundleRun struct {
	seed int64
	// want is the bundle every op must reproduce: artifacts/ at the
	// artifact seed, else the run's first bundle.
	want map[string][]byte
}

func setupBundle(env runEnv) (instance, error) {
	b := &bundleRun{seed: env.seed}
	if env.seed != artifactSeed {
		return b, nil
	}
	b.want = map[string][]byte{}
	for _, name := range bundleFiles {
		data, err := os.ReadFile(filepath.Join(env.repo, "artifacts", name))
		if err != nil {
			return nil, err
		}
		b.want[name] = data
	}
	return b, nil
}

func (b *bundleRun) reference() error { return nil }

// op regenerates the bundle the way cmd/plugvolt-report does, with sweeps
// sharded over GOMAXPROCS workers.
func (b *bundleRun) op(tr *tracer, rec *recorder) (string, error) {
	start := time.Now()
	g := &bundleGen{seed: b.seed, tr: tr, files: map[string][]byte{}}
	g.index.WriteString("# plugvolt experiment bundle\n\nRegenerated with `plugvolt-report`.\n\n")
	g.index.WriteString("The `fig*` grids are golden artifacts: `go test ./internal/golden -run Golden` " +
		"re-derives them with 1, 2 and 8 workers and diffs bit-for-bit; after an intentional " +
		"engine change, regenerate with `go test ./internal/golden -run Golden -update` " +
		"(or rerun `plugvolt-report`, which produces identical bytes for any `-workers` value).\n\n")
	for _, step := range []func() error{g.figures, g.table2, g.attackMatrix, g.defenseMatrix, g.turnaround} {
		if err := step(); err != nil {
			return "", err
		}
	}
	g.files["index.md"] = []byte(g.index.String())
	rec.add("bundle_s", time.Since(start).Seconds())

	var retired, events uint64
	for _, sys := range g.e1 {
		events += sys.Platform.Sim.Fired()
		for _, c := range sys.Platform.Cores() {
			retired += c.Retired
		}
	}
	rec.add("cpu.retired", float64(retired))
	rec.add("sim.events", float64(events))

	if b.want == nil {
		b.want = g.files
	}
	for _, name := range bundleFiles {
		if !bytes.Equal(g.files[name], b.want[name]) {
			return "", fmt.Errorf("report-bundle: %s: %w", name, errMismatch)
		}
	}
	return digestOf(g.files), nil
}

func (b *bundleRun) layers(tp *tracePass) (map[string]float64, error) {
	tr := tp.tr
	e1 := tr.withPrefix("attack.e1.")
	polling, none := tr.named("attack.e1.plundervolt.polling"), tr.named("attack.e1.plundervolt.none")
	ops := time.Duration(tr.op + 1)
	vals := map[string]float64{
		"attack.plundervolt_polling_s": medianOf(polling, time.Second),
		"attack.plundervolt_none_s":    medianOf(none, time.Second),
		"attack.e1_other_s":            (sumOf(e1) - sumOf(polling) - sumOf(none)).Seconds() / float64(ops),
		"core.figs_quick_ms":           medianOf(tr.named("core.figs_quick"), time.Millisecond),
		"spec.table2_ms":               medianOf(tr.named("spec.table2"), time.Millisecond),
		"report.write_ms":              ms(sumOf(tr.named("report.write")) / ops),
		"plugvolt.boot_us":             medianOf(tr.named("plugvolt.boot"), time.Microsecond),
		"core.characterize_quick_ms":   medianOf(tr.named("core.characterize_quick"), time.Millisecond),
	}
	e1PerOp := float64(sumOf(e1)) / float64(ops)
	if n := tp.rec.median("cpu.retired"); n > 0 {
		vals["cpu.ns_per_retired"] = e1PerOp / n
	}
	if n := tp.rec.median("sim.events"); n > 0 {
		vals["sim.ns_per_event"] = e1PerOp / n
	}
	return vals, nil
}

// bundleGen builds one bundle. Its steps mirror cmd/plugvolt-report's
// functions of the same names, with a span around each call into a layer.
type bundleGen struct {
	seed  int64
	tr    *tracer
	files map[string][]byte
	index strings.Builder
	// e1 holds the machines the attack matrix ran on, for their retired
	// instruction and simulator event counts.
	e1 []*plugvolt.System
}

// write renders one file inside a report.write span.
func (g *bundleGen) write(name string, render func(*strings.Builder) error) error {
	return g.tr.do("report.write", func() error {
		var sb strings.Builder
		if err := render(&sb); err != nil {
			return err
		}
		g.files[name] = []byte(sb.String())
		return nil
	})
}

// boot is plugvolt.NewSystem inside a span.
func (g *bundleGen) boot(model string, seed int64) (*plugvolt.System, error) {
	var sys *plugvolt.System
	err := g.tr.do("plugvolt.boot", func() (err error) {
		sys, err = plugvolt.NewSystem(model, seed)
		return err
	})
	return sys, err
}

// characterize is the bundle's quick sweep of sys inside a span.
func (g *bundleGen) characterize(sys *plugvolt.System) (*core.Grid, error) {
	var grid *core.Grid
	err := g.tr.do("core.characterize_quick", func() (err error) {
		grid, err = sys.Characterize(plugvolt.QuickSweep())
		return err
	})
	return grid, err
}

func (g *bundleGen) figures() error {
	return g.tr.do("core.figs_quick", func() error {
		for _, m := range []struct {
			fig   int
			model string
		}{{2, "skylake"}, {3, "kabylaker"}, {4, "cometlake"}} {
			sys, err := g.boot(m.model, g.seed)
			if err != nil {
				return err
			}
			grid, err := g.characterize(sys)
			if err != nil {
				return err
			}
			base := fmt.Sprintf("fig%d_%s", m.fig, m.model)
			if err := g.write(base+".txt", func(sb *strings.Builder) error { return report.WriteHeatmap(sb, grid) }); err != nil {
				return err
			}
			if err := g.write(base+".csv", func(sb *strings.Builder) error { return report.WriteGridCSV(sb, grid) }); err != nil {
				return err
			}
			if err := g.write(base+".json", func(sb *strings.Builder) error {
				js, err := grid.JSON()
				sb.Write(js)
				return err
			}); err != nil {
				return err
			}
			fmt.Fprintf(&g.index, "- `%s.{txt,csv,json}` — Fig. %d safe/unsafe map (%s), maximal safe state %d mV\n",
				base, m.fig, grid.Model, grid.MaximalSafeOffsetMV(0))
		}
		return nil
	})
}

func (g *bundleGen) table2() error {
	return g.tr.do("spec.table2", func() error {
		sys, err := g.boot("cometlake", 2017)
		if err != nil {
			return err
		}
		grid, err := g.characterize(sys)
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
		if err := g.write("table2_overhead.txt", func(sb *strings.Builder) error { report.WriteTable2(sb, tab); return nil }); err != nil {
			return err
		}
		if err := g.write("table2_overhead.md", func(sb *strings.Builder) error { report.WriteTable2Markdown(sb, tab); return nil }); err != nil {
			return err
		}
		fmt.Fprintf(&g.index, "- `table2_overhead.{txt,md}` — T2, mean |slowdown| %.2f%% (paper 0.28%%)\n", tab.MeanAbsPct)
		return nil
	})
}

// attackMatrix runs E1 one cell at a time, each cell in its own span.
// attack.Matrix builds a fresh machine for every cell, so the cells equal
// one Matrix call over the whole lineup.
func (g *bundleGen) attackMatrix() error {
	newEnv := func() (*defense.Env, error) {
		sys, err := g.boot("skylake", g.seed)
		if err != nil {
			return nil, err
		}
		g.e1 = append(g.e1, sys)
		return sys.Env(), nil
	}
	pollBuilder := func(env *defense.Env) (defense.Countermeasure, error) {
		var grid *core.Grid
		if err := g.tr.do("core.characterize_quick", func() error {
			sc, err := core.NewShardedCharacterizer(env.Platform.Spec, env.Platform.Seed(), plugvolt.QuickSweep())
			if err != nil {
				return err
			}
			grid, err = sc.Run()
			return err
		}); err != nil {
			return nil, err
		}
		return defense.NewPolling(grid.UnsafeSet(), env.Platform.Spec.BusMHz, core.DefaultGuardConfig())
	}
	defenses := []attack.DefenseFactory{
		{Name: "none", Build: func(*defense.Env) (defense.Countermeasure, error) { return defense.None{}, nil }},
		{Name: "polling", Build: pollBuilder},
	}
	attacks := []attack.AttackFactory{
		{Name: "plundervolt", Build: func() attack.Attack { return attack.DefaultPlundervolt(g.seed) }},
		{Name: "voltjockey", Build: func() attack.Attack { return attack.DefaultVoltJockey() }},
		{Name: "v0ltpwn", Build: func() attack.Attack { return attack.DefaultV0LTpwn() }},
		{Name: "voltpillager", Build: func() attack.Attack { return attack.DefaultVoltPillager() }},
	}
	var results []*attack.Result
	for _, d := range defenses {
		for _, a := range attacks {
			var cell []*attack.Result
			err := g.tr.do("attack.e1."+a.Name+"."+d.Name, func() (err error) {
				cell, err = attack.Matrix(newEnv, []attack.DefenseFactory{d}, []attack.AttackFactory{a})
				return err
			})
			if err != nil {
				return err
			}
			results = append(results, cell...)
		}
	}
	if err := g.write("e1_attack_matrix.txt", func(sb *strings.Builder) error {
		report.WriteAttackResults(sb, results)
		sb.WriteString("\n")
		for _, r := range results {
			fmt.Fprintf(sb, "  %s vs %s: %s\n", r.Attack, r.Defense, r.Notes)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := g.write("e1_attack_matrix.json", func(sb *strings.Builder) error {
		js, err := attack.ResultsJSON(results)
		sb.Write(js)
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(&g.index, "- `e1_attack_matrix.{txt,json}` — E1, %d cells (voltpillager documents the hardware boundary)\n", len(results))
	return nil
}

func (g *bundleGen) defenseMatrix() error {
	if err := g.write("e2_defense_matrix.txt", func(sb *strings.Builder) error {
		report.WriteDefenseMatrix(sb, []report.DefenseProperty{
			{Defense: "none", AllowsBenignDVFS: true},
			{Defense: "access-control (SA-00289)", PreventsFaults: true, SurvivesStepping: true},
			{Defense: "minefield (deflection)", PreventsFaults: true, AllowsBenignDVFS: true},
			{Defense: "polling (this work)", PreventsFaults: true, AllowsBenignDVFS: true, SurvivesStepping: true},
			{Defense: "microcode write-ignore", PreventsFaults: true, AllowsBenignDVFS: true, SurvivesStepping: true, HardwareCapable: true},
			{Defense: "clamp MSR", PreventsFaults: true, AllowsBenignDVFS: true, SurvivesStepping: true, HardwareCapable: true},
		})
		return nil
	}); err != nil {
		return err
	}
	g.index.WriteString("- `e2_defense_matrix.txt` — E2 qualitative comparison (live evidence in internal/defense tests)\n")
	return nil
}

func (g *bundleGen) turnaround() error {
	return g.tr.do("core.turnaround", func() error {
		sys, err := g.boot("skylake", g.seed)
		if err != nil {
			return err
		}
		grid, err := g.characterize(sys)
		if err != nil {
			return err
		}
		guard, err := core.NewGuard(grid.UnsafeSet(), sys.Platform.Spec.BusMHz, core.DefaultGuardConfig())
		if err != nil {
			return err
		}
		if err := g.write("e3_turnaround.txt", func(sb *strings.Builder) error {
			report.WriteTurnaround(sb, []report.TurnaroundRow{
				{Deployment: "kernel module (Sec. 4.3)",
					WorstCase: guard.WorstCaseTurnaround(20*sim.Microsecond, 0.5).String(),
					Note:      "poll period + VR command latency + slew from sweep floor"},
				{Deployment: "microcode (Sec. 5.1)", WorstCase: "0", Note: "wrmsr write-ignored before commit"},
				{Deployment: "clamp MSR (Sec. 5.2)", WorstCase: "0", Note: "offset clamped in hardware"},
			})
			return nil
		}); err != nil {
			return err
		}
		g.index.WriteString("- `e3_turnaround.txt` — E3 deployment-level unsafe windows (empirical rail dwell: plugvolt-trace)\n")
		return nil
	})
}
