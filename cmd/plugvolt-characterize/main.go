// plugvolt-characterize runs the paper's Algorithm 2 sweep on a simulated
// CPU model and renders the Fig. 2/3/4 safe/unsafe map.
//
// Usage:
//
//	plugvolt-characterize -cpu skylake                 # ASCII heatmap
//	plugvolt-characterize -cpu cometlake -csv          # raw grid CSV
//	plugvolt-characterize -cpu kabylaker -json out.json
//	plugvolt-characterize -paper                       # full 1 mV / 1M sweep
//	plugvolt-characterize -workers 8                   # shard the frequency axis
//
// The sweep is sharded across -workers goroutines (default GOMAXPROCS);
// every frequency row derives its RNG stream from seed^freqKHz, so the grid
// is bit-for-bit identical for any worker count.
//
// -classes and -seeds N (N > 1) select the class comparison and the
// multi-seed spread report; -csv, -json, -metrics-out and -events-out are
// read only by the single-grid default.
//
// Exit codes: 0 success; 1 configuration or runtime error; 2 usage error,
// including a flag the selected mode does not read.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"plugvolt"
	"plugvolt/internal/buildinfo"
	"plugvolt/internal/core"
	"plugvolt/internal/cpu"
	"plugvolt/internal/models"
	"plugvolt/internal/report"
	"plugvolt/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: flag parsing, the sweeps
// and their rendering, with no direct os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plugvolt-characterize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cpuName  = fs.String("cpu", "skylake", "CPU model: skylake, kabylaker or cometlake")
		seed     = fs.Int64("seed", 42, "experiment seed (replayable)")
		paper    = fs.Bool("paper", false, "full paper sweep: 1 mV steps, 1M imuls/point (slower)")
		csv      = fs.Bool("csv", false, "emit the raw grid as CSV instead of the heatmap")
		jsonPath = fs.String("json", "", `also write the grid as JSON here ("-" = stdout)`)
		classes  = fs.Bool("classes", false, "compare fault onsets across instruction classes (imul/aes/fma)")
		seeds    = fs.Int("seeds", 1, "run N seeds and report onset spread + conservative aggregate")
		strategy = fs.String("strategy", core.StrategySweep, "full-grid probe strategy: sweep (measure every cell) or bisect (per-row onset bisection; identical grid, 5-6x fewer probes on the default axis, 19-21x with -paper)")
		workers  = fs.Int("workers", 0, "frequency-row shards swept in parallel (0 = GOMAXPROCS); results are identical for any value")
		metrics  = fs.String("metrics-out", "", `write the Prometheus metric exposition here after the sweep ("-" = stdout)`)
		events   = fs.String("events-out", "", `write the JSONL event journal here after the sweep ("-" = stdout)`)
		version  = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "plugvolt-characterize: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *version {
		buildinfo.Fprint(stdout, "plugvolt-characterize")
		return 0
	}
	var mode string
	var unread []string
	switch {
	case *classes:
		mode, unread = "-classes", []string{"seeds", "csv", "json", "metrics-out", "events-out"}
	case *seeds > 1:
		mode, unread = "-seeds", []string{"csv", "json", "metrics-out", "events-out"}
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range unread {
		if set[name] {
			fmt.Fprintf(stderr, "plugvolt-characterize: %s does not read -%s\n", mode, name)
			return 2
		}
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "plugvolt-characterize:", err)
		return 1
	}

	// One Spec backs every machine this run boots, so the seeds and classes
	// share its derived tables (see core's row tables).
	spec, err := models.ByName(*cpuName)
	if err != nil {
		return fail(err)
	}
	sys, err := plugvolt.NewSystemFromSpec(spec, *seed)
	if err != nil {
		return fail(err)
	}
	buildinfo.Register(sys.Telemetry.Registry())
	cfg := plugvolt.QuickSweep()
	if *paper {
		cfg = plugvolt.PaperSweep()
	}
	cfg.Workers = *workers
	cfg.Strategy = *strategy
	switch mode {
	case "-classes":
		err = runClassComparison(stdout, stderr, spec, *seed, cfg)
	case "-seeds":
		err = runMultiSeed(stdout, stderr, spec, *seed, *seeds, cfg)
	default:
		err = runSingle(stdout, stderr, sys, cfg, *csv, *jsonPath)
		if err == nil {
			err = sys.DumpTelemetry(*metrics, *events, stdout)
		}
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// runSingle characterizes the booted machine and renders its grid as a
// heatmap or CSV, optionally also writing it as JSON.
func runSingle(stdout, stderr io.Writer, sys *plugvolt.System, cfg plugvolt.CharacterizerConfig, csv bool, jsonPath string) error {
	cfg.Progress = func(freqKHz, done, total int) {
		fmt.Fprintf(stderr, "\rcharacterizing %s: %d/%d frequencies", sys.Platform.Spec.Codename, done, total)
		if done == total {
			fmt.Fprintln(stderr)
		}
	}
	grid, err := sys.Characterize(cfg)
	if err != nil {
		return err
	}
	if csv {
		err = report.WriteGridCSV(stdout, grid)
	} else {
		err = report.WriteHeatmap(stdout, grid)
	}
	if err != nil {
		return err
	}
	if jsonPath == "" {
		return nil
	}
	data, err := grid.JSON()
	if err != nil {
		return err
	}
	if err := telemetry.WriteOutBytes(jsonPath, stdout, data); err != nil {
		return err
	}
	if jsonPath != "-" {
		fmt.Fprintf(stderr, "grid written to %s\n", jsonPath)
	}
	return nil
}

// runClassComparison sweeps the same machine with three instruction
// classes and tabulates the onset curves — the measured form of the
// paper's "imul is the most faultable instruction".
func runClassComparison(stdout, stderr io.Writer, spec *models.Spec, seed int64, cfg plugvolt.CharacterizerConfig) error {
	var curves []report.OnsetCurve
	for _, class := range []cpu.Class{cpu.ClassIMul, cpu.ClassAES, cpu.ClassFMA} {
		sys, err := plugvolt.NewSystemFromSpec(spec, seed)
		if err != nil {
			return err
		}
		c := cfg
		c.Class = class
		fmt.Fprintf(stderr, "sweeping class %s...\n", class)
		grid, err := sys.Characterize(c)
		if err != nil {
			return err
		}
		curves = append(curves, report.OnsetCurve{Label: string(class), Grid: grid})
	}
	return report.WriteOnsetCurves(stdout, curves)
}

// runMultiSeed characterizes N seeds, reports the per-frequency onset
// spread and the conservative aggregate's maximal safe state.
func runMultiSeed(stdout, stderr io.Writer, spec *models.Spec, seed int64, n int, cfg plugvolt.CharacterizerConfig) error {
	var grids []*core.Grid
	for i := 0; i < n; i++ {
		sys, err := plugvolt.NewSystemFromSpec(spec, seed+int64(i))
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "seed %d/%d...\n", i+1, n)
		grid, err := sys.Characterize(cfg)
		if err != nil {
			return err
		}
		grids = append(grids, grid)
	}
	spreads, err := core.OnsetSpreads(grids)
	if err != nil {
		return err
	}
	report.WriteOnsetSpreads(stdout, spreads)
	agg, err := core.AggregateGrids(grids)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nconservative aggregate over %d seeds: maximal safe state %d mV\n",
		n, agg.MaximalSafeOffsetMV(0))
	return nil
}
