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
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"

	"plugvolt"
	"plugvolt/internal/buildinfo"
	"plugvolt/internal/core"
	"plugvolt/internal/cpu"
	"plugvolt/internal/obs"
	"plugvolt/internal/report"
	"plugvolt/internal/sim"
)

func main() {
	var (
		cpuName  = flag.String("cpu", "skylake", "CPU model: skylake, kabylaker or cometlake")
		seed     = flag.Int64("seed", 42, "experiment seed (replayable)")
		paper    = flag.Bool("paper", false, "full paper sweep: 1 mV steps, 1M imuls/point (slower)")
		csv      = flag.Bool("csv", false, "emit the raw grid as CSV instead of the heatmap")
		jsonPath = flag.String("json", "", "also write the grid as JSON to this path")
		classes  = flag.Bool("classes", false, "compare fault onsets across instruction classes (imul/aes/fma)")
		seeds    = flag.Int("seeds", 1, "run N seeds and report onset spread + conservative aggregate")
		strategy = flag.String("strategy", core.StrategySweep, "full-grid probe strategy: sweep (measure every cell) or bisect (per-row onset bisection; identical grid, ~10x fewer probes)")
		workers  = flag.Int("workers", 0, "frequency-row shards swept in parallel (0 = GOMAXPROCS); results are identical for any value")
		metrics  = flag.String("metrics-out", "", `write the Prometheus metric exposition here after the sweep ("-" = stdout)`)
		events   = flag.String("events-out", "", `write the JSONL event journal here after the sweep ("-" = stdout)`)
		listen   = flag.String("listen", "", "serve /metrics /events /traces /healthz on this address during the sweep; blocks after the sweep until interrupted")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Fprint(os.Stdout, "plugvolt-characterize")
		return
	}

	sys, err := plugvolt.NewSystem(*cpuName, *seed)
	if err != nil {
		fatal(err)
	}
	buildinfo.Register(sys.Telemetry.Registry())
	if *listen != "" {
		// The sharded sweep publishes into the shared telemetry set from the
		// merge loop; the lock serializes server reads against it.
		var mu sync.Mutex
		srv := &obs.Server{
			Telemetry: sys.Telemetry,
			Clock:     func() sim.Time { return sys.Platform.Sim.Now() },
			Lock:      &mu,
		}
		httpSrv, addr, err := srv.Start(*listen)
		if err != nil {
			fatal(err)
		}
		defer httpSrv.Close()
		fmt.Fprintf(os.Stderr, "observability server on http://%s\n", addr)
		// After the sweep (and its reports) finish, keep serving until ^C so
		// the final metrics and trace can be pulled.
		defer func() {
			fmt.Fprintln(os.Stderr, "sweep done; serving until interrupted (^C to exit)")
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt)
			<-ch
		}()
	}
	cfg := plugvolt.QuickSweep()
	if *paper {
		cfg = plugvolt.PaperSweep()
	}
	cfg.Workers = *workers
	cfg.Strategy = *strategy
	if *classes {
		runClassComparison(*cpuName, *seed, cfg)
		return
	}
	if *seeds > 1 {
		runMultiSeed(*cpuName, *seed, *seeds, cfg)
		return
	}
	defer func() {
		if err := sys.DumpTelemetry(*metrics, *events); err != nil {
			fatal(err)
		}
	}()
	cfg.Progress = func(freqKHz, done, total int) {
		fmt.Fprintf(os.Stderr, "\rcharacterizing %s: %d/%d frequencies", sys.Platform.Spec.Codename, done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
	grid, err := sys.Characterize(cfg)
	if err != nil {
		fatal(err)
	}
	if *csv {
		if err := report.WriteGridCSV(os.Stdout, grid); err != nil {
			fatal(err)
		}
	} else {
		if err := report.WriteHeatmap(os.Stdout, grid); err != nil {
			fatal(err)
		}
	}
	if *jsonPath != "" {
		data, err := grid.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "grid written to %s\n", *jsonPath)
	}
}

// runClassComparison sweeps the same machine with three instruction
// classes and tabulates the onset curves — the measured form of the
// paper's "imul is the most faultable instruction".
func runClassComparison(cpuName string, seed int64, cfg plugvolt.CharacterizerConfig) {
	var curves []report.OnsetCurve
	for _, class := range []cpu.Class{cpu.ClassIMul, cpu.ClassAES, cpu.ClassFMA} {
		sys, err := plugvolt.NewSystem(cpuName, seed)
		if err != nil {
			fatal(err)
		}
		c := cfg
		c.Class = class
		fmt.Fprintf(os.Stderr, "sweeping class %s...\n", class)
		grid, err := sys.Characterize(c)
		if err != nil {
			fatal(err)
		}
		curves = append(curves, report.OnsetCurve{Label: string(class), Grid: grid})
	}
	if err := report.WriteOnsetCurves(os.Stdout, curves); err != nil {
		fatal(err)
	}
}

// runMultiSeed characterizes N seeds, reports the per-frequency onset
// spread and the conservative aggregate's maximal safe state.
func runMultiSeed(cpuName string, seed int64, n int, cfg plugvolt.CharacterizerConfig) {
	var grids []*core.Grid
	for i := 0; i < n; i++ {
		sys, err := plugvolt.NewSystem(cpuName, seed+int64(i))
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "seed %d/%d...\n", i+1, n)
		grid, err := sys.Characterize(cfg)
		if err != nil {
			fatal(err)
		}
		grids = append(grids, grid)
	}
	spreads, err := core.OnsetSpreads(grids)
	if err != nil {
		fatal(err)
	}
	report.WriteOnsetSpreads(os.Stdout, spreads)
	agg, err := core.AggregateGrids(grids)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nconservative aggregate over %d seeds: maximal safe state %d mV\n",
		n, agg.MaximalSafeOffsetMV(0))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "plugvolt-characterize:", err)
	os.Exit(1)
}
