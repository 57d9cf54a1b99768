// plugvolt-fleet simulates a guarded machine fleet: N independent systems
// with mixed CPU models, each characterized, protected by the polling
// countermeasure, and run through an attack campaign or an idle guard
// window, simulated across a worker pool.
//
// The fleet runs as a stream of batches (fleet.RunStream): only one batch
// of machines is resident at a time, telemetry folds incrementally, and
// -checkpoint writes a resumable checkpoint after every batch, so a
// million machine-window run fits on a laptop. The report carries the
// aggregate and per-model rollups; it and the merged metric exposition are
// byte-identical for any execution shape: -workers, -batch, -epochs and
// any kill/-resume point.
//
// Usage:
//
//	plugvolt-fleet -machines 24 -attack plundervolt
//	plugvolt-fleet -machines 100 -workers 8 -attack voltjockey -metrics-out fleet.prom
//	plugvolt-fleet -machines 250000 -epochs 4 -attack none \
//	    -batch 512 -checkpoint fleet.ckpt -out fleet.json
//	plugvolt-fleet -machines 250000 -epochs 4 -attack none \
//	    -resume fleet.ckpt -checkpoint fleet.ckpt -out fleet.json
//
// -window is read only by the idle fleet (-attack none); a campaign drives
// its own timeline.
//
// Exit codes: 0 success; 1 configuration or runtime error; 2 usage error,
// including -window with a campaign; 3 partial fleet (some machines failed;
// see the report); 4 halted by SIGINT at a batch boundary (resume with
// -resume).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"time"

	"plugvolt/internal/buildinfo"
	"plugvolt/internal/fleet"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: flag parsing, the fleet run,
// output rendering and exit-code policy, with no direct os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plugvolt-fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		machines   = fs.Int("machines", 8, "fleet size")
		workers    = fs.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS); never changes any output byte")
		modelsFlag = fs.String("models", "", "comma-separated CPU models cycled across the fleet (default: all models)")
		seed       = fs.Int64("seed", 42, "fleet seed; machine i derives its own seed from it")
		attackName = fs.String("attack", "plundervolt", fmt.Sprintf("campaign every machine faces: %s", strings.Join(fleet.AttackNames(), ", ")))
		window     = fs.Duration("window", 10*time.Millisecond, `virtual idle time under guard when -attack none`)
		epochs     = fs.Int("epochs", 1, "time slices per machine window (machine-windows = machines x epochs); never changes any output byte")
		batch      = fs.Int("batch", 0, "machines resident at once (0 = auto); bounds memory, never changes any output byte")
		checkpoint = fs.String("checkpoint", "", "write a resumable checkpoint here after every batch")
		resumePath = fs.String("resume", "", "resume a previous run from this checkpoint file")
		progress   = fs.Bool("progress", false, "print a progress line to stderr after every batch")
		out        = fs.String("out", "", `write the fleet report JSON here ("-" = stdout; default stdout summary only)`)
		metricsOut = fs.String("metrics-out", "", `write the merged Prometheus exposition here ("-" = stdout)`)
		version    = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "plugvolt-fleet: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *version {
		buildinfo.Fprint(stdout, "plugvolt-fleet")
		return 0
	}
	if *batch > *machines {
		fmt.Fprintf(stderr, "plugvolt-fleet: -batch %d exceeds -machines %d\n", *batch, *machines)
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["window"] && *attackName != "none" {
		fmt.Fprintf(stderr, "plugvolt-fleet: -attack %s does not read -window\n", *attackName)
		return 2
	}

	cfg := fleet.StreamConfig{
		Config: fleet.Config{
			Machines: *machines,
			Workers:  *workers,
			Seed:     *seed,
			Attack:   *attackName,
			Window:   sim.Duration(window.Nanoseconds()) * sim.Nanosecond,
		},
		Epochs:         *epochs,
		Batch:          *batch,
		CheckpointPath: *checkpoint,
	}
	if *modelsFlag != "" {
		cfg.Models = strings.Split(*modelsFlag, ",")
	}

	if *resumePath != "" {
		ck, err := fleet.ReadCheckpointFile(*resumePath)
		if err != nil {
			fmt.Fprintln(stderr, "plugvolt-fleet:", err)
			return 1
		}
		cfg.Resume = ck
		fmt.Fprintf(stderr, "plugvolt-fleet: resuming at %d/%d machines (%d batches done)\n",
			ck.MachinesDone, ck.Machines, ck.BatchesDone)
	}

	if *progress {
		cfg.Progress = func(p fleet.Progress) {
			fmt.Fprintf(stderr, "plugvolt-fleet: %d/%d machine-windows (%d/%d machines, %d batches, %d errors, heap %.1f MiB)\n",
				p.WindowsDone, p.Windows, p.MachinesDone, p.Machines, p.BatchesDone, p.Errors,
				float64(p.HeapBytes)/(1<<20))
		}
	}

	// SIGINT lands the run at the next batch boundary — after that
	// boundary's checkpoint is on disk — instead of mid-simulation.
	var halt atomic.Bool
	if *checkpoint != "" {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt)
		defer signal.Stop(sigc)
		go func() {
			if _, ok := <-sigc; ok {
				halt.Store(true)
			}
		}()
		cfg.Halt = func(fleet.Progress) bool { return halt.Load() }
	}

	rep, err := fleet.RunStream(cfg)
	if errors.Is(err, fleet.ErrHalted) {
		fmt.Fprintf(stderr, "plugvolt-fleet: halted at a batch boundary; resume with -resume %s\n", *checkpoint)
		return 4
	}
	return finish(rep, err, cfg, stdout, stderr, *out, *metricsOut)
}

// finish renders the summary and requested outputs and maps the error to
// the exit-code policy.
func finish(rep *fleet.StreamReport, err error, cfg fleet.StreamConfig, stdout, stderr io.Writer, out, metricsOut string) int {
	var partial *fleet.PartialError
	if err != nil && !errors.As(err, &partial) {
		fmt.Fprintln(stderr, "plugvolt-fleet:", err)
		return 1
	}

	agg := rep.Aggregate
	epochs := int64(1)
	if cfg.Epochs > 1 {
		epochs = int64(cfg.Epochs)
	}
	fmt.Fprintf(stdout, "== fleet stream: %d machines x %d epochs = %d machine-windows (%s), attack %s, seed %d\n",
		agg.Machines, epochs, int64(agg.Machines)*epochs,
		strings.Join(rep.Fleet.Models, "/"), rep.Fleet.Attack, rep.Fleet.Seed)
	fmt.Fprintf(stdout, "guard: %d checks, %d interventions across the fleet\n",
		agg.GuardChecks, agg.GuardInterventions)
	if agg.AttacksRun > 0 {
		fmt.Fprintf(stdout, "attacks: %d run, %d defeated, %d succeeded; %d mailbox writes (%d blocked), %d faults, %d crashes\n",
			agg.AttacksRun, agg.AttacksDefeated, agg.AttacksSucceeded,
			agg.MailboxWrites, agg.BlockedWrites, agg.FaultsObserved, agg.Crashes)
	}
	fmt.Fprintf(stdout, "fleet virtual time: %v; reboots: %d; machine errors: %d\n",
		sim.Duration(agg.VirtualPS), agg.Reboots, agg.Errors)
	for _, m := range rep.ModelRows {
		fmt.Fprintf(stdout, "  %-12s %6d machines, %d checks, %d interventions, %d errors\n",
			m.Model, m.Machines, m.GuardChecks, m.GuardInterventions, m.Errors)
	}

	if out != "" {
		data, werr := rep.JSON()
		if werr == nil {
			werr = telemetry.WriteOutBytes(out, stdout, append(data, '\n'))
		}
		if werr != nil {
			fmt.Fprintln(stderr, "plugvolt-fleet:", werr)
			return 1
		}
	}
	if metricsOut != "" {
		if werr := telemetry.WriteOut(metricsOut, stdout, rep.WriteMetrics); werr != nil {
			fmt.Fprintln(stderr, "plugvolt-fleet:", werr)
			return 1
		}
	}

	if partial != nil {
		fmt.Fprintf(stderr, "plugvolt-fleet: %d machine(s) failed:\n", partial.Total)
		for _, f := range partial.Failures {
			fmt.Fprintf(stderr, "  %s\n", f.Error())
		}
		if partial.Total > len(partial.Failures) {
			fmt.Fprintf(stderr, "  ... and %d more\n", partial.Total-len(partial.Failures))
		}
		return 3
	}
	return 0
}
