// plugvolt-guard demonstrates the deployed countermeasure: it
// characterizes a machine, loads the polling module, unleashes a live
// undervolting adversary, and reports interventions, fault counts, the
// maximal safe state, and the Sec. 5 turnaround comparison (E3).
//
// Usage:
//
//	plugvolt-guard -cpu skylake
//	plugvolt-guard -cpu cometlake -poll 250us -turnaround
//
// Every requested output file is written, whatever the outcome.
//
// Exit codes: 0 success; 1 configuration or runtime error; 2 usage error,
// including -flight-window without -incidents-out; 3 an SLO rule was
// violated (-slo); 4 the victim crashed under attack, i.e. the guard
// failed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"plugvolt"
	"plugvolt/internal/buildinfo"
	"plugvolt/internal/flight"
	"plugvolt/internal/kernel"
	"plugvolt/internal/msr"
	"plugvolt/internal/report"
	"plugvolt/internal/sim"
	"plugvolt/internal/slo"
	"plugvolt/internal/telemetry"
	"plugvolt/internal/trace"
	"plugvolt/internal/victim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: flag parsing, the guarded
// attack run, its outputs and the exit-code policy, with no direct os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plugvolt-guard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cpuName    = fs.String("cpu", "skylake", "CPU model")
		seed       = fs.Int64("seed", 42, "experiment seed")
		poll       = fs.Duration("poll", 100*time.Microsecond, "guard poll period")
		window     = fs.Duration("window", 50*time.Millisecond, "attack observation window (virtual)")
		turnaround = fs.Bool("turnaround", true, "print the E3 turnaround comparison")
		metricsOut = fs.String("metrics-out", "", `write the Prometheus metric exposition here after the run ("-" = stdout)`)
		eventsOut  = fs.String("events-out", "", `write the JSONL event journal here after the run ("-" = stdout)`)
		tracePath  = fs.String("trace", "", `record the victim core's operating-point timeline and dump it as CSV here ("-" = stdout)`)
		traceOut   = fs.String("trace-out", "", `write the causal span trace as Chrome trace JSON here ("-" = stdout); load in Perfetto`)
		foldedOut  = fs.String("folded-out", "", `write the span trace in folded flamegraph format here ("-" = stdout)`)
		sloCheck   = fs.Bool("slo", false, "evaluate the guard SLO rules after the run; exit 3 on violation")
		incOut     = fs.String("incidents-out", "", `write captured flight-recorder incident bundles (framed, concatenated) here ("-" = stdout); inspect with plugvolt-incidents`)
		flightW    = fs.Int("flight-window", 0, "post-trigger records per incident bundle (0 = default); read only with -incidents-out")
		version    = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "plugvolt-guard: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *version {
		buildinfo.Fprint(stdout, "plugvolt-guard")
		return 0
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["flight-window"] && *incOut == "" {
		fmt.Fprintln(stderr, "plugvolt-guard: -flight-window is read only with -incidents-out")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "plugvolt-guard:", err)
		return 1
	}

	sys, err := plugvolt.NewSystem(*cpuName, *seed)
	if err != nil {
		return fail(err)
	}
	buildinfo.Register(sys.Telemetry.Registry())
	// The span exports and the SLO watchdog read stored spans; ask for the
	// store before characterization so the trace holds its rows.
	if *traceOut != "" || *foldedOut != "" || *sloCheck {
		sys.Telemetry.Spans().Keep()
	}

	// Flight recorder: attach before characterization so the ring holds the
	// freshest pre-trigger history of everything the machine did. Captures
	// fire on victim crash and on SLO/energy-budget violations below.
	var frec *flight.Recorder
	if *incOut != "" {
		frec = sys.AttachFlightRecorder(0, *flightW)
	}
	fmt.Fprintf(stdout, "== %s (%s, microcode %s)\n", sys.Platform.Spec.Name,
		sys.Platform.Spec.Codename, sys.Platform.Spec.Microcode)

	fmt.Fprintln(stdout, "-- S1: characterizing safe/unsafe states (Algorithm 2)...")
	grid, err := sys.Characterize(plugvolt.QuickSweep())
	if err != nil {
		return fail(err)
	}
	unsafe := grid.UnsafeSet()
	msv := grid.MaximalSafeOffsetMV(5)
	fmt.Fprintf(stdout, "   unsafe regions found at all %d frequencies; maximal safe state %d mV; %d reboots\n",
		len(unsafe.OnsetMV), msv, grid.Reboots)

	cfg := plugvolt.DefaultGuardConfig()
	cfg.PollPeriod = sim.Duration(poll.Nanoseconds()) * sim.Nanosecond
	pol, err := sys.DeployGuardConfig(grid, cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "-- S2: kernel module %q loaded, polling every %v\n", "plug_your_volt", *poll)

	// The watchdog turns the paper's temporal guarantee into checkable
	// rules: its predicate classifies a mailbox write against the grid's
	// unsafe boundary at the core's current frequency.
	p := sys.Platform
	watchdog := &slo.Watchdog{
		Tracer:  sys.Telemetry.Spans(),
		Journal: sys.Telemetry.Events(),
		Rules: append(slo.DefaultRules(cfg.PollPeriod),
			// Guard energy budget: the kernel-attributed guard power per core
			// must average under 250 mW — the energy face of the paper's
			// 0.28% runtime-overhead claim. The default 100us poll costs
			// ~0.1 W under sustained attack; a 4x faster poll (~0.4 W)
			// trips this rule.
			slo.EnergyBudgetRule(0.250)),
		Unsafe: func(core, offsetMV int) bool {
			return unsafe.Contains(p.FreqKHz(core), offsetMV)
		},
		GuardEnergyJ: sys.Kernel.EnergyJ,
		NumCores:     p.NumCores(),
	}

	// Live adversary: rewrite an unsafe offset on core 1 continually.
	var rec *trace.Recorder
	if *tracePath != "" {
		rec, err = trace.NewRecorder(p.Core(1), 5*sim.Microsecond)
		if err != nil {
			return fail(err)
		}
		if err := rec.Start(p.Sim); err != nil {
			return fail(err)
		}
	}
	freq := p.FreqKHz(1)
	attackOffset := unsafe.OnsetMV[freq] - 60
	attacker := p.Sim.Every(537*sim.Microsecond, func() {
		_ = p.WriteOffsetViaMSR(1, attackOffset, msr.PlaneCore)
	})
	defer attacker.Stop()

	faults := 0
	crashed := false
	deadline := p.Sim.Now() + sim.Duration(window.Nanoseconds())*sim.Nanosecond
	for p.Sim.Now() < deadline {
		p.Sim.RunFor(200 * sim.Microsecond)
		loop, err := victim.NewIMulLoop(p.Core(1), 100_000)
		if err != nil {
			return fail(err)
		}
		res, err := loop.RunBatch()
		if err != nil {
			crashed = true
			fmt.Fprintln(stdout, "   MACHINE CRASHED under attack — guard failed")
			frec.Trigger(flight.CauseCrash, 1, fmt.Sprintf("victim crashed under attack: %v", err))
			break
		}
		faults += res.Faults
	}
	if !crashed {
		fmt.Fprintf(stdout, "-- attack: offset %d mV rewritten every 537us for %v (virtual)\n", attackOffset, *window)
		fmt.Fprintf(stdout, "   EXECUTE-thread faults: %d (paper: countermeasure completely eliminates faults)\n", faults)
		fmt.Fprintf(stdout, "   guard checks: %d, interventions: %d, last at %v\n",
			pol.Guard.Checks, pol.Guard.Interventions, pol.Guard.LastIntervention)
	}

	if err := printAttribution(stdout, sys); err != nil {
		return fail(err)
	}

	if rec != nil {
		rec.Stop()
		if err := telemetry.WriteOut(*tracePath, stdout, rec.WriteCSV); err != nil {
			return fail(err)
		}
		if *tracePath != "-" {
			fmt.Fprintf(stderr, "trace (%d samples) written to %s\n", rec.Len(), *tracePath)
		}
	}

	// Evaluate the SLO before dumping the journal so violations land in the
	// events output.
	sloFailed := false
	if *sloCheck {
		rep := watchdog.Evaluate(p.Sim.Now())
		rep.EmitJournal(sys.Telemetry.Events())
		fmt.Fprintln(stdout, "\n-- SLO watchdog")
		fmt.Fprint(stdout, rep.Summary())
		sloFailed = !rep.OK()
		// Each violated rule freezes an incident: the ring holds the guard
		// polls and mailbox writes leading up to the breach.
		for _, v := range rep.Violations {
			cause := flight.CauseSLO
			if v.Rule.Kind == slo.KindGuardEnergyBudget {
				cause = flight.CauseEnergyBudget
			}
			frec.Trigger(cause, v.Core, fmt.Sprintf("%s: %s", v.Rule.String(), v.Detail))
		}
	}

	if *traceOut != "" {
		if err := telemetry.WriteOut(*traceOut, stdout, sys.Telemetry.Spans().WriteChromeTrace); err != nil {
			return fail(err)
		}
		if *traceOut != "-" {
			fmt.Fprintf(stderr, "span trace (%d spans) written to %s\n",
				sys.Telemetry.Spans().Len(), *traceOut)
		}
	}
	if *foldedOut != "" {
		if err := telemetry.WriteOut(*foldedOut, stdout, sys.Telemetry.Spans().WriteFolded); err != nil {
			return fail(err)
		}
	}
	if err := sys.DumpTelemetry(*metricsOut, *eventsOut, stdout); err != nil {
		return fail(err)
	}

	if *turnaround {
		fmt.Fprintln(stdout, "\n-- E3: worst-case unsafe-register dwell per deployment level")
		rail := p.Core(0).VR.Config()
		wc := pol.Guard.WorstCaseTurnaround(rail.CommandLatency, rail.SlewMVPerUS)
		report.WriteTurnaround(stdout, []report.TurnaroundRow{
			{Deployment: "kernel module (Sec. 4.3)", WorstCase: wc.String(),
				Note: "poll period + VR command latency + slew from sweep floor"},
			{Deployment: "microcode (Sec. 5.1)", WorstCase: "0",
				Note: "wrmsr to 0x150 is write-ignored before it commits"},
			{Deployment: "clamp MSR (Sec. 5.2)", WorstCase: "0",
				Note: "offset clamped to MSR_VOLTAGE_OFFSET_LIMIT in hardware"},
		})
	}
	if *incOut != "" {
		frec.Seal()
		bundles := frec.Bundles()
		data, err := flight.EncodeAll(bundles)
		if err != nil {
			return fail(err)
		}
		if err := telemetry.WriteOutBytes(*incOut, stdout, data); err != nil {
			return fail(err)
		}
		if *incOut != "-" {
			fmt.Fprintf(stderr, "%d incident bundle(s) written to %s\n", len(bundles), *incOut)
		}
	}
	switch {
	case crashed:
		return 4
	case sloFailed:
		return 3
	}
	return 0
}

// printAttribution renders the Table-2-style overhead attribution: per core,
// the kernel CPU time stolen by the guard split by primitive (kthread wake,
// rdmsr, wrmsr, corrective intervention), and the same decomposition for the
// guard's energy bill in joules. Both splits must sum exactly to the
// kernel's unattributed accounting — if they do not, the cost model leaks.
func printAttribution(w io.Writer, sys *plugvolt.System) error {
	kinds := kernel.CostKinds()
	fmt.Fprintln(w, "\n-- overhead attribution (virtual kernel CPU time per core)")
	fmt.Fprintf(w, "   %-6s %14s", "core", "total")
	for _, k := range kinds {
		fmt.Fprintf(w, " %14s", k.String())
	}
	fmt.Fprintln(w)
	for c := 0; c < sys.Platform.NumCores(); c++ {
		total := sys.Kernel.StolenTime(c)
		var sum sim.Duration
		fmt.Fprintf(w, "   %-6d %14s", c, total.String())
		for _, k := range kinds {
			d := sys.Kernel.StolenTimeBy(k, c)
			sum += d
			fmt.Fprintf(w, " %14s", d.String())
		}
		fmt.Fprintln(w)
		if sum != total {
			return fmt.Errorf("core %d: attribution %v != stolen total %v", c, sum, total)
		}
	}
	fmt.Fprintln(w, "   attribution check: per-kind costs sum to the kernel accounting total on every core")

	fmt.Fprintln(w, "\n-- energy attribution (guard joules per core, kernel-attributed)")
	fmt.Fprintf(w, "   %-6s %14s", "core", "total J")
	for _, k := range kinds {
		fmt.Fprintf(w, " %14s", k.String())
	}
	fmt.Fprintln(w)
	for c := 0; c < sys.Platform.NumCores(); c++ {
		totalPJ := sys.Kernel.EnergyPJ(c)
		var sumPJ int64
		fmt.Fprintf(w, "   %-6d %14.9f", c, sys.Kernel.EnergyJ(c))
		for _, k := range kinds {
			pj := sys.Kernel.EnergyPJBy(k, c)
			sumPJ += pj
			fmt.Fprintf(w, " %14.9f", float64(pj)*1e-12)
		}
		fmt.Fprintln(w)
		if sumPJ != totalPJ {
			return fmt.Errorf("core %d: energy attribution %d pJ != total %d pJ", c, sumPJ, totalPJ)
		}
	}
	fmt.Fprintln(w, "   energy check: per-kind joules sum to the core's attributed total on every core")
	return nil
}
