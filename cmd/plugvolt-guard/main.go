// plugvolt-guard demonstrates the deployed countermeasure: it
// characterizes a machine, loads the polling module, unleashes a live
// undervolting adversary, and reports interventions, fault counts, the
// maximal safe state, and the Sec. 5 turnaround comparison (E3).
//
// Usage:
//
//	plugvolt-guard -cpu skylake
//	plugvolt-guard -cpu cometlake -poll 250us -turnaround
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"plugvolt"
	"plugvolt/internal/buildinfo"
	"plugvolt/internal/flight"
	"plugvolt/internal/kernel"
	"plugvolt/internal/msr"
	"plugvolt/internal/obs"
	"plugvolt/internal/report"
	"plugvolt/internal/sim"
	"plugvolt/internal/slo"
	"plugvolt/internal/trace"
	"plugvolt/internal/victim"
)

func main() {
	var (
		cpuName    = flag.String("cpu", "skylake", "CPU model")
		seed       = flag.Int64("seed", 42, "experiment seed")
		poll       = flag.Duration("poll", 100*time.Microsecond, "guard poll period")
		window     = flag.Duration("window", 50*time.Millisecond, "attack observation window (virtual)")
		turnaround = flag.Bool("turnaround", true, "print the E3 turnaround comparison")
		metricsOut = flag.String("metrics-out", "", `write the Prometheus metric exposition here after the run ("-" = stdout)`)
		eventsOut  = flag.String("events-out", "", `write the JSONL event journal here after the run ("-" = stdout)`)
		tracePath  = flag.String("trace", "", `record the victim core's operating-point timeline and dump it as CSV here ("-" = stdout)`)
		traceOut   = flag.String("trace-out", "", `write the causal span trace as Chrome trace JSON here ("-" = stdout); load in Perfetto`)
		foldedOut  = flag.String("folded-out", "", `write the span trace in folded flamegraph format here ("-" = stdout)`)
		listen     = flag.String("listen", "", `serve /metrics /events /traces /healthz /incidents /debug/pprof on this address (e.g. :8080) while the experiment runs`)
		sloCheck   = flag.Bool("slo", false, "evaluate the guard SLO rules after the run; exit 3 on violation")
		incOut     = flag.String("incidents-out", "", `write captured flight-recorder incident bundles (framed, concatenated) here ("-" = stdout); inspect with plugvolt-incidents`)
		flightW    = flag.Int("flight-window", 0, "post-trigger records per incident bundle (0 = default); only meaningful with -incidents-out or -listen")
		version    = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Fprint(os.Stdout, "plugvolt-guard")
		return
	}

	sys, err := plugvolt.NewSystem(*cpuName, *seed)
	if err != nil {
		fatal(err)
	}
	buildinfo.Register(sys.Telemetry.Registry())

	// Flight recorder: attach before characterization so the ring holds the
	// freshest pre-trigger history of everything the machine did. Captures
	// fire on victim crash and on SLO/energy-budget violations below.
	var frec *flight.Recorder
	if *incOut != "" || *listen != "" {
		frec = sys.AttachFlightRecorder(0, *flightW)
	}
	dumpIncidents := func() {
		if frec == nil || *incOut == "" {
			return
		}
		frec.Seal()
		bundles := frec.Bundles()
		data, err := flight.EncodeAll(bundles)
		if err != nil {
			fatal(err)
		}
		if *incOut == "-" {
			os.Stdout.Write(data)
			return
		}
		if err := os.WriteFile(*incOut, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%d incident bundle(s) written to %s\n", len(bundles), *incOut)
	}

	// The exposition server answers from its own goroutines while main
	// drives the (single-threaded) simulator, so main holds mu while the
	// simulation advances and the server locks it per request; the attack
	// loop releases it briefly between chunks so requests drain.
	var mu sync.Mutex
	var srv *obs.Server
	if *listen != "" {
		srv = &obs.Server{
			Telemetry: sys.Telemetry,
			Collect:   sys.CollectTelemetry,
			Clock:     func() sim.Time { return sys.Platform.Sim.Now() },
			Energy:    func() *obs.EnergyHealth { return energyHealth(sys) },
			Flight:    frec,
			Lock:      &mu,
		}
		httpSrv, addr, err := srv.Start(*listen)
		if err != nil {
			fatal(err)
		}
		defer httpSrv.Close()
		fmt.Fprintf(os.Stderr, "observability server on http://%s\n", addr)
	}
	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("== %s (%s, microcode %s)\n", sys.Platform.Spec.Name,
		sys.Platform.Spec.Codename, sys.Platform.Spec.Microcode)

	fmt.Println("-- S1: characterizing safe/unsafe states (Algorithm 2)...")
	grid, err := sys.Characterize(plugvolt.QuickSweep())
	if err != nil {
		fatal(err)
	}
	unsafe := grid.UnsafeSet()
	msv := grid.MaximalSafeOffsetMV(5)
	fmt.Printf("   unsafe regions found at all %d frequencies; maximal safe state %d mV; %d reboots\n",
		len(unsafe.OnsetMV), msv, grid.Reboots)

	cfg := plugvolt.DefaultGuardConfig()
	cfg.PollPeriod = sim.Duration(poll.Nanoseconds()) * sim.Nanosecond
	pol, err := sys.DeployGuardConfig(grid, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("-- S2: kernel module %q loaded, polling every %v\n", "plug_your_volt", *poll)

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
	if srv != nil {
		srv.Watchdog = watchdog
	}

	// Live adversary: rewrite an unsafe offset on core 1 continually.
	var rec *trace.Recorder
	if *tracePath != "" {
		rec, err = trace.NewRecorder(p.Core(1), 5*sim.Microsecond)
		if err != nil {
			fatal(err)
		}
		if err := rec.Start(p.Sim); err != nil {
			fatal(err)
		}
	}
	freq := p.FreqKHz(1)
	attackOffset := unsafe.OnsetMV[freq] - 60
	attacker := p.Sim.Every(537*sim.Microsecond, func() {
		_ = p.WriteOffsetViaMSR(1, attackOffset, msr.PlaneCore)
	})
	defer attacker.Stop()

	faults := 0
	deadline := p.Sim.Now() + sim.Duration(window.Nanoseconds())*sim.Nanosecond
	for p.Sim.Now() < deadline {
		// Yield the simulator lock between chunks so a live exposition
		// server can answer mid-run.
		mu.Unlock()
		mu.Lock()
		p.Sim.RunFor(200 * sim.Microsecond)
		loop, err := victim.NewIMulLoop(p.Core(1), 100_000)
		if err != nil {
			fatal(err)
		}
		res, err := loop.RunBatch()
		if err != nil {
			fmt.Println("   MACHINE CRASHED under attack — guard failed")
			frec.Trigger(flight.CauseCrash, 1, fmt.Sprintf("victim crashed under attack: %v", err))
			dumpIncidents()
			os.Exit(2)
		}
		faults += res.Faults
	}
	fmt.Printf("-- attack: offset %d mV rewritten every 537us for %v (virtual)\n", attackOffset, *window)
	fmt.Printf("   EXECUTE-thread faults: %d (paper: countermeasure completely eliminates faults)\n", faults)
	fmt.Printf("   guard checks: %d, interventions: %d, last at %v\n",
		pol.Guard.Checks, pol.Guard.Interventions, pol.Guard.LastIntervention)

	printAttribution(sys)

	if rec != nil {
		rec.Stop()
		if err := writeTo(*tracePath, rec.WriteCSV); err != nil {
			fatal(err)
		}
		if *tracePath != "-" {
			fmt.Fprintf(os.Stderr, "trace (%d samples) written to %s\n", rec.Len(), *tracePath)
		}
	}

	// Evaluate the SLO before dumping the journal so violations land in the
	// events output.
	sloFailed := false
	if *sloCheck {
		rep := watchdog.Evaluate(p.Sim.Now())
		rep.EmitJournal(sys.Telemetry.Events())
		fmt.Println("\n-- SLO watchdog")
		fmt.Print(rep.Summary())
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
		if err := writeTo(*traceOut, sys.Telemetry.Spans().WriteChromeTrace); err != nil {
			fatal(err)
		}
		if *traceOut != "-" {
			fmt.Fprintf(os.Stderr, "span trace (%d spans) written to %s\n",
				sys.Telemetry.Spans().Len(), *traceOut)
		}
	}
	if *foldedOut != "" {
		if err := writeTo(*foldedOut, sys.Telemetry.Spans().WriteFolded); err != nil {
			fatal(err)
		}
	}
	if err := sys.DumpTelemetry(*metricsOut, *eventsOut); err != nil {
		fatal(err)
	}

	if *turnaround {
		fmt.Println("\n-- E3: worst-case unsafe-register dwell per deployment level")
		rail := p.Core(0).VR.Config()
		wc := pol.Guard.WorstCaseTurnaround(rail.CommandLatency, rail.SlewMVPerUS)
		report.WriteTurnaround(os.Stdout, []report.TurnaroundRow{
			{Deployment: "kernel module (Sec. 4.3)", WorstCase: wc.String(),
				Note: "poll period + VR command latency + slew from sweep floor"},
			{Deployment: "microcode (Sec. 5.1)", WorstCase: "0",
				Note: "wrmsr to 0x150 is write-ignored before it commits"},
			{Deployment: "clamp MSR (Sec. 5.2)", WorstCase: "0",
				Note: "offset clamped to MSR_VOLTAGE_OFFSET_LIMIT in hardware"},
		})
	}
	dumpIncidents()
	if sloFailed {
		os.Exit(3)
	}
}

// printAttribution renders the Table-2-style overhead attribution: per core,
// the kernel CPU time stolen by the guard split by primitive (kthread wake,
// rdmsr, wrmsr, corrective intervention), and the same decomposition for the
// guard's energy bill in joules. Both splits must sum exactly to the
// kernel's unattributed accounting — if they do not, the cost model leaks.
func printAttribution(sys *plugvolt.System) {
	kinds := kernel.CostKinds()
	fmt.Println("\n-- overhead attribution (virtual kernel CPU time per core)")
	fmt.Printf("   %-6s %14s", "core", "total")
	for _, k := range kinds {
		fmt.Printf(" %14s", k.String())
	}
	fmt.Println()
	for c := 0; c < sys.Platform.NumCores(); c++ {
		total := sys.Kernel.StolenTime(c)
		var sum sim.Duration
		fmt.Printf("   %-6d %14s", c, total.String())
		for _, k := range kinds {
			d := sys.Kernel.StolenTimeBy(k, c)
			sum += d
			fmt.Printf(" %14s", d.String())
		}
		fmt.Println()
		if sum != total {
			fatal(fmt.Errorf("core %d: attribution %v != stolen total %v", c, sum, total))
		}
	}
	fmt.Println("   attribution check: per-kind costs sum to the kernel accounting total on every core")

	fmt.Println("\n-- energy attribution (guard joules per core, kernel-attributed)")
	fmt.Printf("   %-6s %14s", "core", "total J")
	for _, k := range kinds {
		fmt.Printf(" %14s", k.String())
	}
	fmt.Println()
	for c := 0; c < sys.Platform.NumCores(); c++ {
		totalPJ := sys.Kernel.EnergyPJ(c)
		var sumPJ int64
		fmt.Printf("   %-6d %14.9f", c, sys.Kernel.EnergyJ(c))
		for _, k := range kinds {
			pj := sys.Kernel.EnergyPJBy(k, c)
			sumPJ += pj
			fmt.Printf(" %14.9f", float64(pj)*1e-12)
		}
		fmt.Println()
		if sumPJ != totalPJ {
			fatal(fmt.Errorf("core %d: energy attribution %d pJ != total %d pJ", c, sumPJ, totalPJ))
		}
	}
	fmt.Println("   energy check: per-kind joules sum to the core's attributed total on every core")
}

// energyHealth assembles the /healthz joule ledger from the platform's
// integrator and the kernel's guard attribution.
func energyHealth(sys *plugvolt.System) *obs.EnergyHealth {
	tr := sys.Platform.Energy
	h := &obs.EnergyHealth{
		PackageJoules: tr.PackageEnergyJ(),
		CoresJoules:   tr.CoresEnergyJ(),
		GuardByKind:   make(map[string]float64, len(kernel.CostKinds())),
	}
	for c := 0; c < sys.Platform.NumCores(); c++ {
		h.GuardJoules += sys.Kernel.EnergyJ(c)
		for _, k := range kernel.CostKinds() {
			h.GuardByKind[k.String()] += sys.Kernel.EnergyJBy(k, c)
		}
	}
	return h
}

// writeTo renders into the path, with "-" meaning stdout.
func writeTo(path string, render func(io.Writer) error) error {
	if path == "-" {
		return render(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "plugvolt-guard:", err)
	os.Exit(1)
}
