// plugvolt-overhead regenerates Table 2: SPECrate2017 stand-in scores with
// and without the polling kernel module, on Comet Lake as in the paper.
//
// Usage:
//
//	plugvolt-overhead
//	plugvolt-overhead -cpu skylake -markdown
//	plugvolt-overhead -sweep
//	plugvolt-overhead -energy
//
// -sweep and -energy select a report other than Table 2. -markdown is read
// only by Table 2; -percore, -metrics-out and -events-out by Table 2 and
// -sweep.
//
// Exit codes: 0 success; 1 configuration or runtime error; 2 usage error,
// including -sweep with -energy and a flag the selected mode does not read.
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
	"plugvolt/internal/msr"
	"plugvolt/internal/power"
	"plugvolt/internal/pstate"
	"plugvolt/internal/report"
	"plugvolt/internal/sim"
	"plugvolt/internal/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: flag parsing, the selected
// measurement and its outputs, with no direct os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plugvolt-overhead", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cpuName  = fs.String("cpu", "cometlake", "CPU model (paper: cometlake)")
		seed     = fs.Int64("seed", 2017, "experiment seed")
		markdown = fs.Bool("markdown", false, "emit markdown instead of plain text")
		sweep    = fs.Bool("sweep", false, "sweep poll periods and report the overhead/protection trade-off")
		energy   = fs.Bool("energy", false, "report the guard's energy overhead and the safe-undervolt vs full-clamp savings")
		perCore  = fs.Bool("percore", false, "deploy one guard kthread per core instead of a single poller")
		metrics  = fs.String("metrics-out", "", `write the Prometheus metric exposition here after the run ("-" = stdout)`)
		events   = fs.String("events-out", "", `write the JSONL event journal here after the run ("-" = stdout)`)
		version  = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "plugvolt-overhead: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *version {
		buildinfo.Fprint(stdout, "plugvolt-overhead")
		return 0
	}
	var mode string
	var unread []string
	switch {
	case *sweep:
		mode, unread = "-sweep", []string{"energy", "markdown"}
	case *energy:
		mode, unread = "-energy", []string{"markdown", "percore", "metrics-out", "events-out"}
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range unread {
		if set[name] {
			fmt.Fprintf(stderr, "plugvolt-overhead: %s does not read -%s\n", mode, name)
			return 2
		}
	}

	var err error
	switch {
	case *sweep:
		err = runSweep(stdout, *cpuName, *seed, *perCore, *metrics, *events)
	case *energy:
		err = runEnergy(stdout, stderr, *cpuName, *seed)
	default:
		err = runTable2(stdout, stderr, *cpuName, *seed, *perCore, *markdown, *metrics, *events)
	}
	if err != nil {
		fmt.Fprintln(stderr, "plugvolt-overhead:", err)
		return 1
	}
	return 0
}

// runTable2 measures the 23 benchmarks with the guard module unloaded and
// loaded, and renders Table 2.
func runTable2(stdout, stderr io.Writer, cpuName string, seed int64, perCore, markdown bool, metricsOut, eventsOut string) error {
	sys, err := plugvolt.NewSystem(cpuName, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "characterizing %s for the guard's unsafe set...\n", sys.Platform.Spec.Codename)
	grid, err := sys.Characterize(plugvolt.QuickSweep())
	if err != nil {
		return err
	}
	gcfg := core.DefaultGuardConfig()
	gcfg.PerCoreThreads = perCore
	gcfg.Telemetry = sys.Telemetry
	guard, err := core.NewGuard(grid.UnsafeSet(), sys.Platform.Spec.BusMHz, gcfg)
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
	fmt.Fprintln(stderr, "measuring 23 benchmarks x {base, peak} x {module off, on}...")
	tab, err := h.MeasureTable(loadGuard, 0)
	if err != nil {
		return err
	}
	if markdown {
		report.WriteTable2Markdown(stdout, tab)
	} else {
		report.WriteTable2(stdout, tab)
	}
	return sys.DumpTelemetry(metricsOut, eventsOut, stdout)
}

// runSweep measures the overhead/protection trade-off across poll periods:
// the paper's Algorithm 3 leaves pacing unspecified, so this table is the
// design-space view behind the default 100 us choice.
func runSweep(stdout io.Writer, cpuName string, seed int64, perCore bool, metricsOut, eventsOut string) error {
	sys, err := plugvolt.NewSystem(cpuName, seed)
	if err != nil {
		return err
	}
	grid, err := sys.Characterize(plugvolt.QuickSweep())
	if err != nil {
		return err
	}
	unsafe := grid.UnsafeSet()
	rail := sys.Platform.Core(0).VR.Config()
	// The rail-race bound is set by the *shallowest* onset anywhere in the
	// table: that is the least voltage travel an attacker needs.
	shallowest := -100000
	for _, on := range unsafe.OnsetMV {
		if on > shallowest {
			shallowest = on
		}
	}
	travel := rail.CommandLatency + sim.Duration(float64(-shallowest)/rail.SlewMVPerUS)*sim.Microsecond
	fmt.Fprintf(stdout, "poll-period sweep on %s (per-core=%v); shallowest onset %d mV -> rail travel %v\n\n",
		sys.Platform.Spec.Codename, perCore, shallowest, travel)
	fmt.Fprintf(stdout, "%-10s %14s %18s %16s\n", "period", "pinned cost", "worst turnaround", "rail-race margin")
	var last *plugvolt.System
	for _, period := range []sim.Duration{20 * sim.Microsecond, 50 * sim.Microsecond,
		100 * sim.Microsecond, 250 * sim.Microsecond, 1 * sim.Millisecond, 10 * sim.Millisecond} {
		s2, err := plugvolt.NewSystem(cpuName, seed)
		if err != nil {
			return err
		}
		last = s2
		cfg := core.DefaultGuardConfig()
		cfg.PollPeriod = period
		cfg.PerCoreThreads = perCore
		cfg.Telemetry = s2.Telemetry
		g, err := core.NewGuard(unsafe, s2.Platform.Spec.BusMHz, cfg)
		if err != nil {
			return err
		}
		if err := s2.Kernel.Load(g.Module()); err != nil {
			return err
		}
		window := 500 * sim.Millisecond
		s2.Kernel.ResetStolenTime()
		s2.RunFor(window)
		frac := float64(s2.Kernel.StolenTime(0)) / float64(window) * 100
		ta := g.WorstCaseTurnaround(rail.CommandLatency, rail.SlewMVPerUS)
		// Positive margin: the register poll beats the rail's descent to
		// the shallowest fault boundary; negative: the race is lost.
		margin := travel - period
		status := "+" + margin.String()
		if margin < 0 {
			status = "-" + (-margin).String() + " (RACE LOST)"
		}
		fmt.Fprintf(stdout, "%-10v %13.3f%% %18v %16s\n", period, frac, ta, status)
	}
	// The sweep boots a fresh system per period; the exported metrics cover
	// the last (10 ms) configuration.
	return last.DumpTelemetry(metricsOut, eventsOut, stdout)
}

// runEnergy puts joule numbers next to the paper's two headline claims:
// the countermeasure is nearly free (Table 2's 0.28% runtime overhead gets
// an energy twin from the kernel's attributed joule ledger), and it
// preserves benign undervolting (Sec. 6's availability argument gets a
// measured safe-undervolt vs full-clamp savings figure, cross-checked
// against the closed-form CV²f model).
func runEnergy(stdout, stderr io.Writer, cpuName string, seed int64) error {
	window := 500 * sim.Millisecond

	// A) Guard energy overhead. Deploy the guard exactly as plugvolt-guard
	// does, run a quiet window, and compare the kernel-attributed guard
	// joules against the package total over the same span.
	sys, err := plugvolt.NewSystem(cpuName, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "characterizing %s for the guard's unsafe set...\n", sys.Platform.Spec.Codename)
	grid, err := sys.Characterize(plugvolt.QuickSweep())
	if err != nil {
		return err
	}
	safeMV := grid.MaximalSafeOffsetMV(5)
	if _, err := sys.DeployGuardConfig(grid, plugvolt.DefaultGuardConfig()); err != nil {
		return err
	}
	sys.Kernel.ResetStolenTime()
	tr := sys.Platform.Energy
	pkgBefore := tr.PackageEnergyJ()
	sys.RunFor(window)
	pkgJ := tr.PackageEnergyJ() - pkgBefore
	var guardJ float64
	for c := 0; c < sys.Platform.NumCores(); c++ {
		guardJ += sys.Kernel.EnergyJ(c)
	}
	runtimePct := float64(sys.Kernel.StolenTime(0)) / float64(window) * 100
	energyPct := guardJ / pkgJ * 100
	fmt.Fprintf(stdout, "== guard overhead over %v (poll %v, %s)\n",
		window, plugvolt.DefaultGuardConfig().PollPeriod, sys.Platform.Spec.Codename)
	fmt.Fprintf(stdout, "   package energy:        %10.4f J\n", pkgJ)
	fmt.Fprintf(stdout, "   guard energy (attrib): %10.6f J\n", guardJ)
	fmt.Fprintf(stdout, "   energy overhead:       %10.4f %%   (paper Table 2 runtime overhead: 0.28%%)\n", energyPct)
	fmt.Fprintf(stdout, "   runtime overhead:      %10.4f %%\n", runtimePct)

	// B) Safe undervolt vs full clamp. The clamp deployment (Sec. 5.2)
	// forbids undervolting outright; the polling guard keeps the maximal
	// safe state available. Measure both on identical fresh systems and
	// cross-check against the model's closed form. Core planes only — the
	// fixed uncore draw would dilute both sides equally.
	clampJ, err := measureCoresJ(cpuName, seed, window, 0)
	if err != nil {
		return err
	}
	safeJ, err := measureCoresJ(cpuName, seed, window, safeMV)
	if err != nil {
		return err
	}
	measured := (clampJ - safeJ) / clampJ * 100
	probe, err := plugvolt.NewSystem(cpuName, seed)
	if err != nil {
		return err
	}
	c0 := probe.Platform.Core(0)
	analytic := power.ModelFor(probe.Platform.Spec.Codename).
		UndervoltSavingsPct(c0.CommandedGHz(), c0.CommandedVoltV()*1000, safeMV)
	fmt.Fprintf(stdout, "\n== safe undervolt (%d mV) vs full clamp (0 mV) over %v\n", safeMV, window)
	fmt.Fprintf(stdout, "   clamp energy (cores):  %10.4f J\n", clampJ)
	fmt.Fprintf(stdout, "   safe undervolt:        %10.4f J\n", safeJ)
	fmt.Fprintf(stdout, "   measured savings:      %10.2f %%\n", measured)
	fmt.Fprintf(stdout, "   model closed form:     %10.2f %%   (savings the clamp deployment forfeits)\n", analytic)

	// C) Per-governor energy curve: the same window under each static
	// scaling governor, from the same integrator that labels the
	// power_core_energy_joules{governor} telemetry series.
	fmt.Fprintf(stdout, "\n== per-governor energy over %v\n", window)
	fmt.Fprintf(stdout, "   %-12s %12s %10s\n", "governor", "cores J", "avg W")
	for _, gov := range []string{pstate.GovPerformance, pstate.GovPowersave} {
		g, err := plugvolt.NewSystem(cpuName, seed)
		if err != nil {
			return err
		}
		for c := 0; c < g.Platform.NumCores(); c++ {
			if err := g.CPUFreq.SetGovernor(c, gov); err != nil {
				return err
			}
		}
		before := g.Platform.Energy.CoresEnergyJ()
		g.RunFor(window)
		e := g.Platform.Energy.CoresEnergyJ() - before
		fmt.Fprintf(stdout, "   %-12s %12.4f %10.3f\n", gov, e, e/window.Seconds())
	}
	return nil
}

// measureCoresJ boots a fresh system, applies offsetMV on every core's
// plane, and returns the summed core-plane energy over the window.
func measureCoresJ(cpuName string, seed int64, window sim.Duration, offsetMV int) (float64, error) {
	s, err := plugvolt.NewSystem(cpuName, seed)
	if err != nil {
		return 0, err
	}
	if offsetMV != 0 {
		for c := 0; c < s.Platform.NumCores(); c++ {
			if err := s.Platform.WriteOffsetViaMSR(c, offsetMV, msr.PlaneCore); err != nil {
				return 0, err
			}
		}
	}
	before := s.Platform.Energy.CoresEnergyJ()
	s.RunFor(window)
	return s.Platform.Energy.CoresEnergyJ() - before, nil
}
