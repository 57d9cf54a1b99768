// plugvolt-trace records the victim core's rail-voltage timeline during a
// live attack and reports the empirical unsafe dwell — the measured version
// of the Sec. 5 turnaround analysis.
//
// Usage:
//
//	plugvolt-trace -cpu skylake                 # guarded run, dwell stats
//	plugvolt-trace -cpu skylake -unguarded      # control run
//	plugvolt-trace -csv timeline.csv            # dump samples for plotting
//
// Exit codes: 0 success; 1 configuration or runtime error; 2 usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"plugvolt"
	"plugvolt/internal/buildinfo"
	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
	"plugvolt/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: flag parsing, the traced
// attack and its report, with no direct os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plugvolt-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cpuName   = fs.String("cpu", "skylake", "CPU model")
		seed      = fs.Int64("seed", 42, "experiment seed")
		unguarded = fs.Bool("unguarded", false, "run the control experiment without the module")
		csvPath   = fs.String("csv", "", `write the sample timeline to this CSV file ("-" = stdout)`)
		version   = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "plugvolt-trace: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *version {
		buildinfo.Fprint(stdout, "plugvolt-trace")
		return 0
	}
	if err := traceAttack(stdout, stderr, *cpuName, *seed, *unguarded, *csvPath); err != nil {
		fmt.Fprintln(stderr, "plugvolt-trace:", err)
		return 1
	}
	return 0
}

// traceAttack runs the 25 ms attack on a characterized machine, guarded or
// not, and reports the register and rail dwell in the unsafe set.
func traceAttack(stdout, stderr io.Writer, cpuName string, seed int64, unguarded bool, csvPath string) error {
	sys, err := plugvolt.NewSystem(cpuName, seed)
	if err != nil {
		return err
	}
	grid, err := sys.Characterize(plugvolt.QuickSweep())
	if err != nil {
		return err
	}
	unsafe := grid.UnsafeSet()
	if !unguarded {
		if _, err := sys.DeployGuard(grid); err != nil {
			return err
		}
	}

	p := sys.Platform
	victim := 1
	rec, err := trace.NewRecorder(p.Core(victim), 5*sim.Microsecond)
	if err != nil {
		return err
	}
	if err := rec.Start(p.Sim); err != nil {
		return err
	}
	freq := p.FreqKHz(victim)
	attackOffset := unsafe.OnsetMV[freq] - 60
	attacker := p.Sim.Every(537*sim.Microsecond, func() {
		_ = p.WriteOffsetViaMSR(victim, attackOffset, msr.PlaneCore)
	})
	p.Sim.RunFor(25 * sim.Millisecond)
	attacker.Stop()
	rec.Stop()

	mode := "guarded"
	if unguarded {
		mode = "UNGUARDED (control)"
	}
	fmt.Fprintf(stdout, "%s on %s: attacker writes %d mV every 537us for 25ms; %d samples at 5us\n\n",
		mode, p.Spec.Codename, attackOffset, rec.Len())

	reg := rec.UnsafeRegisterDwell(unsafe)
	fmt.Fprintf(stdout, "unsafe REGISTER dwell: total %v, longest %v, %d episodes (%.2f%% of run)\n",
		reg.Total, reg.Longest, reg.Episodes, reg.Fraction()*100)
	rail := rec.UnsafeRailDwell(unsafe, func(freqKHz int) float64 {
		return p.Spec.NominalMV(msr.KHzToRatio(freqKHz, p.Spec.BusMHz))
	})
	fmt.Fprintf(stdout, "unsafe RAIL dwell:     total %v, longest %v, %d episodes (%.2f%% of run)\n",
		rail.Total, rail.Longest, rail.Episodes, rail.Fraction()*100)
	min, at, err := rec.MinRailMV()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "deepest rail: %.1f mV at %v (nominal %.1f mV)\n",
		min, at, p.Spec.NominalMV(msr.KHzToRatio(freq, p.Spec.BusMHz)))
	if !unguarded && rail.Total == 0 {
		fmt.Fprintln(stdout, "\n=> the regulator never realized an unsafe voltage: the polling guard")
		fmt.Fprintln(stdout, "   wins the register-vs-rail race, which is the measured mechanism behind")
		fmt.Fprintln(stdout, "   the paper's \"completely prevents DVFS faults\" result.")
	}

	if csvPath == "" {
		return nil
	}
	if err := telemetry.WriteOut(csvPath, stdout, rec.WriteCSV); err != nil {
		return err
	}
	if csvPath != "-" {
		fmt.Fprintf(stderr, "timeline written to %s\n", csvPath)
	}
	return nil
}
