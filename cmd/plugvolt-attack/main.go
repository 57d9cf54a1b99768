// plugvolt-attack runs the published DVFS fault attacks against a chosen
// defense on a simulated CPU — the experiment E1/E2 driver.
//
// Usage:
//
//	plugvolt-attack -cpu skylake -attack plundervolt -defense none
//	plugvolt-attack -attack all -defense polling
//	plugvolt-attack -matrix            # full attack x defense matrix
//	plugvolt-attack -search anneal -defense polling
//
// -matrix runs every attack against every defense, so it reads neither
// -attack nor -defense; -search anneal replaces the attack list with the
// annealing red-team attacker, so it does not read -attack either.
//
// Exit codes: 0 success; 1 runtime error; 2 usage error, including an
// unknown attack, defense or search name, a flag the selected mode does not
// read, and -flight-window without -incidents-out.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"plugvolt"
	"plugvolt/internal/attack"
	"plugvolt/internal/buildinfo"
	"plugvolt/internal/defense"
	"plugvolt/internal/flight"
	"plugvolt/internal/report"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
)

var (
	// replayAttacks are the published fixed-schedule campaigns, in matrix
	// order; "redteam" is the annealing attacker.
	replayAttacks = []string{"plundervolt", "voltjockey", "v0ltpwn"}
	// defenseNames is the E2 lineup in sys.Defenses order.
	defenseNames = []string{"none", "access-control", "polling", "microcode", "clamp"}
)

// campaignClock lets one telemetry set follow the matrix across systems:
// every combination boots a fresh simulator, and the clock tracks whichever
// one is currently running. Counters and journal entries from all
// combinations accumulate in the shared set, distinguished by their
// {attack, defense} labels.
type campaignClock struct{ cur *sim.Simulator }

func (c *campaignClock) now() sim.Time {
	if c.cur == nil {
		return 0
	}
	return c.cur.Now()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: flag parsing, the campaigns
// and their outputs, with no direct os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plugvolt-attack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cpuName = fs.String("cpu", "skylake", "CPU model: skylake, kabylaker or cometlake")
		seed    = fs.Int64("seed", 42, "experiment seed")
		atkName = fs.String("attack", "plundervolt", "attack: plundervolt, voltjockey, v0ltpwn, redteam or all")
		search  = fs.String("search", "replay", "attack schedule: replay (published fixed schedules) or anneal (adaptive red-team glitch search; one search-trace span per probe)")
		defName = fs.String("defense", "none", "defense: none, access-control, polling, microcode, clamp or all")
		matrix  = fs.Bool("matrix", false, "run every attack against every defense")
		metrics = fs.String("metrics-out", "", `write the Prometheus metric exposition here after the matrix ("-" = stdout)`)
		events  = fs.String("events-out", "", `write the JSONL event journal here after the matrix ("-" = stdout)`)
		incOut  = fs.String("incidents-out", "", `write captured flight-recorder incident bundles (framed, concatenated) here ("-" = stdout); inspect with plugvolt-incidents`)
		flightW = fs.Int("flight-window", 0, "post-trigger records per incident bundle (0 = default); read only with -incidents-out")
		version = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "plugvolt-attack: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *version {
		buildinfo.Fprint(stdout, "plugvolt-attack")
		return 0
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "plugvolt-attack: "+format+"\n", a...)
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	switch {
	case *search != "replay" && *search != "anneal":
		return usage("unknown search mode %q (want replay or anneal)", *search)
	case *matrix && (set["attack"] || set["defense"]):
		return usage("-matrix does not read -attack or -defense")
	case *search == "anneal" && set["attack"]:
		return usage("-search anneal does not read -attack")
	case set["flight-window"] && *incOut == "":
		return usage("-flight-window is read only with -incidents-out")
	}
	attackNames := []string{*atkName}
	switch {
	case *search == "anneal":
		// The adaptive glitch search replaces the published schedules: the
		// campaign list collapses to the annealing red-team attacker.
		attackNames = []string{"redteam"}
	case *matrix || *atkName == "all":
		attackNames = replayAttacks
	case *atkName != "redteam" && !slices.Contains(replayAttacks, *atkName):
		return usage("unknown attack %q", *atkName)
	}
	defenses := []string{*defName}
	switch {
	case *matrix || *defName == "all":
		defenses = defenseNames
	case !slices.Contains(defenseNames, *defName):
		return usage("unknown defense %q", *defName)
	}

	clock := &campaignClock{}
	tel := telemetry.NewSet(clock.now, telemetry.DefaultJournalCap, *seed)
	var results []*attack.Result
	var bundles []*flight.Bundle
	for _, dn := range defenses {
		for _, an := range attackNames {
			res, incidents, err := runOne(*cpuName, *seed, an, dn, *incOut != "", *flightW, tel, clock)
			if err != nil {
				fmt.Fprintln(stderr, "plugvolt-attack:", err)
				return 1
			}
			results = append(results, res)
			// Combo order: the incidents file is a pure function of the
			// flag set and seed, byte-identical across invocations.
			bundles = append(bundles, incidents...)
		}
	}
	report.WriteAttackResults(stdout, results)
	fmt.Fprintln(stdout)
	for _, r := range results {
		if r.Notes != "" {
			fmt.Fprintf(stdout, "  %s vs %s: %s\n", r.Attack, r.Defense, r.Notes)
		}
	}
	if err := writeOutputs(stdout, tel, bundles, *metrics, *events, *incOut); err != nil {
		fmt.Fprintln(stderr, "plugvolt-attack:", err)
		return 1
	}
	return 0
}

// writeOutputs writes the requested exposition, journal and incident
// bundles; an empty path skips that output.
func writeOutputs(stdout io.Writer, tel *telemetry.Set, bundles []*flight.Bundle, metrics, events, incOut string) error {
	if metrics != "" {
		if err := telemetry.WriteOut(metrics, stdout, tel.Registry().Snapshot().WritePrometheus); err != nil {
			return err
		}
	}
	if events != "" {
		if err := telemetry.WriteOut(events, stdout, tel.Events().WriteJSONL); err != nil {
			return err
		}
	}
	if incOut == "" {
		return nil
	}
	data, err := flight.EncodeAll(bundles)
	if err != nil {
		return err
	}
	if err := telemetry.WriteOutBytes(incOut, stdout, data); err != nil {
		return err
	}
	if incOut != "-" {
		fmt.Fprintf(stdout, "\n%d incident bundle(s) written to %s\n", len(bundles), incOut)
	}
	return nil
}

// runOne boots a fresh system per combination so campaigns never share
// state (crashes, characterization, module residue); the shared telemetry
// set is rewired onto each system in turn. With record set, a flight
// recorder rides along and the combination's captured incident bundles are
// returned (victim faults and crashes trigger captures).
func runOne(cpuName string, seed int64, attackName, defenseName string, record bool, window int, tel *telemetry.Set, clock *campaignClock) (*attack.Result, []*flight.Bundle, error) {
	sys, err := plugvolt.NewSystem(cpuName, seed)
	if err != nil {
		return nil, nil, err
	}
	sys.SetTelemetry(tel)
	var rec *flight.Recorder
	if record {
		rec = sys.AttachFlightRecorder(0, window)
	}
	clock.cur = sys.Platform.Sim
	var cm plugvolt.Countermeasure = defense.None{}
	if defenseName != "none" {
		grid, err := sys.Characterize(plugvolt.QuickSweep())
		if err != nil {
			return nil, nil, err
		}
		all, err := sys.Defenses(grid)
		if err != nil {
			return nil, nil, err
		}
		cm = all[slices.Index(defenseNames, defenseName)]
	}
	if err := cm.Install(sys.Env()); err != nil {
		return nil, nil, err
	}
	var atk attack.Attack
	switch attackName {
	case "plundervolt":
		atk = attack.DefaultPlundervolt(seed)
	case "voltjockey":
		atk = attack.DefaultVoltJockey()
	case "v0ltpwn":
		atk = attack.DefaultV0LTpwn()
	case "redteam":
		atk = attack.DefaultRedTeam(seed)
	default:
		return nil, nil, fmt.Errorf("unknown attack %q", attackName)
	}
	res, err := atk.Run(sys.Env(), cm.Name())
	if err == nil {
		sys.CollectTelemetry()
	}
	var incidents []*flight.Bundle
	if rec != nil {
		rec.Seal()
		incidents = rec.Bundles()
	}
	return res, incidents, err
}
