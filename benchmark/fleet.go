package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"plugvolt"
	"plugvolt/internal/attack"
	"plugvolt/internal/fleet"
	"plugvolt/internal/models"
	"plugvolt/internal/rng"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
)

// fleet-idle is ROADMAP's machine-windows/s: 96 mixed machines, each
// guarded and idled for four 0.5 ms epochs, streamed in batches of 24 with
// no attack. Per-machine construction, the quick characterization and
// telemetry collect/merge dominate it; guard polls are a few percent.
func setupFleetIdle(env runEnv) (instance, error) {
	return &fleetRun{name: "fleet-idle", attacks: []string{"none"}, machines: 96, batch: 24,
		epochs: 4, window: 2 * sim.Millisecond, seeds: []int64{env.seed}}, nil
}

// fleetAttackSeeds is how many fleet seeds fleet-attack's ops cycle
// through.
const fleetAttackSeeds = 16

// fleet-attack runs the same engine on its write path: fleets of 8 mixed
// machines under the redteam, voltjockey and v0ltpwn campaigns, with
// dozens of guard interventions per machine, mailbox writes and annealing
// search. A gain on idle fleets that costs interventions shows here.
//
// Now and then redteam crashes a machine, and simulating its 30 s reboot
// under the polling guard costs ten times a whole op. So the fleets are
// small and each op takes the next of fleetAttackSeeds fleet seeds: a crash
// lands in a minority of the ops, and the run's median op is a fleet
// without one, whatever the seed. The tail percentiles keep the crashes.
func setupFleetAttack(env runEnv) (instance, error) {
	f := &fleetRun{name: "fleet-attack", attacks: []string{"redteam", "voltjockey", "v0ltpwn"},
		machines: 8, batch: 8, epochs: 1}
	f.seeds = []int64{env.seed}
	for k := 1; k < fleetAttackSeeds; k++ {
		f.seeds = append(f.seeds, rng.IndexSeed(env.seed, k))
	}
	return f, nil
}

type fleetRun struct {
	name                    string
	attacks                 []string
	machines, batch, epochs int
	window                  sim.Duration
	// seeds are the fleet seeds the ops cycle through; seeds[0] is the run
	// seed.
	seeds []int64
	// want holds each fleet seed's reports, one per attack; every later op
	// with that seed must reproduce them byte for byte.
	want map[int64][]fleetOut
	ops  int
}

// fleetOut is one fleet's simulated output.
type fleetOut struct {
	json, metrics []byte
	agg           fleet.Aggregate
	// events is the machines' simulator event count; only a replicate
	// counts it.
	events uint64
}

func (f *fleetRun) config(attack string, seed int64) fleet.StreamConfig {
	return fleet.StreamConfig{
		Config: fleet.Config{Machines: f.machines, Seed: seed, Attack: attack, Window: f.window},
		Epochs: f.epochs,
		Batch:  f.batch,
	}
}

// reference runs the run seed's fleets on a single worker. Fleet reports
// are byte-identical for any worker count, so the ops, which use GOMAXPROCS
// workers, must reproduce it.
func (f *fleetRun) reference() error {
	f.want = map[int64][]fleetOut{}
	outs, err := f.runAll(f.seeds[0], 1)
	f.want[f.seeds[0]] = outs
	return err
}

// runAll runs the fleet of every attack through fleet.RunStream.
func (f *fleetRun) runAll(seed int64, workers int) ([]fleetOut, error) {
	var outs []fleetOut
	for _, a := range f.attacks {
		cfg := f.config(a, seed)
		cfg.Workers = workers
		rep, err := fleet.RunStream(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s fleet: %w", a, err)
		}
		js, err := rep.JSON()
		if err != nil {
			return nil, err
		}
		var m bytes.Buffer
		if err := rep.WriteMetrics(&m); err != nil {
			return nil, err
		}
		outs = append(outs, fleetOut{json: js, metrics: m.Bytes(), agg: rep.Aggregate})
	}
	return outs, nil
}

// op runs the next fleet seed's fleets through fleet.RunStream on
// GOMAXPROCS workers. In the traced pass it instead replicates each
// machine, on this goroutine, through the public calls fleet.RunStream
// makes, so each call gets a span; the replicate's aggregate and merged
// telemetry must equal fleet.RunStream's before its numbers count. A
// machine error or a report that differs from the seed's first one fails
// the op. A campaign that beats the guard does not: it is a simulated
// outcome, counted in attack.guard_defeats.
func (f *fleetRun) op(tr *tracer, rec *recorder) (string, error) {
	k := f.ops
	if tr != nil {
		k = tr.op
	} else {
		f.ops++
	}
	seed := f.seeds[k%len(f.seeds)]
	want, seen := f.want[seed]
	if !seen && tr != nil {
		var err error
		if want, err = f.runAll(seed, 0); err != nil {
			return "", err
		}
		f.want[seed] = want
	}
	start := time.Now()
	var outs []fleetOut
	var err error
	if tr == nil {
		outs, err = f.runAll(seed, 0)
	} else {
		for _, a := range f.attacks {
			var out fleetOut
			if out, err = replicateFleet(tr, f.config(a, seed)); err != nil {
				break
			}
			outs = append(outs, out)
		}
	}
	el := time.Since(start)
	if err != nil {
		return "", err
	}
	if !seen && tr == nil {
		f.want[seed], want = outs, outs
	}
	parts := map[string][]byte{}
	var agg fleet.Aggregate
	var events uint64
	for i, out := range outs {
		a := f.attacks[i]
		if out.agg != want[i].agg || !bytes.Equal(out.metrics, want[i].metrics) || (tr == nil && !bytes.Equal(out.json, want[i].json)) {
			return "", fmt.Errorf("%s: %s fleet, seed %d: %w", f.name, a, seed, errMismatch)
		}
		if out.agg.Errors != 0 {
			return "", fmt.Errorf("%s: %s fleet, seed %d: %d machine errors", f.name, a, seed, out.agg.Errors)
		}
		parts[fmt.Sprintf("%s/%d", a, seed)] = want[i].json
		agg.Machines += out.agg.Machines
		agg.GuardInterventions += out.agg.GuardInterventions
		agg.MailboxWrites += out.agg.MailboxWrites
		agg.AttacksSucceeded += out.agg.AttacksSucceeded
		events += out.events
	}
	n := float64(agg.Machines)
	if tr == nil {
		if f.name == "fleet-idle" {
			rec.add("machine_windows_per_s", n*float64(f.epochs)/el.Seconds())
		} else {
			rec.add("attacked_machines_per_s", n/el.Seconds())
		}
	}
	// The simulated counts are those of the run seed's fleets, so they
	// repeat exactly for a seed however many ops a run makes.
	if seed == f.seeds[0] {
		rec.add("core.guard_interventions_per_machine", float64(agg.GuardInterventions)/n)
		if f.name == "fleet-attack" {
			rec.add("attack.mailbox_writes_per_machine", float64(agg.MailboxWrites)/n)
			rec.add("attack.guard_defeats", float64(agg.AttacksSucceeded))
		}
		if tr != nil {
			rec.add("sim.events_per_machine", float64(events)/n)
		}
	}
	return digestOf(parts), nil
}

// replicateFleet carries a fleet through the lifecycle fleet.RunStream
// gives each machine (boot, single-shard quick characterization, guard
// deployment, the campaign or the idle epochs, telemetry collection) one
// machine at a time, and folds the rows and snapshots batch by batch in
// machine index order, as RunStream does.
func replicateFleet(tr *tracer, cfg fleet.StreamConfig) (fleetOut, error) {
	names := plugvolt.Models()
	specs := map[string]*models.Spec{}
	for _, n := range names {
		s, err := models.ByName(n)
		if err != nil {
			return fleetOut{}, err
		}
		specs[n] = s
	}
	epochs := max(cfg.Epochs, 1)
	var agg fleet.Aggregate
	agg.Machines = cfg.Machines
	merged := &telemetry.Snapshot{}
	var events uint64
	for lo := 0; lo < cfg.Machines; lo += cfg.Batch {
		snaps := []*telemetry.Snapshot{merged}
		for idx := lo; idx < min(lo+cfg.Batch, cfg.Machines); idx++ {
			id := tr.begin("fleet.machine")
			row, snap, fired, err := replicateMachine(tr, cfg, idx, names[idx%len(names)], specs, epochs)
			tr.end(id)
			if err != nil {
				return fleetOut{}, fmt.Errorf("replicate machine %d: %w", idx, err)
			}
			events += fired
			foldAggregate(&agg, row)
			snaps = append(snaps, snap)
		}
		err := tr.do("telemetry.merge", func() (err error) {
			merged, err = telemetry.MergeSnapshots(snaps...)
			return err
		})
		if err != nil {
			return fleetOut{}, err
		}
	}
	var m bytes.Buffer
	if err := merged.WritePrometheus(&m); err != nil {
		return fleetOut{}, err
	}
	return fleetOut{metrics: m.Bytes(), agg: agg, events: events}, nil
}

// replicateMachine is one machine of replicateFleet. It returns the
// machine's report row, its telemetry snapshot and its simulator's event
// count.
func replicateMachine(tr *tracer, cfg fleet.StreamConfig, idx int, model string, specs map[string]*models.Spec, epochs int) (fleet.MachineSummary, *telemetry.Snapshot, uint64, error) {
	seed := fleet.MachineSeed(cfg.Seed, idx)
	row := fleet.MachineSummary{Index: idx, Model: model, Seed: seed}
	var sys *plugvolt.System
	err := tr.do("plugvolt.boot", func() (err error) {
		sys, err = plugvolt.NewSystemFromSpec(specs[model], seed)
		return err
	})
	if err != nil {
		return row, nil, 0, err
	}
	var grid *plugvolt.Grid
	err = tr.do("core.characterize_quick", func() (err error) {
		sweep := plugvolt.QuickSweep()
		sweep.Workers = 1
		grid, err = sys.Characterize(sweep)
		return err
	})
	if err != nil {
		return row, nil, 0, err
	}
	var guard *plugvolt.Guard
	var guardName string
	err = tr.do("core.deploy", func() error {
		pol, err := sys.DeployGuardConfig(grid, plugvolt.DefaultGuardConfig())
		if err != nil {
			return err
		}
		guard, guardName = pol.Guard, pol.Name()
		return nil
	})
	if err != nil {
		return row, nil, 0, err
	}
	if cfg.Attack != "none" {
		var atk attack.Attack
		switch cfg.Attack {
		case "redteam":
			atk = attack.DefaultRedTeam(seed)
		case "voltjockey":
			atk = attack.DefaultVoltJockey()
		case "v0ltpwn":
			atk = attack.DefaultV0LTpwn()
		default:
			return row, nil, 0, errors.New("no replicate for attack " + cfg.Attack)
		}
		var res *attack.Result
		err = tr.do("attack.campaign."+cfg.Attack, func() (err error) {
			res, err = atk.Run(sys.Env(), guardName)
			return err
		})
		if err != nil {
			return row, nil, 0, err
		}
		row.Attack = &fleet.AttackSummary{Name: res.Attack, Succeeded: res.Succeeded,
			MailboxWrites: res.MailboxWrites, BlockedWrites: res.BlockedWrites,
			FaultsObserved: res.FaultsObserved, Crashes: res.Crashes}
	} else {
		slice := cfg.Window / sim.Duration(epochs)
		for e := 0; e < epochs; e++ {
			d := slice
			if e == epochs-1 {
				d = cfg.Window - slice*sim.Duration(epochs-1)
			}
			tr.do("sim.idle_window", func() error { sys.RunFor(d); return nil })
		}
	}
	row.GuardChecks = guard.Checks
	row.GuardInterventions = guard.Interventions
	row.Reboots = sys.Platform.Reboots
	row.VirtualPS = int64(sys.Platform.Sim.Now())
	row.EnergyJ = sys.Platform.Energy.PackageEnergyJ()
	tr.do("telemetry.collect", func() error { sys.CollectTelemetry(); return nil })
	var snap *telemetry.Snapshot
	tr.do("telemetry.snapshot", func() error { snap = sys.Telemetry.Registry().Snapshot(); return nil })
	return row, snap, sys.Platform.Sim.Fired(), nil
}

// foldAggregate adds one machine row to a fleet aggregate, as the fleet
// engine does.
func foldAggregate(agg *fleet.Aggregate, row fleet.MachineSummary) {
	agg.GuardChecks += row.GuardChecks
	agg.GuardInterventions += row.GuardInterventions
	agg.Reboots += row.Reboots
	agg.VirtualPS += row.VirtualPS
	agg.EnergyJ += row.EnergyJ
	if a := row.Attack; a != nil {
		agg.AttacksRun++
		if a.Succeeded {
			agg.AttacksSucceeded++
		} else {
			agg.AttacksDefeated++
		}
		agg.MailboxWrites += a.MailboxWrites
		agg.BlockedWrites += a.BlockedWrites
		agg.FaultsObserved += a.FaultsObserved
		agg.Crashes += a.Crashes
	}
}

func (f *fleetRun) layers(tp *tracePass) (map[string]float64, error) {
	tr := tp.tr
	workers := runtime.GOMAXPROCS(0)
	vals := map[string]float64{
		"plugvolt.boot_us":           medianOf(tr.named("plugvolt.boot"), time.Microsecond),
		"core.characterize_quick_ms": medianOf(tr.named("core.characterize_quick"), time.Millisecond),
		"core.deploy_us":             medianOf(tr.named("core.deploy"), time.Microsecond),
		"sim.idle_window_us":         medianOf(tr.named("sim.idle_window"), time.Microsecond),
		"telemetry.collect_us":       medianOf(tr.named("telemetry.collect"), time.Microsecond),
		"telemetry.snapshot_us":      medianOf(tr.named("telemetry.snapshot"), time.Microsecond),
		"telemetry.merge_us":         medianOf(tr.named("telemetry.merge"), time.Microsecond),
		// The pool's busy share: machine time the traced pass measured on
		// one goroutine, over the worker time the timed pass had.
		"fleet.pool_utilization": float64(sumOf(tr.named("fleet.machine"))) / float64(tr.op+1) /
			(float64(workers) * tp.timed.median("op_ms") * float64(time.Millisecond)),
	}
	for _, a := range f.attacks {
		if a != "none" {
			vals["attack.campaign_ms."+a] = medianOf(tr.named("attack.campaign."+a), time.Millisecond)
		}
	}
	vals["sim.events_per_machine"] = tp.rec.median("sim.events_per_machine")
	return vals, nil
}
