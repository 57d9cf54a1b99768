// Package fleet is the repository's first fleet-scale workload: a worker-pool
// engine that simulates N independent guarded machines — mixed Sky Lake /
// Kaby Lake R / Comet Lake specs — each booting, characterizing, deploying
// the polling countermeasure and (optionally) surviving an attack campaign,
// with every machine's telemetry merged into one aggregate report.
//
// This is the setting the ROADMAP's production north star describes and the
// one software-driven fault attacks actually target: not one lab machine but
// a heterogeneous fleet, every member running the guard continuously. The
// engine exists to answer fleet-shaped questions (how many interventions per
// thousand machines? what does the merged poll-latency distribution look
// like?) and to give the benchmark harness a multi-core workload whose inner
// loop is the guard's zero-alloc poll path.
//
// Determinism mirrors the PR 1 sharding invariant: machine i's seed is
// MachineSeed(fleet seed, i) — a pure function of the index — machines are
// simulated on private platforms, and results fold in machine index order
// (RunStream, stream.go), never in completion order. The report (JSON and
// merged Prometheus exposition) is therefore byte-identical for any
// -workers value.
//
// Model specs are shared: one *models.Spec per distinct model serves every
// machine of that model, so the validated timing-circuit template and the
// derived frequency/voltage tables (models' derived cache, timing
// Clone/Prepare) are built once per model, not once per machine.
package fleet

import (
	"errors"
	"fmt"

	"plugvolt"
	"plugvolt/internal/attack"
	"plugvolt/internal/flight"
	"plugvolt/internal/models"
	"plugvolt/internal/rng"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
)

// AttackNames lists the campaign selectors Config.Attack accepts; "none"
// idles the fleet under guard for Config.Window instead of attacking it.
func AttackNames() []string {
	return []string{"plundervolt", "voltjockey", "v0ltpwn", "redteam", "none"}
}

// MachineError is one machine's failure: which machine, which lifecycle
// stage ("boot", "characterize", "deploy", "attack") and why. The cause is
// carried as a string so the error is checkpoint- and JSON-serializable.
type MachineError struct {
	Index int    `json:"index"`
	Model string `json:"model"`
	Stage string `json:"stage"`
	Cause string `json:"cause"`
}

func (e *MachineError) Error() string {
	return fmt.Sprintf("machine %d (%s): %s: %s", e.Index, e.Model, e.Stage, e.Cause)
}

// maxRecordedFailures bounds how many MachineErrors a PartialError retains
// verbatim; Total keeps the full count so a million-machine run with a
// systematic failure cannot balloon the error (or a checkpoint) itself.
const maxRecordedFailures = 16

// PartialError reports that the fleet completed but some machines failed.
// RunStream returns it alongside a fully-populated report: the
// healthy machines' results are valid, and the caller decides whether a
// partial fleet is acceptable. Failures are listed in machine-index order,
// capped at maxRecordedFailures; Total counts every failure.
type PartialError struct {
	Total    int             `json:"total"`
	Failures []*MachineError `json:"failures"`
}

func (e *PartialError) Error() string {
	if len(e.Failures) == 0 {
		return fmt.Sprintf("fleet: %d machine(s) failed", e.Total)
	}
	msg := fmt.Sprintf("fleet: %d machine(s) failed; first: %s", e.Total, e.Failures[0].Error())
	if e.Total > len(e.Failures) {
		msg += fmt.Sprintf(" (+%d more not recorded)", e.Total-len(e.Failures))
	}
	return msg
}

// record appends a failure, honouring the cap.
func (e *PartialError) record(me *MachineError) {
	e.Total++
	if len(e.Failures) < maxRecordedFailures {
		e.Failures = append(e.Failures, me)
	}
}

// failpoint, when non-nil, injects an error at the named lifecycle stage of
// machine idx. Test-only hook: it lets the partial-failure contract be
// exercised per stage and per machine without contriving real hardware
// failures. Set before calling RunStream, restore after it returns.
var failpoint func(stage string, idx int) error

func injectedFailure(stage string, idx int) error {
	if failpoint == nil {
		return nil
	}
	return failpoint(stage, idx)
}

// Config parameterizes a fleet run.
type Config struct {
	// Machines is the fleet size.
	Machines int
	// Workers bounds simulation concurrency; <= 0 means GOMAXPROCS. The
	// worker count never changes any result byte — only wall-clock time.
	Workers int
	// Models are cycled over the machine index (machine i gets
	// Models[i%len]); empty means plugvolt.Models() — the full mixed fleet.
	Models []string
	// Seed is the fleet seed; machine i derives MachineSeed(Seed, i).
	Seed int64
	// Attack names the campaign every machine faces (see AttackNames).
	Attack string
	// Window is how long an unattacked machine idles under guard (Attack
	// "none"); default 10 ms of virtual time.
	Window sim.Duration
	// Sweep overrides the characterization config; the zero value selects
	// plugvolt.QuickSweep(). Sweep.Workers is forced to 1: parallelism
	// belongs to the fleet pool, and a single-sharded sweep keeps the
	// worker-labeled characterizer metrics deterministic.
	Sweep plugvolt.CharacterizerConfig
	// Guard overrides the countermeasure config; the zero value selects
	// plugvolt.DefaultGuardConfig().
	Guard plugvolt.GuardConfig
	// FlightWindow, when > 0, attaches a flight recorder to every machine:
	// pre-trigger state (mailbox writes, P-state retargets, guard polls,
	// energy segments) is continuously ring-logged on the virtual clock, and
	// a victim fault or crash freezes a deterministic incident bundle with
	// this many post-trigger records. Captured bundles surface in the
	// report's Incidents list (machine index order, capped at
	// maxRecordedIncidents) and in per-model and aggregate counts.
	// 0 disables recording entirely — the guard hot path never sees the
	// recorder.
	FlightWindow int
}

// MachineSeed derives machine index's seed from the fleet seed — a pure
// function of the index, mirroring the characterizer's RowSeed(seed, freq)
// idiom, so a machine replays identically no matter which worker runs it.
func MachineSeed(base int64, index int) int64 {
	return rng.IndexSeed(base, index)
}

// AttackSummary is the per-machine campaign outcome in report form.
type AttackSummary struct {
	Name           string `json:"name"`
	Succeeded      bool   `json:"succeeded"`
	Attempts       int    `json:"attempts"`
	MailboxWrites  int    `json:"mailbox_writes"`
	BlockedWrites  int    `json:"blocked_writes"`
	FaultsObserved int    `json:"faults_observed"`
	Crashes        int    `json:"crashes"`
	// ProbesToFirstFault is the 1-based probe ordinal at which a
	// search-based campaign (redteam) landed its first fault; 0 means no
	// fault, or a fixed-schedule campaign.
	ProbesToFirstFault int    `json:"probes_to_first_fault,omitempty"`
	DurationPS         int64  `json:"duration_ps"`
	Notes              string `json:"notes,omitempty"`
}

// MachineSummary is one machine's outcome row. RunStream folds each row
// into the aggregate and its model's rollup and then drops it, so the
// report stays O(models), not O(fleet); MachineSeed makes any row
// reproducible by running that machine index alone.
type MachineSummary struct {
	Index              int    `json:"index"`
	Model              string `json:"model"`
	Seed               int64  `json:"seed"`
	GuardChecks        uint64 `json:"guard_checks"`
	GuardInterventions uint64 `json:"guard_interventions"`
	Reboots            int    `json:"reboots"`
	VirtualPS          int64  `json:"virtual_ps"`
	// EnergyJ is the machine's integrated package energy (all core planes
	// plus uncore) over its virtual window, from the platform's
	// deterministic joule integrator.
	EnergyJ float64        `json:"energy_joules"`
	Attack  *AttackSummary `json:"attack,omitempty"`
	// Incidents counts the flight-recorder bundles this machine captured
	// (0 and absent unless Config.FlightWindow enabled recording).
	Incidents int    `json:"incidents,omitempty"`
	Err       string `json:"error,omitempty"`
}

// Aggregate is the fleet-level rollup, summed in machine-index order.
type Aggregate struct {
	Machines           int    `json:"machines"`
	Errors             int    `json:"errors"`
	GuardChecks        uint64 `json:"guard_checks"`
	GuardInterventions uint64 `json:"guard_interventions"`
	AttacksRun         int    `json:"attacks_run"`
	AttacksSucceeded   int    `json:"attacks_succeeded"`
	AttacksDefeated    int    `json:"attacks_defeated"`
	MailboxWrites      int    `json:"mailbox_writes"`
	BlockedWrites      int    `json:"blocked_writes"`
	FaultsObserved     int    `json:"faults_observed"`
	Crashes            int    `json:"crashes"`
	Reboots            int    `json:"reboots"`
	VirtualPS          int64  `json:"virtual_ps"`
	// EnergyJ sums the machines' package energy in index order; like every
	// other aggregate field it is independent of the execution split.
	EnergyJ float64 `json:"energy_joules"`
	// Incidents counts every flight-recorder capture across the fleet —
	// exact at any scale, even when the report's verbatim bundle list is
	// capped. Absent when flight recording is disabled.
	Incidents int `json:"incidents,omitempty"`
}

// machineResult carries one finished machine from a worker to the fold
// step: the outcome row, the machine's telemetry snapshot, and its typed
// failure (nil for a healthy machine).
type machineResult struct {
	row       MachineSummary
	snap      *telemetry.Snapshot
	err       *MachineError
	incidents []Incident
}

// normalize validates the configuration, defaults the attack and window, and
// resolves the model cycle to shared Specs: one *models.Spec per distinct
// model, so every machine of that model reuses its prepared derived cache.
func (cfg *Config) normalize() ([]string, map[string]*models.Spec, error) {
	if cfg.Machines <= 0 {
		return nil, nil, errors.New("fleet: need at least one machine")
	}
	modelNames := cfg.Models
	if len(modelNames) == 0 {
		modelNames = plugvolt.Models()
	}
	if cfg.Attack == "" {
		cfg.Attack = "none"
	}
	if !validAttack(cfg.Attack) {
		return nil, nil, fmt.Errorf("fleet: unknown attack %q (have %v)", cfg.Attack, AttackNames())
	}
	if cfg.Window <= 0 {
		cfg.Window = 10 * sim.Millisecond
	}
	specs := make(map[string]*models.Spec, len(modelNames))
	for _, name := range modelNames {
		if _, ok := specs[name]; ok {
			continue
		}
		spec, err := models.ByName(name)
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: %w", err)
		}
		specs[name] = spec
	}
	return modelNames, specs, nil
}

// foldRow accumulates one machine row into the aggregate. RunStream folds
// every row through this single function in machine index order, and a
// resume continues the checkpointed fold, so the aggregate is identical for
// every execution split by construction.
func foldRow(agg *Aggregate, row *MachineSummary) {
	agg.GuardChecks += row.GuardChecks
	agg.GuardInterventions += row.GuardInterventions
	agg.Reboots += row.Reboots
	agg.VirtualPS += row.VirtualPS
	agg.EnergyJ += row.EnergyJ
	agg.Incidents += row.Incidents
	if row.Err != "" {
		agg.Errors++
	}
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

// sweep is the characterization config every machine runs: QuickSweep when
// Sweep is unset, always single-sharded. Fleet-level parallelism only: a
// single shard keeps the sweep's worker-labeled metrics deterministic and
// avoids nested goroutine fan-out.
func (cfg *Config) sweep() plugvolt.CharacterizerConfig {
	s := cfg.Sweep
	if s.Iterations == 0 {
		s = plugvolt.QuickSweep()
	}
	s.Workers = 1
	return s
}

func validAttack(name string) bool {
	for _, n := range AttackNames() {
		if n == name {
			return true
		}
	}
	return false
}

// runMachine simulates one fleet member end to end: boot from the shared
// spec, characterize (single-sharded), deploy the guard, face the campaign
// (or idle the guard window in epochs fixed time slices — slicing advances
// the same simulator through the same events, so the epoch count never
// changes a result byte), collect telemetry. Every error is folded into the
// row and surfaced as a typed MachineError so the fleet keeps going; rows
// are pure functions of (cfg, idx, spec).
func runMachine(cfg *Config, idx int, model string, spec *models.Spec, epochs int) machineResult {
	seed := MachineSeed(cfg.Seed, idx)
	row := MachineSummary{Index: idx, Model: model, Seed: seed}
	fail := func(stage string, err error) machineResult {
		row.Err = fmt.Sprintf("%s: %v", stage, err)
		return machineResult{row: row,
			err: &MachineError{Index: idx, Model: model, Stage: stage, Cause: err.Error()}}
	}
	stage := func(name string) (machineResult, error) {
		if err := injectedFailure(name, idx); err != nil {
			return fail(name, err), err
		}
		return machineResult{}, nil
	}
	if res, err := stage("boot"); err != nil {
		return res
	}
	sys, err := plugvolt.NewSystemFromSpec(spec, seed)
	if err != nil {
		return fail("boot", err)
	}
	// Attach before deploy so the guard freezes its unsafe-set view into the
	// recorder and every poll/write of the machine's life is on the ring.
	var rec *flight.Recorder
	if cfg.FlightWindow > 0 {
		rec = sys.AttachFlightRecorder(0, cfg.FlightWindow)
	}
	if res, err := stage("characterize"); err != nil {
		return res
	}
	grid, err := sys.Characterize(cfg.sweep())
	if err != nil {
		return fail("characterize", err)
	}
	gcfg := cfg.Guard
	if gcfg.PollPeriod == 0 {
		gcfg = plugvolt.DefaultGuardConfig()
	}
	if res, err := stage("deploy"); err != nil {
		return res
	}
	pol, err := sys.DeployGuardConfig(grid, gcfg)
	if err != nil {
		return fail("deploy", err)
	}
	if atk := campaignFor(cfg.Attack, seed); atk != nil {
		if res, err := stage("attack"); err != nil {
			return res
		}
		res, err := atk.Run(sys.Env(), pol.Name())
		if err != nil {
			return fail("attack", err)
		}
		row.Attack = &AttackSummary{
			Name: res.Attack, Succeeded: res.Succeeded, Attempts: res.Attempts,
			MailboxWrites: res.MailboxWrites, BlockedWrites: res.BlockedWrites,
			FaultsObserved: res.FaultsObserved, Crashes: res.Crashes,
			ProbesToFirstFault: res.ProbesToFirstFault,
			DurationPS:         int64(res.Duration), Notes: res.Notes,
		}
	} else {
		if epochs < 1 {
			epochs = 1
		}
		slice := cfg.Window / sim.Duration(epochs)
		for e := 0; e < epochs; e++ {
			d := slice
			if e == epochs-1 {
				// Last slice absorbs the division remainder so the total
				// always equals the configured window exactly.
				d = cfg.Window - slice*sim.Duration(epochs-1)
			}
			sys.RunFor(d)
		}
	}
	row.GuardChecks = pol.Guard.Checks
	row.GuardInterventions = pol.Guard.Interventions
	row.Reboots = sys.Platform.Reboots
	row.VirtualPS = int64(sys.Platform.Sim.Now())
	row.EnergyJ = sys.Platform.Energy.PackageEnergyJ()
	incidents := collectIncidents(idx, model, rec)
	row.Incidents = len(incidents)
	sys.CollectTelemetry()
	return machineResult{row: row, snap: sys.Telemetry.Registry().Snapshot(), incidents: incidents}
}

// campaignFor builds the per-machine attack campaign; nil means "none".
func campaignFor(name string, seed int64) attack.Attack {
	switch name {
	case "plundervolt":
		return attack.DefaultPlundervolt(seed)
	case "voltjockey":
		return attack.DefaultVoltJockey()
	case "v0ltpwn":
		return attack.DefaultV0LTpwn()
	case "redteam":
		return attack.DefaultRedTeam(seed)
	default:
		return nil
	}
}
