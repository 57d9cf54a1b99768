// Streaming epoch engine: the fleet workload with resident memory O(batch),
// not O(fleet).
//
// RunStream advances the fleet as a stream of batches: a bounded worker
// pool carries one batch of machines through their whole lifecycle (boot
// from the shared per-model Spec derived cache, characterize, deploy the
// guard LUT, then the guard window in Epochs fixed time slices), folds the
// batch into a running aggregate, a per-model rollup and a merged telemetry
// snapshot, and discards it. Only the current batch's results — and at most
// Workers live Systems — are ever resident.
//
// Determinism is the contract the test battery enforces: machine i is a
// pure function of (config, i) via MachineSeed, batches fold in machine
// index order, and telemetry folds as a strict left-fold through
// telemetry.MergeSnapshots — the same sequence of floating-point additions
// one MergeSnapshots call over every machine's snapshot performs — so the
// report JSON and the merged Prometheus exposition are byte-identical
// across every batch size, worker count, epoch split, and kill/resume
// point. The report body deliberately carries no execution-shape field (no
// workers, no batch, no epochs): byte-identity is designed, not accidental.
//
// Checkpointing piggybacks on the fold: after each batch the engine's
// entire mutable state is (machines done, aggregate, rollup, failures,
// merged snapshot) — the RNG "position" is just the next machine index,
// because per-machine seeds are index-pure — so a versioned checkpoint
// written at every batch boundary lets a killed 1M-machine-window run
// resume with a byte-identical final report.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"plugvolt/internal/telemetry"
)

// DefaultStreamBatch is the resident-set size when StreamConfig.Batch is
// unset: large enough to keep a worker pool fed, small enough that a
// laptop's memory never sees the fleet size.
const DefaultStreamBatch = 256

// ErrHalted is returned by RunStream when the Halt callback stopped the
// run at a batch boundary. The checkpoint written for that boundary (when
// checkpointing is enabled) resumes the run.
var ErrHalted = errors.New("fleet: stream halted at batch boundary")

// StreamConfig parameterizes a fleet run: the experiment (Config) plus its
// execution shape. Config.Workers is clamped to the batch size.
type StreamConfig struct {
	Config

	// Epochs slices each machine's guard window into this many fixed time
	// slices (machine-windows = Machines x Epochs). Slicing advances the
	// same simulator through the same events, so the epoch count never
	// changes a result byte; it sets the granularity at which long idle
	// windows yield progress. Only meaningful with Attack "none" — a
	// campaign drives its own timeline — so Epochs > 1 with an attack is a
	// configuration error. <= 0 means 1.
	Epochs int
	// Batch is how many machines are resident at once; <= 0 means
	// min(Machines, DefaultStreamBatch). Larger batches exist only to
	// amortize pool churn — the batch size never changes a result byte.
	Batch int

	// CheckpointPath, when set, atomically rewrites this file after every
	// completed batch with a versioned checkpoint of the whole engine
	// state. A killed run resumes from it via Resume.
	CheckpointPath string
	// Resume, when set, continues a previous run from its checkpoint. The
	// checkpoint's config fingerprint must match this config (seed,
	// machines, epochs, models, attack, window, sweep and its strategy,
	// guard, flight window) — execution shape (batch, workers) may differ
	// freely.
	Resume *Checkpoint

	// Progress, when set, is called after every completed batch (and once
	// at resume with the checkpoint's state). Calls are serialized.
	Progress func(Progress)
	// Halt, when set, is consulted after every completed batch — after the
	// checkpoint for that boundary was written — and stops the run with
	// ErrHalted when it returns true. This is how a CLI turns SIGINT into
	// a clean resumable exit.
	Halt func(Progress) bool
}

// Progress is the per-batch progress report.
type Progress struct {
	// BatchesDone counts completed batches; MachinesDone counts machines
	// carried through their full lifecycle.
	BatchesDone  int
	MachinesDone int
	Machines     int
	// WindowsDone/Windows count machine-windows (machines x epochs), the
	// workload unit of the streaming engine.
	WindowsDone int64
	Windows     int64
	// Resident is the size of the batch just retired — the engine's
	// resident-set bound. It never exceeds the configured batch size.
	Resident int
	// Errors counts failed machines so far.
	Errors int
	// HeapBytes is runtime.MemStats.HeapAlloc sampled after the batch
	// folded — the live O(batch) memory evidence.
	HeapBytes uint64
}

// ModelSummary is the per-model rollup row of a streaming report: the
// MachineSummary totals of every machine of one model, summed in machine
// index order. The report carries rollups, not per-machine rows — a
// million rows would itself be an O(fleet) report.
type ModelSummary struct {
	Model              string `json:"model"`
	Machines           int    `json:"machines"`
	Errors             int    `json:"errors"`
	GuardChecks        uint64 `json:"guard_checks"`
	GuardInterventions uint64 `json:"guard_interventions"`
	AttacksRun         int    `json:"attacks_run"`
	AttacksSucceeded   int    `json:"attacks_succeeded"`
	AttacksDefeated    int    `json:"attacks_defeated"`
	FaultsObserved     int    `json:"faults_observed"`
	Crashes            int    `json:"crashes"`
	Reboots            int    `json:"reboots"`
	VirtualPS          int64  `json:"virtual_ps"`
	// EnergyJ is the model's total package energy, folded in machine index
	// order so the rollup is byte-identical across execution splits.
	EnergyJ float64 `json:"energy_joules"`
	// Incidents counts the model's flight-recorder captures; absent unless
	// Config.FlightWindow enabled recording.
	Incidents int `json:"incidents,omitempty"`
}

// foldModel accumulates one machine row into its model's rollup.
func (m *ModelSummary) foldModel(row *MachineSummary) {
	m.Machines++
	m.GuardChecks += row.GuardChecks
	m.GuardInterventions += row.GuardInterventions
	m.Reboots += row.Reboots
	m.VirtualPS += row.VirtualPS
	m.EnergyJ += row.EnergyJ
	m.Incidents += row.Incidents
	if row.Err != "" {
		m.Errors++
	}
	if a := row.Attack; a != nil {
		m.AttacksRun++
		if a.Succeeded {
			m.AttacksSucceeded++
		} else {
			m.AttacksDefeated++
		}
		m.FaultsObserved += a.FaultsObserved
		m.Crashes += a.Crashes
	}
}

// StreamReport is a completed streaming run. Everything in the JSON body is
// a pure function of the experiment (machines, models, seed, attack,
// window) — execution shape (batch, workers, epochs) and interruption
// history are structurally absent, which is what makes byte-identity across
// those axes designed rather than accidental.
type StreamReport struct {
	Fleet struct {
		Machines int      `json:"machines"`
		Models   []string `json:"models"`
		Seed     int64    `json:"seed"`
		Attack   string   `json:"attack"`
		WindowPS int64    `json:"window_ps"`
	} `json:"fleet"`
	ModelRows []ModelSummary `json:"by_model"`
	Aggregate Aggregate      `json:"aggregate"`
	// Incidents are the captured flight-recorder bundles in machine index
	// order, capped at maxRecordedIncidents and carried across checkpoint
	// boundaries; Aggregate.Incidents keeps the exact count.
	Incidents []Incident `json:"incidents,omitempty"`
	// Merged is the fleet-wide telemetry fold; render with WriteMetrics.
	Merged *telemetry.Snapshot `json:"-"`
}

// JSON renders the report deterministically.
func (r *StreamReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteMetrics renders the merged fleet exposition in Prometheus text form.
func (r *StreamReport) WriteMetrics(w io.Writer) error {
	return r.Merged.WritePrometheus(w)
}

// streamState is the engine's entire mutable state between batches — what a
// checkpoint captures and a resume restores.
type streamState struct {
	machinesDone int
	agg          Aggregate
	models       map[string]*ModelSummary
	partial      *PartialError
	merged       *telemetry.Snapshot
	incidents    []Incident
	batchesDone  int
}

// RunStream simulates the fleet as a stream of batches and returns the
// folded report. Machine failures do not abort the stream: each is recorded
// in the failed machine's row (and counted in Aggregate.Errors), and a
// fully-populated report is returned together with a *PartialError naming
// each failed machine and stage. Configuration errors — and a Resume
// checkpoint whose fingerprint does not match the config — abort with a nil
// report.
func RunStream(cfg StreamConfig) (*StreamReport, error) {
	modelNames, specs, err := cfg.Config.normalize()
	if err != nil {
		return nil, err
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	if epochs > 1 && cfg.Attack != "none" {
		return nil, fmt.Errorf("fleet: epochs %d requires attack \"none\" (a campaign drives its own timeline); got %q", epochs, cfg.Attack)
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = DefaultStreamBatch
	}
	if batch > cfg.Machines {
		batch = cfg.Machines
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > batch {
		workers = batch
	}

	st := &streamState{
		models:  make(map[string]*ModelSummary, len(modelNames)),
		partial: &PartialError{},
		merged:  &telemetry.Snapshot{},
	}
	st.agg.Machines = cfg.Machines
	if cfg.Resume != nil {
		if err := cfg.Resume.restore(&cfg, epochs, modelNames, st); err != nil {
			return nil, err
		}
		cfg.progress(st, epochs, 0)
	}

	results := make([]machineResult, batch)
	for st.machinesDone < cfg.Machines {
		n := cfg.Machines - st.machinesDone
		if n > batch {
			n = batch
		}
		// Index-addressed slots within the batch: workers write disjoint
		// entries, the fold below reads them in index order after the
		// barrier, so completion order can never reorder the stream.
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					idx := st.machinesDone + j
					model := modelNames[idx%len(modelNames)]
					results[j] = runMachine(&cfg.Config, idx, model, specs[model], epochs)
				}
			}()
		}
		for j := 0; j < n; j++ {
			jobs <- j
		}
		close(jobs)
		wg.Wait()

		for j := 0; j < n; j++ {
			r := &results[j]
			foldRow(&st.agg, &r.row)
			st.modelRollup(r.row.Model).foldModel(&r.row)
			st.incidents = appendIncidents(st.incidents, r.incidents)
			if r.err != nil {
				st.partial.record(r.err)
			}
		}
		snaps := make([]*telemetry.Snapshot, 0, n+1)
		snaps = append(snaps, st.merged)
		for j := 0; j < n; j++ {
			if results[j].snap != nil {
				snaps = append(snaps, results[j].snap)
			}
			results[j] = machineResult{} // release the batch before the next one
		}
		// Strict left-fold in machine index order: MergeSnapshots(merged,
		// s_i, s_i+1, ...) performs the identical sequence of additions a
		// single MergeSnapshots(s_0, ..., s_n-1) performs, so incremental
		// folding is exact, not just approximately commutative.
		st.merged, err = telemetry.MergeSnapshots(snaps...)
		if err != nil {
			return nil, fmt.Errorf("fleet: merging telemetry: %w", err)
		}
		st.machinesDone += n
		st.batchesDone++

		if cfg.CheckpointPath != "" {
			ck := cfg.checkpoint(st, epochs, modelNames)
			if err := WriteCheckpointFile(cfg.CheckpointPath, ck); err != nil {
				return nil, fmt.Errorf("fleet: writing checkpoint: %w", err)
			}
		}
		p := cfg.progress(st, epochs, n)
		if cfg.Halt != nil && cfg.Halt(p) {
			return nil, ErrHalted
		}
	}

	rep := &StreamReport{}
	rep.Fleet.Machines = cfg.Machines
	rep.Fleet.Models = modelNames
	rep.Fleet.Seed = cfg.Seed
	rep.Fleet.Attack = cfg.Attack
	rep.Fleet.WindowPS = int64(cfg.Window)
	rep.ModelRows = st.modelRows()
	rep.Aggregate = st.agg
	rep.Incidents = st.incidents
	rep.Merged = st.merged
	if st.partial.Total > 0 {
		return rep, st.partial
	}
	return rep, nil
}

// modelRollup returns (creating on first use) the rollup row for a model.
func (st *streamState) modelRollup(model string) *ModelSummary {
	m := st.models[model]
	if m == nil {
		m = &ModelSummary{Model: model}
		st.models[model] = m
	}
	return m
}

// modelRows emits the rollup sorted by model name — map iteration order
// must never reach the report.
func (st *streamState) modelRows() []ModelSummary {
	names := make([]string, 0, len(st.models))
	for n := range st.models {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := make([]ModelSummary, 0, len(names))
	for _, n := range names {
		rows = append(rows, *st.models[n])
	}
	return rows
}

// progress publishes one batch's progress to the Progress callback, and
// returns the Progress value for Halt.
func (cfg *StreamConfig) progress(st *streamState, epochs, resident int) Progress {
	p := Progress{
		BatchesDone:  st.batchesDone,
		MachinesDone: st.machinesDone,
		Machines:     cfg.Machines,
		WindowsDone:  int64(st.machinesDone) * int64(epochs),
		Windows:      int64(cfg.Machines) * int64(epochs),
		Resident:     resident,
		Errors:       st.partial.Total,
	}
	if cfg.Progress != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.HeapBytes = ms.HeapAlloc
		cfg.Progress(p)
	}
	return p
}
