package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
)

// renderStream runs one streaming configuration and renders both report
// forms; any error (including a partial fleet) is fatal.
func renderStream(t *testing.T, cfg StreamConfig) (reportJSON, metrics []byte) {
	t.Helper()
	rep, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return renderStreamReport(t, rep)
}

func renderStreamReport(t *testing.T, rep *StreamReport) (reportJSON, metrics []byte) {
	t.Helper()
	j, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	return j, buf.Bytes()
}

// serialRun is the test-only reference the engine is checked against: every
// machine run in index order on the calling goroutine, its row folded with
// foldRow/foldModel, and the fleet's telemetry merged by one MergeSnapshots
// call — no batches, no worker pool, no incremental fold. It also returns
// the per-machine rows the report drops.
func serialRun(t *testing.T, cfg Config) (*StreamReport, []MachineSummary) {
	t.Helper()
	modelNames, specs, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	rep := &StreamReport{}
	rep.Fleet.Machines = cfg.Machines
	rep.Fleet.Models = modelNames
	rep.Fleet.Seed = cfg.Seed
	rep.Fleet.Attack = cfg.Attack
	rep.Fleet.WindowPS = int64(cfg.Window)
	rep.Aggregate.Machines = cfg.Machines
	st := &streamState{models: map[string]*ModelSummary{}}
	rows := make([]MachineSummary, 0, cfg.Machines)
	snaps := make([]*telemetry.Snapshot, 0, cfg.Machines)
	for i := 0; i < cfg.Machines; i++ {
		model := modelNames[i%len(modelNames)]
		r := runMachine(&cfg, i, model, specs[model], 1)
		foldRow(&rep.Aggregate, &r.row)
		st.modelRollup(model).foldModel(&r.row)
		rep.Incidents = appendIncidents(rep.Incidents, r.incidents)
		rows = append(rows, r.row)
		snaps = append(snaps, r.snap)
	}
	rep.ModelRows = st.modelRows()
	if rep.Merged, err = telemetry.MergeSnapshots(snaps...); err != nil {
		t.Fatal(err)
	}
	return rep, rows
}

// TestStreamMatchesBatch is the fold golden test: at every batch/worker
// split, workers 1/2/8, the engine's batched left fold must reproduce the
// serial reference's one-shot merge byte for byte — report JSON, merged
// exposition, and the exact aggregate, float64 EnergyJ included.
func TestStreamMatchesBatch(t *testing.T) {
	base := Config{Machines: 6, Seed: 11, Attack: "voltjockey"}
	ref, _ := serialRun(t, base)
	wantJSON, wantMetrics := renderStreamReport(t, ref)

	for _, split := range []struct{ batch, workers int }{
		{1, 1}, {2, 2}, {3, 8}, {6, 1},
	} {
		t.Run(fmt.Sprintf("batch=%d_workers=%d", split.batch, split.workers), func(t *testing.T) {
			cfg := StreamConfig{Config: base, Batch: split.batch}
			cfg.Workers = split.workers
			rep, err := RunStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Aggregate != ref.Aggregate {
				t.Errorf("aggregate diverges:\nstream    %+v\nreference %+v", rep.Aggregate, ref.Aggregate)
			}
			j, m := renderStreamReport(t, rep)
			if !bytes.Equal(j, wantJSON) {
				t.Error("report JSON diverges from the serial reference")
			}
			if !bytes.Equal(m, wantMetrics) {
				t.Error("merged exposition diverges from the serial reference")
			}
		})
	}
}

// TestStreamByteIdentityAcrossSplits pins the full streaming report (JSON
// and exposition) across every execution-shape axis at once: batch size,
// worker count and epoch count must never change a byte.
func TestStreamByteIdentityAcrossSplits(t *testing.T) {
	base := Config{Machines: 5, Seed: 21, Attack: "none", Window: 2 * sim.Millisecond}
	ref := StreamConfig{Config: base, Batch: 5, Epochs: 1}
	ref.Workers = 1
	wantJSON, wantMetrics := renderStream(t, ref)
	for _, shape := range []struct{ batch, workers, epochs int }{
		{1, 1, 1}, {2, 2, 2}, {3, 8, 3}, {5, 2, 5}, {4, 3, 1},
	} {
		cfg := StreamConfig{Config: base, Batch: shape.batch, Epochs: shape.epochs}
		cfg.Workers = shape.workers
		j, m := renderStream(t, cfg)
		if !bytes.Equal(j, wantJSON) {
			t.Errorf("batch=%d workers=%d epochs=%d: report JSON diverges", shape.batch, shape.workers, shape.epochs)
		}
		if !bytes.Equal(m, wantMetrics) {
			t.Errorf("batch=%d workers=%d epochs=%d: exposition diverges", shape.batch, shape.workers, shape.epochs)
		}
	}
}

// TestStreamCheckpointResume kills the stream at every batch boundary,
// resumes from the on-disk checkpoint — with a different batch size and
// worker count, which the fingerprint deliberately ignores — and requires
// the final report JSON and exposition to be byte-identical to the
// uninterrupted run's.
func TestStreamCheckpointResume(t *testing.T) {
	base := Config{Machines: 6, Seed: 5, Attack: "none", Window: sim.Millisecond}
	uncut := StreamConfig{Config: base, Batch: 2, Epochs: 2}
	wantJSON, wantMetrics := renderStream(t, uncut)

	const batches = 3 // 6 machines / batch 2
	for k := 1; k < batches; k++ {
		t.Run(fmt.Sprintf("kill_after_batch_%d", k), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fleet.ckpt")
			cut := uncut
			cut.CheckpointPath = path
			cut.Halt = func(p Progress) bool { return p.BatchesDone >= k }
			if _, err := RunStream(cut); !errors.Is(err, ErrHalted) {
				t.Fatalf("want ErrHalted, got %v", err)
			}
			ck, err := ReadCheckpointFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if ck.MachinesDone != 2*k {
				t.Fatalf("checkpoint at %d machines, want %d", ck.MachinesDone, 2*k)
			}
			resumed := StreamConfig{Config: base, Batch: 3, Epochs: 2, Resume: ck}
			resumed.Workers = 2
			j, m := renderStream(t, resumed)
			if !bytes.Equal(j, wantJSON) {
				t.Error("resumed report JSON diverges from the uninterrupted run")
			}
			if !bytes.Equal(m, wantMetrics) {
				t.Error("resumed exposition diverges from the uninterrupted run")
			}
		})
	}
}

// TestStreamResumeMismatch: a checkpoint from one experiment must not
// resume another. Every fingerprinted axis is tried.
func TestStreamResumeMismatch(t *testing.T) {
	base := Config{Machines: 2, Seed: 5, Attack: "none", Window: sim.Millisecond}
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	cfg := StreamConfig{Config: base, Batch: 1, CheckpointPath: path,
		Halt: func(p Progress) bool { return true }}
	if _, err := RunStream(cfg); !errors.Is(err, ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}
	ck, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*StreamConfig){
		"seed":     func(c *StreamConfig) { c.Seed = 6 },
		"machines": func(c *StreamConfig) { c.Machines = 3 },
		"attack":   func(c *StreamConfig) { c.Attack = "voltjockey" },
		"window":   func(c *StreamConfig) { c.Window = 2 * sim.Millisecond },
		"models":   func(c *StreamConfig) { c.Models = []string{"skylake"} },
		"epochs":   func(c *StreamConfig) { c.Epochs = 4 },
		"guard":    func(c *StreamConfig) { c.Guard.MarginMV = 25; c.Guard.PollPeriod = 30 * sim.Microsecond },
	}
	for name, mutate := range mutations {
		bad := StreamConfig{Config: base, Resume: ck}
		mutate(&bad)
		if _, err := RunStream(bad); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s mutation: want ErrCheckpointMismatch, got %v", name, err)
		}
	}
	// The same checkpoint under a different execution shape is fine.
	good := StreamConfig{Config: base, Resume: ck, Batch: 2}
	good.Workers = 8
	if _, err := RunStream(good); err != nil {
		t.Errorf("execution-shape change rejected: %v", err)
	}
}

// TestStreamEpochSliceCommutesWithMachineOrder is the randomized property
// test: for random fleets, slicing machine windows into epochs and grouping
// machines into batches (which changes which machines are co-resident, i.e.
// the stream's machine order) commute — any (epochs, batch, workers)
// execution shape renders the same bytes as the canonical serial run.
func TestStreamEpochSliceCommutesWithMachineOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 3; trial++ {
		machines := 2 + rng.Intn(3)
		base := Config{
			Machines: machines,
			Seed:     rng.Int63(),
			Attack:   "none",
			Window:   sim.Duration(1+rng.Intn(2)) * sim.Millisecond,
		}
		ref := StreamConfig{Config: base, Batch: machines, Epochs: 1}
		ref.Workers = 1
		wantJSON, wantMetrics := renderStream(t, ref)
		for variant := 0; variant < 3; variant++ {
			cfg := StreamConfig{Config: base,
				Batch:  1 + rng.Intn(machines),
				Epochs: 1 + rng.Intn(4),
			}
			cfg.Workers = 1 + rng.Intn(3)
			j, m := renderStream(t, cfg)
			if !bytes.Equal(j, wantJSON) || !bytes.Equal(m, wantMetrics) {
				t.Fatalf("trial %d: seed %d machines %d: shape (batch=%d workers=%d epochs=%d) diverges",
					trial, base.Seed, machines, cfg.Batch, cfg.Workers, cfg.Epochs)
			}
		}
	}
}

// TestStreamResidentBound asserts the O(batch) contract structurally: the
// engine never reports more resident machines than the batch size, retires
// the fleet in ceil(machines/batch) batches, and completes every
// machine-window.
func TestStreamResidentBound(t *testing.T) {
	var progressCalls []Progress
	cfg := StreamConfig{
		Config:   Config{Machines: 9, Seed: 1, Attack: "none", Window: sim.Millisecond},
		Batch:    4,
		Epochs:   3,
		Progress: func(p Progress) { progressCalls = append(progressCalls, p) },
	}
	if _, err := RunStream(cfg); err != nil {
		t.Fatal(err)
	}
	if len(progressCalls) != 3 { // ceil(9/4)
		t.Fatalf("%d batches retired, want 3", len(progressCalls))
	}
	for _, p := range progressCalls {
		if p.Resident > cfg.Batch {
			t.Fatalf("resident %d exceeds batch %d: the stream is not O(batch)", p.Resident, cfg.Batch)
		}
		if p.WindowsDone != int64(p.MachinesDone)*3 {
			t.Fatalf("windows %d != machines %d x epochs 3", p.WindowsDone, p.MachinesDone)
		}
	}
	last := progressCalls[len(progressCalls)-1]
	if last.MachinesDone != 9 || last.WindowsDone != 27 || last.Windows != 27 {
		t.Fatalf("final progress %+v: fleet incomplete", last)
	}
}

// TestStreamReportOmitsExecutionShape guards byte-identity structurally:
// no execution-shape word may appear in the report JSON.
func TestStreamReportOmitsExecutionShape(t *testing.T) {
	cfg := StreamConfig{Config: Config{Machines: 2, Seed: 1, Attack: "none",
		Window: sim.Millisecond}, Batch: 1, Epochs: 2}
	cfg.Workers = 3
	rep, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, word := range []string{"workers", "batch", "epoch"} {
		if strings.Contains(string(j), word) {
			t.Errorf("report JSON leaks execution shape: %q", word)
		}
	}
}

// TestStreamConfigValidation covers the config error paths: zero machines,
// unknown attack or model, and epoch slicing under a campaign.
func TestStreamConfigValidation(t *testing.T) {
	if _, err := RunStream(StreamConfig{Config: Config{Machines: 0}}); err == nil {
		t.Error("zero machines accepted")
	}
	if _, err := RunStream(StreamConfig{Config: Config{Machines: 1, Attack: "rowhammer"}}); err == nil {
		t.Error("unknown attack accepted")
	}
	if _, err := RunStream(StreamConfig{Config: Config{Machines: 1, Models: []string{"pentium4"}}}); err == nil {
		t.Error("unknown model accepted")
	}
	_, err := RunStream(StreamConfig{Config: Config{Machines: 1, Attack: "voltjockey"}, Epochs: 2})
	if err == nil || !strings.Contains(err.Error(), "epochs") {
		t.Errorf("epochs > 1 with an attack accepted (err=%v)", err)
	}
}

// TestPartialFailureTyped is the table-driven contract for the typed
// partial-failure error: for every lifecycle stage, a machine failure must
// surface as a *PartialError naming the machine index, model, stage and
// cause, and count against that machine's model only, while the healthy
// machines' results survive.
func TestPartialFailureTyped(t *testing.T) {
	base := Config{Machines: 3, Seed: 7, Attack: "voltjockey"}
	for _, stage := range []string{"boot", "characterize", "deploy", "attack"} {
		t.Run(stage, func(t *testing.T) {
			failpoint = func(s string, idx int) error {
				if s == stage && idx == 1 {
					return fmt.Errorf("injected %s failure", s)
				}
				return nil
			}
			defer func() { failpoint = nil }()

			rep, err := RunStream(StreamConfig{Config: base, Batch: 2})
			if rep == nil {
				t.Fatal("partial failure must still return the report")
			}
			var partial *PartialError
			if !errors.As(err, &partial) {
				t.Fatalf("want *PartialError, got %v", err)
			}
			if partial.Total != 1 || len(partial.Failures) != 1 {
				t.Fatalf("partial %+v: want exactly one failure", partial)
			}
			f := partial.Failures[0]
			if f.Index != 1 || f.Stage != stage || !strings.Contains(f.Cause, "injected") {
				t.Fatalf("failure %+v: want index 1, stage %s", f, stage)
			}
			if f.Model == "" {
				t.Fatal("failure does not name the machine model")
			}
			if rep.Aggregate.Errors != 1 {
				t.Fatalf("aggregate errors %d, want 1", rep.Aggregate.Errors)
			}
			if rep.Aggregate.GuardChecks == 0 {
				t.Fatal("healthy machines did not run")
			}
			for _, m := range rep.ModelRows {
				want := 0
				if m.Model == f.Model {
					want = 1
				}
				if m.Errors != want {
					t.Fatalf("model %s counts %d errors, want %d", m.Model, m.Errors, want)
				}
			}
		})
	}
}

// TestPartialFailureCap: a systematic failure across a fleet larger than
// the recording cap keeps the full count but bounds the recorded list.
func TestPartialFailureCap(t *testing.T) {
	failpoint = func(s string, idx int) error {
		if s == "boot" {
			return errors.New("systematic")
		}
		return nil
	}
	defer func() { failpoint = nil }()
	machines := maxRecordedFailures + 4
	rep, err := RunStream(StreamConfig{
		Config: Config{Machines: machines, Seed: 1, Attack: "none", Window: sim.Millisecond},
		Batch:  5,
	})
	var partial *PartialError
	if !errors.As(err, &partial) {
		t.Fatalf("want *PartialError, got %v", err)
	}
	if partial.Total != machines || len(partial.Failures) != maxRecordedFailures {
		t.Fatalf("total %d (want %d), recorded %d (want %d)",
			partial.Total, machines, len(partial.Failures), maxRecordedFailures)
	}
	if rep.Aggregate.Errors != machines {
		t.Fatalf("aggregate errors %d, want %d", rep.Aggregate.Errors, machines)
	}
	if !strings.Contains(partial.Error(), "more not recorded") {
		t.Errorf("error text hides the cap: %q", partial.Error())
	}
}
