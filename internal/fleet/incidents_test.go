package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"plugvolt/internal/flight"
	"plugvolt/internal/sim"
)

// weakGuardFleet is a fleet whose guard polls far too slowly to stop
// plundervolt: every machine faults, so every machine's flight recorder
// captures an incident. This is the forensics scenario — the recorder
// exists to explain exactly these losses.
func weakGuardFleet() Config {
	cfg := Config{Machines: 4, Seed: 13, Attack: "plundervolt", FlightWindow: 8}
	cfg.Guard.PollPeriod = 20 * sim.Millisecond
	return cfg
}

// weakGuardReport runs weakGuardFleet once per test binary, in the default
// execution shape (one batch of four); the incident tests share it as their
// reference run.
var weakGuardReport = sync.OnceValues(func() (*StreamReport, error) {
	return RunStream(StreamConfig{Config: weakGuardFleet()})
})

func weakGuardReference(t *testing.T) *StreamReport {
	t.Helper()
	rep, err := weakGuardReport()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFleetIncidentsCaptured runs the forensics scenario end to end: every
// faulted machine contributes an incident, counts agree at every level, and
// each carried bundle decodes to the frozen pre-fault history — including
// the accepted unsafe mailbox write that caused the triggering fault.
func TestFleetIncidentsCaptured(t *testing.T) {
	rep := weakGuardReference(t)
	if rep.Aggregate.AttacksSucceeded != rep.Aggregate.Machines {
		t.Fatalf("weak guard scenario: %d/%d attacks succeeded; incidents need faults",
			rep.Aggregate.AttacksSucceeded, rep.Aggregate.Machines)
	}
	if rep.Aggregate.Incidents == 0 {
		t.Fatal("no incidents captured across a faulting fleet")
	}
	modelTotal := 0
	for _, m := range rep.ModelRows {
		modelTotal += m.Incidents
	}
	if modelTotal != rep.Aggregate.Incidents {
		t.Fatalf("per-model incident counts sum to %d, aggregate says %d", modelTotal, rep.Aggregate.Incidents)
	}
	if len(rep.Incidents) != rep.Aggregate.Incidents {
		t.Fatalf("report retains %d incidents, aggregate counts %d (under the cap they must match)",
			len(rep.Incidents), rep.Aggregate.Incidents)
	}
	lastMachine := -1
	for _, inc := range rep.Incidents {
		if inc.Machine < lastMachine {
			t.Fatalf("incident list not in machine index order: %d after %d", inc.Machine, lastMachine)
		}
		lastMachine = inc.Machine
		if inc.Cause != string(flight.CauseFault) {
			t.Errorf("machine %d: cause %q, want fault", inc.Machine, inc.Cause)
		}
		b, n, err := flight.DecodeBundle(inc.Bundle)
		if err != nil {
			t.Fatalf("machine %d: carried bundle does not decode: %v", inc.Machine, err)
		}
		if n != len(inc.Bundle) {
			t.Errorf("machine %d: bundle has %d trailing bytes", inc.Machine, len(inc.Bundle)-n)
		}
		// The row carries the fleet cycle name ("skylake"), the bundle the
		// spec codename ("Sky Lake") — both must be present and the
		// structural fields must agree.
		if b.Model == "" || len(b.Records) != inc.Records || b.Seq != inc.Seq {
			t.Errorf("machine %d: summary (%d records, seq %d) disagrees with bundle (%q, %d, %d)",
				inc.Machine, inc.Records, inc.Seq, b.Model, len(b.Records), b.Seq)
		}
		if b.Guard == nil || len(b.Guard.Thresholds) == 0 {
			t.Errorf("machine %d: bundle carries no guard unsafe-set view", inc.Machine)
		}
		// The forensic payoff: the pre-trigger history must contain the
		// accepted unsafe write that produced the fault — the deepest
		// undervolt on the ring, strictly before the trigger, within the
		// mailbox's ~1 mV unit quantization of the offset the fault record
		// blames.
		var faultOffset int64
		for _, r := range b.Records {
			if r.Kind == flight.KindFault {
				faultOffset = r.B
			}
		}
		if faultOffset >= 0 {
			t.Fatalf("machine %d: fault record blames offset %d, want a negative undervolt", inc.Machine, faultOffset)
		}
		var deepest int64
		for _, r := range b.Records {
			if r.Kind == flight.KindTrigger {
				break
			}
			if r.Kind == flight.KindMailboxWrite && r.Flag == flight.OutcomeAccepted && r.A < deepest {
				deepest = r.A
			}
		}
		if deepest == 0 {
			t.Errorf("machine %d: no accepted undervolt write before the trigger", inc.Machine)
		} else if d := deepest - faultOffset; d < -2 || d > 2 {
			t.Errorf("machine %d: deepest accepted write %d mV does not explain the fault at %d mV",
				inc.Machine, deepest, faultOffset)
		}
	}
}

// TestStreamIncidentsMatchBatch extends the fleet determinism contract to
// the carried bundles: at every batch/worker split the report JSON — framed
// incident bytes included — and the exposition must be byte-identical to
// the shared reference run's.
func TestStreamIncidentsMatchBatch(t *testing.T) {
	ref := weakGuardReference(t)
	if len(ref.Incidents) == 0 {
		t.Fatal("scenario captured no incidents")
	}
	wantJSON, wantMetrics := renderStreamReport(t, ref)
	for _, split := range []struct{ batch, workers int }{{1, 1}, {2, 2}, {4, 8}} {
		t.Run(fmt.Sprintf("batch=%d_workers=%d", split.batch, split.workers), func(t *testing.T) {
			cfg := StreamConfig{Config: weakGuardFleet(), Batch: split.batch}
			cfg.Workers = split.workers
			j, m := renderStream(t, cfg)
			if !bytes.Equal(j, wantJSON) {
				t.Error("report JSON (incl. incident bundles) diverges from the reference run")
			}
			if !bytes.Equal(m, wantMetrics) {
				t.Error("exposition diverges from the reference run")
			}
		})
	}
}

// TestFleetIncidentByteIdentityAcrossWorkers holds the batch shape at its
// default (one batch of the whole fleet) and varies only the worker count:
// the report JSON, framed incident bundles included, must not change.
func TestFleetIncidentByteIdentityAcrossWorkers(t *testing.T) {
	want, _ := renderStreamReport(t, weakGuardReference(t))
	if !bytes.Contains(want, []byte(`"incidents"`)) {
		t.Fatal("report carries no incidents")
	}
	for _, workers := range []int{1, 2, 8} {
		cfg := weakGuardFleet()
		cfg.Workers = workers
		j, _ := renderStream(t, StreamConfig{Config: cfg})
		if !bytes.Equal(j, want) {
			t.Errorf("workers=%d: report (incl. incident bundles) diverges from the reference run", workers)
		}
	}
}

// TestStreamIncidentCheckpointResume kills the stream at a batch boundary
// and resumes it: the incident collection must survive the checkpoint and
// the final report must be byte-identical to the uncut reference run's.
func TestStreamIncidentCheckpointResume(t *testing.T) {
	wantJSON, wantMetrics := renderStreamReport(t, weakGuardReference(t))

	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	cut := StreamConfig{Config: weakGuardFleet(), Batch: 2, CheckpointPath: path,
		Halt: func(p Progress) bool { return p.BatchesDone >= 1 }}
	if _, err := RunStream(cut); !errors.Is(err, ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}
	ck, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Incidents) == 0 {
		t.Fatal("checkpoint carries no incidents from the completed batch")
	}
	for _, inc := range ck.Incidents {
		if _, _, err := flight.DecodeBundle(inc.Bundle); err != nil {
			t.Fatalf("machine %d: checkpointed bundle corrupt after JSON round trip: %v", inc.Machine, err)
		}
	}
	j, m := renderStream(t, StreamConfig{Config: weakGuardFleet(), Batch: 2, Resume: ck})
	if !bytes.Equal(j, wantJSON) {
		t.Error("resumed report JSON (incl. incidents) diverges from the uninterrupted run")
	}
	if !bytes.Equal(m, wantMetrics) {
		t.Error("resumed exposition diverges from the uninterrupted run")
	}
}

// TestFleetIncidentCap: past maxRecordedIncidents captures, the verbatim
// list keeps the first maxRecordedIncidents in machine index order while
// the aggregate and per-model counts stay exact.
func TestFleetIncidentCap(t *testing.T) {
	const machines, perMachine = 12, 3 // 36 captures, past the cap
	var agg Aggregate
	var model ModelSummary
	var kept []Incident
	for i := 0; i < machines; i++ {
		incs := make([]Incident, perMachine)
		for s := range incs {
			incs[s] = Incident{Machine: i, Seq: s}
		}
		row := MachineSummary{Index: i, Incidents: perMachine}
		foldRow(&agg, &row)
		model.foldModel(&row)
		kept = appendIncidents(kept, incs)
	}
	if agg.Incidents != machines*perMachine || model.Incidents != machines*perMachine {
		t.Fatalf("counts %d (aggregate) / %d (model), want %d", agg.Incidents, model.Incidents, machines*perMachine)
	}
	if len(kept) != maxRecordedIncidents {
		t.Fatalf("retained %d incidents, want cap %d", len(kept), maxRecordedIncidents)
	}
	for i, inc := range kept {
		if inc.Machine != i/perMachine || inc.Seq != i%perMachine {
			t.Fatalf("retained incident %d is machine %d seq %d: not the machine-ordered prefix", i, inc.Machine, inc.Seq)
		}
	}
}

// TestFleetNoFlightNoIncidents: FlightWindow 0 must leave every incident
// surface absent — recording is strictly opt-in — even on a machine the
// attack faults.
func TestFleetNoFlightNoIncidents(t *testing.T) {
	cfg := weakGuardFleet()
	cfg.Machines = 1
	cfg.FlightWindow = 0
	rep, err := RunStream(StreamConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aggregate.AttacksSucceeded != 1 {
		t.Fatalf("aggregate %+v: the machine must fault for the test to mean anything", rep.Aggregate)
	}
	if rep.Aggregate.Incidents != 0 || len(rep.Incidents) != 0 {
		t.Fatalf("flight disabled but report carries %d/%d incidents",
			rep.Aggregate.Incidents, len(rep.Incidents))
	}
	j, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(j, []byte(`"incidents"`)) {
		t.Fatal("disabled recording still surfaces incident fields in the report JSON")
	}
}
