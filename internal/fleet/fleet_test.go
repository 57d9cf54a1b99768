package fleet

import (
	"bytes"
	"testing"

	"plugvolt/internal/sim"
)

// checkWorkerInvariance is the tentpole invariant, mirroring the PR 1
// sharding contract: cfg's full report JSON and merged Prometheus
// exposition must be byte-identical at -workers 1, 2 and 8, and every
// machine's campaign must reach the aggregate. The suite runs under -race
// in CI, which also vets the worker pool's disjoint-slot writes.
func checkWorkerInvariance(t *testing.T, cfg Config) {
	t.Helper()
	var want *StreamReport
	var wantJSON, wantMetrics []byte
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		rep, err := RunStream(StreamConfig{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		j, m := renderStreamReport(t, rep)
		if want == nil {
			want, wantJSON, wantMetrics = rep, j, m
			continue
		}
		if !bytes.Equal(j, wantJSON) {
			t.Errorf("workers=%d: report JSON diverges from workers=1", workers)
		}
		if !bytes.Equal(m, wantMetrics) {
			t.Errorf("workers=%d: merged exposition diverges from workers=1", workers)
		}
	}
	if want.Aggregate.AttacksRun != cfg.Machines {
		t.Errorf("report carries %d %s outcomes for %d machines", want.Aggregate.AttacksRun, cfg.Attack, cfg.Machines)
	}
}

// TestFleetDeterminismAcrossWorkers pins worker invariance under a
// VoltJockey campaign.
func TestFleetDeterminismAcrossWorkers(t *testing.T) {
	checkWorkerInvariance(t, Config{Machines: 5, Seed: 99, Attack: "voltjockey"})
}

// TestFleetRedTeamDeterminismAcrossWorkers extends the byte-identity
// contract to the adaptive red-team mode: even though each machine's
// annealing attacker chooses its probe sequence from its own seeded stream,
// the report must not depend on the worker count.
func TestFleetRedTeamDeterminismAcrossWorkers(t *testing.T) {
	checkWorkerInvariance(t, Config{Machines: 3, Seed: 21, Attack: "redteam"})
}

// TestFleetGuardProtects sanity-checks the simulated outcome: a guarded
// mixed fleet under attack sees interventions and no successful campaigns.
func TestFleetGuardProtects(t *testing.T) {
	rep, err := RunStream(StreamConfig{Config: Config{Machines: 3, Workers: 2, Seed: 7, Attack: "voltjockey"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aggregate.Errors != 0 {
		t.Fatalf("fleet errors: %+v", rep.ModelRows)
	}
	if rep.Aggregate.AttacksRun != 3 || rep.Aggregate.AttacksSucceeded != 0 {
		t.Fatalf("aggregate %+v: want 3 attacks run, 0 succeeded", rep.Aggregate)
	}
	if rep.Aggregate.GuardChecks == 0 || rep.Aggregate.GuardInterventions == 0 {
		t.Fatalf("aggregate %+v: guard never engaged", rep.Aggregate)
	}
	// The default model cycle covers all three specs, one machine each.
	if len(rep.ModelRows) != 3 {
		t.Fatalf("fleet models %+v: want all three specs", rep.ModelRows)
	}
	for _, m := range rep.ModelRows {
		if m.Machines != 1 {
			t.Fatalf("model %s ran %d machines, want 1", m.Model, m.Machines)
		}
	}
	// The merged exposition aggregates per-machine series: total polls in
	// the merged snapshot must equal the sum of per-machine checks.
	var got float64
	for _, m := range rep.Merged.Metrics {
		if m.Name == "guard_polls_total" {
			for _, s := range m.Series {
				got += s.Value
			}
		}
	}
	if got != float64(rep.Aggregate.GuardChecks) {
		t.Fatalf("merged guard_polls_total %v != aggregate checks %d", got, rep.Aggregate.GuardChecks)
	}
}

// TestFleetIdleWindow covers the "none" campaign: machines idle under guard
// for the configured window and accumulate poll checks proportional to it.
func TestFleetIdleWindow(t *testing.T) {
	rep, err := RunStream(StreamConfig{Config: Config{Machines: 2, Workers: 2, Seed: 3, Attack: "none",
		Window: 5 * sim.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aggregate.AttacksRun != 0 {
		t.Fatalf("idle fleet ran %d attacks", rep.Aggregate.AttacksRun)
	}
	if rep.Aggregate.Errors != 0 || rep.Aggregate.GuardChecks == 0 {
		t.Fatalf("aggregate %+v", rep.Aggregate)
	}
	for _, m := range rep.ModelRows {
		if m.VirtualPS < int64(m.Machines)*int64(5*sim.Millisecond) {
			t.Fatalf("model %s: %d machines only reached %d ps", m.Model, m.Machines, m.VirtualPS)
		}
	}
}

// TestMachineSeedProperties pins the seed derivation: index-pure, distinct
// across a large fleet, and sensitive to the fleet seed.
func TestMachineSeedProperties(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 4096; i++ {
		s := MachineSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("MachineSeed(42, %d) == MachineSeed(42, %d)", i, prev)
		}
		seen[s] = i
		if s != MachineSeed(42, i) {
			t.Fatal("MachineSeed not pure")
		}
	}
	if MachineSeed(1, 0) == MachineSeed(2, 0) {
		t.Error("fleet seed does not reach machine seeds")
	}
}

// TestFleetEnergyRollup pins the joule axis of the report: every machine
// bills energy, and the engine's aggregate and per-model energy are the
// machine-index-ordered sums of the machines' joules bit for bit, so they
// cannot depend on the execution split.
func TestFleetEnergyRollup(t *testing.T) {
	base := Config{Machines: 4, Seed: 13, Attack: "voltjockey"}
	_, rows := serialRun(t, base)
	var sum float64
	byModel := map[string]float64{}
	for _, row := range rows {
		if row.EnergyJ <= 0 {
			t.Fatalf("machine %d billed %g J", row.Index, row.EnergyJ)
		}
		sum += row.EnergyJ
		byModel[row.Model] += row.EnergyJ
	}

	cfg := StreamConfig{Config: base, Batch: 2}
	cfg.Workers = 8
	rep, err := RunStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aggregate.EnergyJ != sum {
		t.Fatalf("aggregate energy %v != index-ordered machine sum %v", rep.Aggregate.EnergyJ, sum)
	}
	for _, m := range rep.ModelRows {
		if m.EnergyJ != byModel[m.Model] {
			t.Fatalf("model %s energy %v != index-ordered machine sum %v", m.Model, m.EnergyJ, byModel[m.Model])
		}
	}
}
