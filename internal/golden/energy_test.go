package golden

import (
	"math"
	"testing"

	"plugvolt"
	"plugvolt/internal/fleet"
	"plugvolt/internal/sim"
)

// TestGoldenEnergyDeterminism extends the conformance battery to the joule
// axis: the energy integrator's totals are part of the reproducibility
// contract, so they must be bit-identical (compared as float64 bit
// patterns, not within a tolerance) across every execution shape — sweep
// worker counts on a single machine, and fleet batch sizes, worker counts
// and epoch slicing.
func TestGoldenEnergyDeterminism(t *testing.T) {
	// Axis 1: characterization sharding. The sweep runs on throwaway shard
	// platforms, so the deployed machine's subsequent guarded window must
	// integrate to the same bits at any worker count.
	for _, fig := range figures {
		fig := fig
		t.Run(fig.base, func(t *testing.T) {
			bits := map[int]uint64{}
			for _, w := range []int{1, 2, 8} {
				sys, err := plugvolt.NewSystem(fig.model, goldenSeed)
				if err != nil {
					t.Fatal(err)
				}
				cfg := plugvolt.QuickSweep()
				cfg.Workers = w
				grid, err := sys.Characterize(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sys.DeployGuardConfig(grid, plugvolt.DefaultGuardConfig()); err != nil {
					t.Fatal(err)
				}
				sys.RunFor(5 * sim.Millisecond)
				bits[w] = math.Float64bits(sys.Platform.Energy.PackageEnergyJ())
			}
			if bits[1] == 0 {
				t.Fatal("guarded window billed no energy")
			}
			for _, w := range []int{2, 8} {
				if bits[w] != bits[1] {
					t.Errorf("workers=%d: package energy %x diverges from workers=1 %x",
						w, bits[w], bits[1])
				}
			}
		})
	}

	// Axis 2: fleet execution shape. Every batch/worker split must agree on
	// the aggregate joules bit for bit.
	base := fleet.Config{Machines: 4, Seed: goldenSeed, Attack: "voltjockey"}
	var want uint64
	for i, split := range []struct{ batch, workers int }{
		{4, 1}, {4, 2}, {4, 8}, {1, 1}, {2, 8},
	} {
		cfg := fleet.StreamConfig{Config: base, Batch: split.batch}
		cfg.Workers = split.workers
		rep, err := fleet.RunStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := math.Float64bits(rep.Aggregate.EnergyJ)
		if i == 0 {
			want = got
			if rep.Aggregate.EnergyJ <= 0 {
				t.Fatal("fleet billed no energy")
			}
			continue
		}
		if got != want {
			t.Errorf("fleet batch=%d workers=%d: aggregate energy %x diverges from batch=4 workers=1 %x",
				split.batch, split.workers, got, want)
		}
	}

	// Epoch slicing (idle campaigns only) must not move a single bit either.
	idle := fleet.Config{Machines: 3, Seed: goldenSeed, Attack: "none", Window: 2 * sim.Millisecond}
	var idleWant uint64
	for _, epochs := range []int{1, 3} {
		cfg := fleet.StreamConfig{Config: idle, Batch: 3, Epochs: epochs}
		rep, err := fleet.RunStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := math.Float64bits(rep.Aggregate.EnergyJ)
		if epochs == 1 {
			idleWant = got
			continue
		}
		if got != idleWant {
			t.Errorf("epochs=%d: aggregate energy %x diverges from epochs=1 %x", epochs, got, idleWant)
		}
	}
}
