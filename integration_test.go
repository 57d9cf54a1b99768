package plugvolt_test

import (
	"testing"

	"plugvolt"
	"plugvolt/internal/attack"
)

// TestPaperResolutionEndToEnd runs the complete pipeline at the paper's own
// sweep resolution (1 mV steps, one million imuls per grid point — the
// exact Algorithm 2 parameters) and then defends a Plundervolt campaign
// with the resulting guard. This is the closest the repository gets to the
// published experiment run verbatim.
func TestPaperResolutionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-resolution sweep in -short mode")
	}
	sys, err := plugvolt.NewSystem("skylake", 2024)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sys.Characterize(plugvolt.PaperSweep())
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.Validate(); err != nil {
		t.Fatal(err)
	}
	if grid.Iterations != 1_000_000 || len(grid.OffsetsMV) != 300 {
		t.Fatalf("not the paper sweep: %d iters, %d offsets", grid.Iterations, len(grid.OffsetsMV))
	}

	// Every frequency shows the published band structure.
	for _, f := range grid.FreqsKHz {
		onset, ok := grid.OnsetMV(f)
		if !ok {
			t.Fatalf("%d kHz: no unsafe region at paper resolution", f)
		}
		if onset > -20 || onset < -300 {
			t.Fatalf("%d kHz: implausible onset %d mV", f, onset)
		}
	}
	msv := grid.MaximalSafeOffsetMV(0)
	if msv >= 0 || msv < -150 {
		t.Fatalf("maximal safe state %d mV implausible at 1 mV resolution", msv)
	}

	// Onset at the top frequency is much shallower than at the bottom.
	onLow, _ := grid.OnsetMV(grid.FreqsKHz[0])
	onHigh, _ := grid.OnsetMV(grid.FreqsKHz[len(grid.FreqsKHz)-1])
	if onHigh <= onLow+100 {
		t.Fatalf("onset shape: %d mV at fmin vs %d mV at fmax", onLow, onHigh)
	}

	// Deploy and face the end-to-end Plundervolt campaign.
	guard, err := sys.DeployGuard(grid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := attack.DefaultPlundervolt(2024).Run(sys.Env(), guard.Name())
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded || res.FaultsObserved != 0 || res.Crashes != 0 {
		t.Fatalf("paper-resolution guard failed: %s", res)
	}
	if guard.Guard.Interventions == 0 {
		t.Fatal("campaign never triggered the guard")
	}
}
