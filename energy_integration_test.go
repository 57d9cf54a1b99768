package plugvolt_test

import (
	"bytes"
	"math"
	"testing"

	"plugvolt"
	"plugvolt/internal/attack"
	"plugvolt/internal/core"
	"plugvolt/internal/kernel"
	"plugvolt/internal/msr"
	"plugvolt/internal/power"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
)

// runGuardedV0LTpwn boots a Sky Lake, characterizes it on one worker,
// deploys the guard, runs a V0LTpwn campaign and 2 ms more, and returns the
// live system for ledger and telemetry inspection.
func runGuardedV0LTpwn(t *testing.T, seed int64) *plugvolt.System {
	t.Helper()
	sys, grid := characterize(t, "skylake", seed, 1)
	guard, err := sys.DeployGuard(grid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := attack.DefaultV0LTpwn().Run(sys.Env(), guard.Name()); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(2 * sim.Millisecond)
	return sys
}

// The end-to-end energy invariants of an attacked, guarded system: the
// attribution closes exactly per core, interventions bill under their own
// kind, the modeled RAPL counters agree with the integrator, and the
// telemetry surface republishes the same ledgers.
func TestEnergyEndToEnd(t *testing.T) {
	sys := runGuardedV0LTpwn(t, 7)
	p := sys.Platform
	tr := p.Energy

	// Per-core closure, exact in integer picojoules.
	var guardTotalPJ, interventionPJ int64
	for c := 0; c < p.NumCores(); c++ {
		total := sys.Kernel.EnergyPJ(c)
		var sum int64
		for _, k := range kernel.CostKinds() {
			sum += sys.Kernel.EnergyPJBy(k, c)
		}
		if sum != total {
			t.Fatalf("core %d: per-kind energy %d pJ != total %d pJ", c, sum, total)
		}
		guardTotalPJ += total
		interventionPJ += sys.Kernel.EnergyPJBy(kernel.CostIntervention, c)
	}
	if guardTotalPJ == 0 {
		t.Fatal("guarded run booked no kernel energy")
	}
	if interventionPJ == 0 {
		t.Fatal("attacked run booked no intervention energy — corrective writes not attributed")
	}

	// Guard energy is a strict subset of the integrator's whole-core bill.
	pkgJ := tr.PackageEnergyJ()
	if pkgJ <= 0 {
		t.Fatal("integrator idle")
	}
	if g := float64(guardTotalPJ) * 1e-12; g >= tr.CoresEnergyJ() {
		t.Fatalf("guard energy %g J exceeds whole-core energy %g J", g, tr.CoresEnergyJ())
	}

	// The modeled RAPL counters read through the MSR interface must agree
	// with the integrator to one energy unit (2^-14 J quantization).
	pkgRaw, err := p.MSRFile(0).Read(msr.PkgEnergyStatus)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(uint32(pkgRaw)) * msr.DefaultEnergyUnitJ; math.Abs(got-pkgJ) > msr.DefaultEnergyUnitJ {
		t.Fatalf("MSR_PKG_ENERGY_STATUS %g J vs integrator %g J", got, pkgJ)
	}
	pp0Raw, err := p.MSRFile(0).Read(msr.PP0EnergyStatus)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(uint32(pp0Raw)) * msr.DefaultEnergyUnitJ; math.Abs(got-tr.CoresEnergyJ()) > msr.DefaultEnergyUnitJ {
		t.Fatalf("MSR_PP0_ENERGY_STATUS %g J vs cores %g J", got, tr.CoresEnergyJ())
	}
	// PKG strictly exceeds PP0: the uncore draw is package-only.
	if pkgRaw <= pp0Raw {
		t.Fatalf("PKG counter %d <= PP0 counter %d; uncore energy missing", pkgRaw, pp0Raw)
	}

	// The telemetry surface republishes the same ledgers: the per-kind
	// series sum to the kernel totals, and the integrator gauges match.
	sys.CollectTelemetry()
	snap := sys.Telemetry.Registry().Snapshot()
	fam := family(snap, "power_energy_joules_total")
	if fam == nil {
		t.Fatal("power_energy_joules_total missing from the exposition")
	}
	var famSum float64
	for _, s := range fam.Series {
		famSum += s.Value
	}
	if want := float64(guardTotalPJ) * 1e-12; math.Abs(famSum-want) > 1e-9 {
		t.Fatalf("power_energy_joules_total sums to %g J, kernel ledger %g J", famSum, want)
	}
	if got := seriesSum(snap, "power_package_energy_joules"); math.Abs(got-tr.PackageEnergyJ()) > 1e-9 {
		t.Fatalf("power_package_energy_joules %g vs integrator %g", got, tr.PackageEnergyJ())
	}
	coreFam := family(snap, "power_core_energy_joules")
	if coreFam == nil || len(coreFam.Series) != p.NumCores() {
		t.Fatal("per-core energy gauges missing")
	}
	for _, s := range coreFam.Series {
		if s.Labels["governor"] == "" {
			t.Fatal("per-core energy gauge lacks governor label")
		}
	}
}

// TestEnergyPerPollPeriodExact pins the joules per poll period: one poll
// period of the guarded Sky Lake seed-42 steady state (default guard,
// telemetry off, after a 1 ms warm-up) bills exactly this package energy
// (float64) and exactly this guard energy (integer picojoules). Both are
// modeled, so any drift is a change to the power model or to a billing
// point, never host noise.
func TestEnergyPerPollPeriodExact(t *testing.T) {
	const (
		wantPackageJ = 0.005610847505345316 // ≈ 5.611 mJ
		wantGuardPJ  = 9468984              // ≈ 9.5 µJ
	)
	sys, grid := characterize(t, "skylake", 42, 0)
	sys.SetTelemetry(&telemetry.Set{})
	cfg := core.DefaultGuardConfig()
	guard, err := core.NewGuard(grid.UnsafeSet(), sys.Platform.Spec.BusMHz, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Kernel.Load(guard.Module()); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(sim.Millisecond)
	guardPJ := func() (pj int64) {
		for c := 0; c < sys.Platform.NumCores(); c++ {
			pj += sys.Kernel.EnergyPJ(c)
		}
		return pj
	}
	tr := sys.Platform.Energy
	pkgBefore, guardBefore := tr.PackageEnergyJ(), guardPJ()
	sys.RunFor(cfg.PollPeriod)
	if guard.Interventions != 0 {
		t.Fatal("benign steady state triggered interventions; wrong path measured")
	}
	if got := tr.PackageEnergyJ() - pkgBefore; got != wantPackageJ {
		t.Errorf("package energy per poll period %v J, want %v J", got, wantPackageJ)
	}
	if got := guardPJ() - guardBefore; got != wantGuardPJ {
		t.Errorf("guard energy per poll period %d pJ, want %d pJ", got, wantGuardPJ)
	}
}

// Energy metering is observation, not simulation: reading the RAPL MSRs and
// the integrator mid-run any number of times must not change a single byte
// of the final exposition — the pure-read contract that keeps live
// observability compatible with fleet determinism.
func TestEnergyReadsDoNotPerturb(t *testing.T) {
	render := func(noisy bool) []byte {
		sys := runGuardedV0LTpwn(t, 42)
		if noisy {
			for i := 0; i < 50; i++ {
				if _, err := sys.Platform.MSRFile(0).Read(msr.PkgEnergyStatus); err != nil {
					t.Fatal(err)
				}
				_ = sys.Platform.Energy.PackageEnergyJ()
				sys.RunFor(20 * sim.Microsecond)
			}
		} else {
			sys.RunFor(50 * 20 * sim.Microsecond)
		}
		sys.CollectTelemetry()
		var exposition bytes.Buffer
		if err := sys.Telemetry.Registry().Snapshot().WritePrometheus(&exposition); err != nil {
			t.Fatal(err)
		}
		return exposition.Bytes()
	}
	quiet, noisy := render(false), render(true)
	if string(quiet) != string(noisy) {
		t.Fatal("interleaved energy reads changed the exposition")
	}
}

// TestSafeUndervoltSavingsMatchClosedForm measures the safe undervolt's
// core-plane savings against a full clamp the way plugvolt-overhead -energy
// does (fresh systems at its default seed, the quick sweep's maximal safe
// state with a 5 mV band on every core, a 500 ms window) and holds them to
// Model.UndervoltSavingsPct at core 0's stock point. The measured figure
// bills every core at its own commanded point, so the two differ by less
// than savingsTolPct. On the default Comet Lake they are 18.21% and 18.36%.
func TestSafeUndervoltSavingsMatchClosedForm(t *testing.T) {
	const (
		seed          = 2017
		window        = 500 * sim.Millisecond
		savingsTolPct = 0.5
	)
	coresJ := func(model string, offsetMV int) float64 {
		sys, err := plugvolt.NewSystem(model, seed)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < sys.Platform.NumCores() && offsetMV != 0; c++ {
			if err := sys.Platform.WriteOffsetViaMSR(c, offsetMV, msr.PlaneCore); err != nil {
				t.Fatal(err)
			}
		}
		before := sys.Platform.Energy.CoresEnergyJ()
		sys.RunFor(window)
		return sys.Platform.Energy.CoresEnergyJ() - before
	}
	for _, model := range plugvolt.Models() {
		sys, grid := characterize(t, model, seed, 0)
		safeMV := grid.MaximalSafeOffsetMV(5)
		if safeMV >= 0 {
			t.Fatalf("%s: no safe undervolt to measure (%d mV)", model, safeMV)
		}
		clampJ, safeJ := coresJ(model, 0), coresJ(model, safeMV)
		measured := (clampJ - safeJ) / clampJ * 100
		c0 := sys.Platform.Core(0)
		closed := power.ModelFor(sys.Platform.Spec.Codename).
			UndervoltSavingsPct(c0.CommandedGHz(), c0.CommandedVoltV()*1000, safeMV)
		t.Logf("%s: %d mV saves %.2f%% measured, %.2f%% closed form", model, safeMV, measured, closed)
		if math.Abs(measured-closed) > savingsTolPct {
			t.Errorf("%s: %d mV saves %.2f%% measured, %.2f%% closed form; want within %.1f points",
				model, safeMV, measured, closed, savingsTolPct)
		}
	}
}
