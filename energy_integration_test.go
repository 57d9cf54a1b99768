package plugvolt_test

import (
	"math"
	"testing"

	"plugvolt"
	"plugvolt/internal/attack"
	"plugvolt/internal/kernel"
	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
)

// runEnergyScenario is runInstrumentedScenario's energy twin: guarded Sky
// Lake under an LTpwn campaign, returning the live system for ledger
// inspection.
func runEnergyScenario(t *testing.T, seed int64) *plugvolt.System {
	t.Helper()
	sys, err := plugvolt.NewSystem("skylake", seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := plugvolt.QuickSweep()
	cfg.Workers = 1
	grid, err := sys.Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	sys := runEnergyScenario(t, 7)
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
	if got := msr.DecodeEnergyStatus(pkgRaw, msr.DefaultEnergyUnitJ); math.Abs(got-pkgJ) > msr.DefaultEnergyUnitJ {
		t.Fatalf("MSR_PKG_ENERGY_STATUS %g J vs integrator %g J", got, pkgJ)
	}
	pp0Raw, err := p.MSRFile(0).Read(msr.PP0EnergyStatus)
	if err != nil {
		t.Fatal(err)
	}
	if got := msr.DecodeEnergyStatus(pp0Raw, msr.DefaultEnergyUnitJ); math.Abs(got-tr.CoresEnergyJ()) > msr.DefaultEnergyUnitJ {
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
	fam := snap.Find("power_energy_joules_total")
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
	if got := snap.Value("power_package_energy_joules", nil); math.Abs(got-tr.PackageEnergyJ()) > 1e-9 {
		t.Fatalf("power_package_energy_joules %g vs integrator %g", got, tr.PackageEnergyJ())
	}
	coreFam := snap.Find("power_core_energy_joules")
	if coreFam == nil || len(coreFam.Series) != p.NumCores() {
		t.Fatal("per-core energy gauges missing")
	}
	for _, s := range coreFam.Series {
		if s.Labels["governor"] == "" {
			t.Fatal("per-core energy gauge lacks governor label")
		}
	}
}

// TestEnergyPerPollPeriodExact pins the joules/op axis of
// BenchmarkEnergyAccounting: one poll period of the guarded Sky Lake seed-42
// steady state bills exactly this package energy (float64) and exactly this
// guard energy (integer picojoules). Both are modeled, so any drift is a
// change to the power model or to a billing point, never host noise.
func TestEnergyPerPollPeriodExact(t *testing.T) {
	const (
		wantPackageJ = 0.005610847505345316 // ≈ 5.611 mJ
		wantGuardPJ  = 9468984              // ≈ 9.5 µJ
	)
	sys, guard, period := guardedSteadyState(t)
	tr := sys.Platform.Energy
	pkgBefore, guardBefore := tr.PackageEnergyJ(), guardEnergyPJ(sys)
	sys.RunFor(period)
	if guard.Interventions != 0 {
		t.Fatal("benign steady state triggered interventions; wrong path measured")
	}
	if got := tr.PackageEnergyJ() - pkgBefore; got != wantPackageJ {
		t.Errorf("package energy per poll period %v J, want %v J", got, wantPackageJ)
	}
	if got := guardEnergyPJ(sys) - guardBefore; got != wantGuardPJ {
		t.Errorf("guard energy per poll period %d pJ, want %d pJ", got, wantGuardPJ)
	}
}

// Energy metering is observation, not simulation: reading the RAPL MSRs and
// the integrator mid-run any number of times must not change a single byte
// of the final exposition — the pure-read contract that keeps live
// observability compatible with fleet determinism.
func TestEnergyReadsDoNotPerturb(t *testing.T) {
	render := func(noisy bool) []byte {
		sys := runEnergyScenario(t, 42)
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
		j, err := sys.Telemetry.Registry().Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	quiet, noisy := render(false), render(true)
	if string(quiet) != string(noisy) {
		t.Fatal("interleaved energy reads changed the exposition")
	}
}
