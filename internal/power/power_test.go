// External test package, like the Tracker tests beside it: they drive the
// integrator through its exported API only.
package power_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"plugvolt/internal/power"
	"plugvolt/internal/sim"
)

func TestModelValidate(t *testing.T) {
	if err := power.DefaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []power.Model{
		{CeffNF: 0, Activity: 1, LeakA: 0.1, LeakVT: 0.4},
		{CeffNF: 3, Activity: -0.1, LeakA: 0.1, LeakVT: 0.4},
		{CeffNF: 3, Activity: 1.5, LeakA: 0.1, LeakVT: 0.4},
		{CeffNF: 3, Activity: 1, LeakA: -1, LeakVT: 0.4},
		{CeffNF: 3, Activity: 1, LeakA: 0.1, LeakVT: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestCalibrationPoint(t *testing.T) {
	m := power.DefaultModel()
	dyn := m.DynamicW(3.2, 1.10)
	if dyn < 12 || dyn > 14 {
		t.Fatalf("dynamic power at calibration point %v W, want ~13", dyn)
	}
	st := m.StaticW(1.10)
	if st < 1.0 || st > 2.0 {
		t.Fatalf("static power %v W, want ~1.5", st)
	}
	if m.StaticW(0) != 0 || m.StaticW(-1) != 0 {
		t.Fatal("nonpositive voltage leaked")
	}
	if tot := m.TotalW(3.2, 1.10); math.Abs(tot-dyn-st) > 1e-12 {
		t.Fatal("total != dyn + static")
	}
}

func TestModelFor(t *testing.T) {
	specs := []string{"Sky Lake", "Kaby Lake R", "Comet Lake", "unknown"}
	for _, name := range specs {
		m := power.ModelFor(name)
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if power.ModelFor("unknown") != power.DefaultModel() {
		t.Fatal("unknown codename should fall back to the default model")
	}
	// The three fleet models must be distinguishable at a common point, so
	// fleet joule rollups actually reflect the model mix.
	sky := power.ModelFor("Sky Lake").TotalW(3.2, 1.10)
	kbl := power.ModelFor("Kaby Lake R").TotalW(3.2, 1.10)
	cml := power.ModelFor("Comet Lake").TotalW(3.2, 1.10)
	if !(kbl < sky && sky < cml) {
		t.Fatalf("model ordering at 3.2GHz/1.10V: kbl %v, sky %v, cml %v", kbl, sky, cml)
	}
}

// Property: power is strictly increasing in both f and V (physical sanity).
func TestQuickPowerMonotone(t *testing.T) {
	m := power.DefaultModel()
	f := func(rf, rv uint8) bool {
		freq := 0.5 + float64(rf%40)*0.1
		v := 0.6 + float64(rv%60)*0.01
		if m.TotalW(freq+0.1, v) <= m.TotalW(freq, v) {
			return false
		}
		return m.TotalW(freq, v+0.01) > m.TotalW(freq, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

func TestUndervoltSavings(t *testing.T) {
	m := power.DefaultModel()
	// -70 mV at 3.2 GHz / 1104 mV nominal: V drops 6.3%, dynamic ~12%.
	s := m.UndervoltSavingsPct(3.2, 1104, -70)
	if s < 8 || s > 18 {
		t.Fatalf("savings %v%%, want ~12%%", s)
	}
	if z := m.UndervoltSavingsPct(3.2, 1104, 0); z != 0 {
		t.Fatalf("zero offset saved %v%%", z)
	}
	if neg := m.UndervoltSavingsPct(3.2, 1104, 50); neg >= 0 {
		t.Fatal("overvolting reported as saving")
	}
}

// The CV²f relations of SNIPPETS.md's Snippet 3, asserted on the Tracker,
// the one energy integrator: a commanded point held for the time N cycles
// take at its frequency. Each model is checked with its leakage stripped
// (the dynamic term alone) and in full (dynamic plus static).

var codenames = []string{"Sky Lake", "Kaby Lake R", "Comet Lake"}

// dynamicOnly strips a model's leakage, so a Tracker over it bills CV²f alone.
func dynamicOnly(m power.Model) power.Model {
	m.LeakA = 0
	return m
}

// cyclesEnergyJ integrates n cycles at one commanded point on a fresh
// Tracker and returns the energy and the runtime: n cycles at f GHz take
// n/f ns, rounded to the simulator's picosecond.
func cyclesEnergyJ(t *testing.T, m power.Model, n, freqGHz, voltV float64) (float64, sim.Duration) {
	t.Helper()
	rig := newRig(1, freqGHz, voltV)
	tr, err := power.NewTracker(m, 1, rig.clock, rig.point)
	if err != nil {
		t.Fatal(err)
	}
	rig.now = sim.Time(math.Round(n / freqGHz * float64(sim.Nanosecond)))
	return tr.CoreEnergyJ(0), rig.now
}

// At a fixed V, the dynamic energy of N cycles does not depend on f: the
// power rises with f and the runtime N/f falls with it, leaving C·V²·N.
func TestDynamicEnergyOfFixedWorkIndependentOfFrequency(t *testing.T) {
	const cycles, voltV = 1e8, 0.9
	for _, name := range codenames {
		m := dynamicOnly(power.ModelFor(name))
		want := m.CeffNF * 1e-9 * m.Activity * voltV * voltV * cycles
		for _, f := range []float64{0.8, 1.6, 2.4, 3.2, 4.0, 4.9} {
			if got, _ := cyclesEnergyJ(t, m, cycles, f, voltV); !approx(got, want) {
				t.Errorf("%s at %.1f GHz: dynamic energy of %g cycles %g J, want C·V²·N = %g J", name, f, cycles, got, want)
			}
		}
	}
}

// A 15% drop in both V and f leaves (0.85)² = 72% of the dynamic energy of
// the same work and (0.85)³ = 61% of the dynamic power.
func TestMatchedVoltageFrequencyDropScalesDynamicEnergyAndPower(t *testing.T) {
	const cycles, f, v = 3e8, 3.0, 1.0
	for _, name := range codenames {
		m := dynamicOnly(power.ModelFor(name))
		e1, t1 := cyclesEnergyJ(t, m, cycles, f, v)
		e2, t2 := cyclesEnergyJ(t, m, cycles, 0.85*f, 0.85*v)
		energyRatio := e2 / e1
		powerRatio := (e2 / t2.Seconds()) / (e1 / t1.Seconds())
		if !approx(energyRatio, 0.85*0.85) || math.Round(energyRatio*100) != 72 {
			t.Errorf("%s: dynamic energy ratio %.6f, want 0.7225 (72%%)", name, energyRatio)
		}
		if !approx(powerRatio, 0.85*0.85*0.85) || math.Round(powerRatio*100) != 61 {
			t.Errorf("%s: dynamic power ratio %.6f, want 0.614125 (61%%)", name, powerRatio)
		}
	}
}

// Static energy is the leakage power times the runtime: it grows linearly
// with runtime, so the same cycles at half the frequency leak twice the
// energy.
func TestStaticEnergyLinearInRuntime(t *testing.T) {
	const cycles, voltV = 1e8, 0.9
	for _, name := range codenames {
		m := power.ModelFor(name)
		static := func(f float64) (float64, sim.Duration) {
			full, rt := cyclesEnergyJ(t, m, cycles, f, voltV)
			dyn, _ := cyclesEnergyJ(t, dynamicOnly(m), cycles, f, voltV)
			return full - dyn, rt
		}
		e1, rt1 := static(3.2)
		if want := m.StaticW(voltV) * rt1.Seconds(); !approx(e1, want) {
			t.Errorf("%s: static energy %g J over %v, want P_static·T = %g J", name, e1, rt1, want)
		}
		for _, k := range []float64{2, 4, 8} {
			ek, rtk := static(3.2 / k)
			if rtk != sim.Duration(k)*rt1 {
				t.Fatalf("%s: runtime %v at 1/%g the frequency, want %g x %v", name, rtk, k, k, rt1)
			}
			if !approx(ek, k*e1) {
				t.Errorf("%s: static energy over %g x the runtime %g J, want %g J", name, k, ek, k*e1)
			}
		}
	}
}
