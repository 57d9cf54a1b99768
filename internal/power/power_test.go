// External test package: cpu imports power (the platform owns an energy
// Tracker), so these tests — which build real platforms — must live outside
// package power to avoid an import cycle.
package power_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"plugvolt/internal/cpu"
	"plugvolt/internal/models"
	"plugvolt/internal/msr"
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

func TestMeterIntegratesEnergy(t *testing.T) {
	spec, err := models.SkyLake()
	if err != nil {
		t.Fatal(err)
	}
	p, err := cpu.NewPlatform(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := power.NewMeter(power.DefaultModel(), p.Core(0), 10*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(p.Sim); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(p.Sim); err == nil {
		t.Fatal("double start accepted")
	}
	p.Sim.RunFor(10 * sim.Millisecond)
	m.Stop()
	if m.Elapsed != 10*sim.Millisecond {
		t.Fatalf("elapsed %v", m.Elapsed)
	}
	// Constant operating point: E = P * t.
	wantW := power.DefaultModel().TotalW(p.Core(0).FreqGHz(), p.Core(0).VoltageV())
	if math.Abs(m.AverageW()-wantW) > 1e-9 {
		t.Fatalf("average %v W want %v", m.AverageW(), wantW)
	}
	wantJ := wantW * 0.010
	if math.Abs(m.EnergyJ-wantJ)/wantJ > 1e-6 {
		t.Fatalf("energy %v J want %v", m.EnergyJ, wantJ)
	}
	if m.PeakW != wantW || m.LastW() != wantW {
		t.Fatal("peak/last inconsistent at constant point")
	}
}

func TestMeterSeesUndervolt(t *testing.T) {
	spec, _ := models.SkyLake()
	p, _ := cpu.NewPlatform(spec, 2)
	m, err := power.NewMeter(power.DefaultModel(), p.Core(0), 10*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(p.Sim); err != nil {
		t.Fatal(err)
	}
	p.Sim.RunFor(5 * sim.Millisecond)
	baseline := m.LastW()
	if err := p.WriteOffsetViaMSR(0, -70, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.Sim.RunFor(5 * sim.Millisecond)
	m.Stop()
	if m.LastW() >= baseline {
		t.Fatalf("undervolt did not reduce power: %v -> %v", baseline, m.LastW())
	}
	reduction := (baseline - m.LastW()) / baseline * 100
	if reduction < 5 || reduction > 20 {
		t.Fatalf("reduction %v%% implausible", reduction)
	}
}

func TestMeterValidation(t *testing.T) {
	spec, _ := models.SkyLake()
	p, _ := cpu.NewPlatform(spec, 1)
	if _, err := power.NewMeter(power.Model{}, p.Core(0), sim.Microsecond); err == nil {
		t.Fatal("invalid model accepted")
	}
	if _, err := power.NewMeter(power.DefaultModel(), nil, sim.Microsecond); err == nil {
		t.Fatal("nil core accepted")
	}
	if _, err := power.NewMeter(power.DefaultModel(), p.Core(0), 0); err == nil {
		t.Fatal("zero period accepted")
	}
	m, _ := power.NewMeter(power.DefaultModel(), p.Core(0), sim.Microsecond)
	if m.AverageW() != 0 {
		t.Fatal("average on unstarted meter")
	}
}
