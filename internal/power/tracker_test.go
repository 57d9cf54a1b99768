package power_test

import (
	"math"
	"testing"

	"plugvolt/internal/power"
	"plugvolt/internal/sim"
)

// trackerRig is a hand-cranked clock plus a mutable per-core operating
// point, standing in for the platform's commanded-point adapter.
type trackerRig struct {
	now  sim.Time
	freq []float64
	volt []float64
}

func (r *trackerRig) clock() sim.Time { return r.now }

func (r *trackerRig) point(core int) (float64, float64) {
	return r.freq[core], r.volt[core]
}

func newRig(cores int, freqGHz, voltV float64) *trackerRig {
	r := &trackerRig{freq: make([]float64, cores), volt: make([]float64, cores)}
	for i := range r.freq {
		r.freq[i] = freqGHz
		r.volt[i] = voltV
	}
	return r
}

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// A constant operating point integrates to exactly P·t, and the package
// total adds the fixed uncore draw on top of the core planes.
func TestTrackerConstantPoint(t *testing.T) {
	rig := newRig(2, 3.2, 1.10)
	m := power.DefaultModel()
	tr, err := power.NewTracker(m, 2, rig.clock, rig.point)
	if err != nil {
		t.Fatal(err)
	}
	rig.now = 500 * sim.Millisecond
	wantCore := m.TotalW(3.2, 1.10) * 0.5
	for c := 0; c < 2; c++ {
		if got := tr.CoreEnergyJ(c); !approx(got, wantCore) {
			t.Errorf("core %d energy %g J, want %g J", c, got, wantCore)
		}
	}
	if got := tr.CoresEnergyJ(); !approx(got, 2*wantCore) {
		t.Errorf("cores energy %g J, want %g J", got, 2*wantCore)
	}
	wantPkg := 2*wantCore + tr.UncoreW*0.5
	if got := tr.PackageEnergyJ(); !approx(got, wantPkg) {
		t.Errorf("package energy %g J, want %g J", got, wantPkg)
	}
}

// Reads are pure: interleaving any number of mid-segment reads must leave
// the committed totals bit-identical to an unread twin — this is what lets
// mid-run reads (RAPL MSRs, telemetry collection) coexist with the fleet
// determinism contract.
func TestTrackerReadsArePure(t *testing.T) {
	run := func(reads int) float64 {
		rig := newRig(1, 3.2, 1.10)
		tr, err := power.NewTracker(power.DefaultModel(), 1, rig.clock, rig.point)
		if err != nil {
			t.Fatal(err)
		}
		for step := 1; step <= 4; step++ {
			rig.now += 137 * sim.Microsecond
			for i := 0; i < reads*step; i++ {
				_ = tr.CoreEnergyJ(0)
				_ = tr.PackageEnergyJ()
			}
			rig.volt[0] -= 0.005
			tr.Touch(0)
		}
		rig.now += 50 * sim.Microsecond
		return tr.CoreEnergyJ(0)
	}
	quiet, noisy := run(0), run(7)
	if quiet != noisy {
		t.Errorf("mid-segment reads changed the integral: %v != %v", noisy, quiet)
	}
}

// A point change bills the old power up to the Touch instant and the new
// power after it — piecewise-constant, no smearing.
func TestTrackerPiecewiseSegments(t *testing.T) {
	rig := newRig(1, 3.2, 1.10)
	m := power.DefaultModel()
	tr, err := power.NewTracker(m, 1, rig.clock, rig.point)
	if err != nil {
		t.Fatal(err)
	}
	rig.now = 100 * sim.Millisecond
	rig.freq[0], rig.volt[0] = 1.2, 0.85
	tr.Touch(0)
	rig.now = 300 * sim.Millisecond
	want := m.TotalW(3.2, 1.10)*0.1 + m.TotalW(1.2, 0.85)*0.2
	if got := tr.CoreEnergyJ(0); !approx(got, want) {
		t.Errorf("two-segment energy %g J, want %g J", got, want)
	}
	// Undervolting at fixed frequency strictly reduces the bill relative to
	// the nominal voltage over the same window.
	nom := newRig(1, 3.2, 1.10)
	trN, err := power.NewTracker(m, 1, nom.clock, nom.point)
	if err != nil {
		t.Fatal(err)
	}
	nom.now = 300 * sim.Millisecond
	deep := newRig(1, 3.2, 1.10-0.055)
	trU, err := power.NewTracker(m, 1, deep.clock, deep.point)
	if err != nil {
		t.Fatal(err)
	}
	deep.now = 300 * sim.Millisecond
	if trU.CoreEnergyJ(0) >= trN.CoreEnergyJ(0) {
		t.Error("undervolted core did not consume less energy than nominal")
	}
}

// Blackout opens a zero-watt segment: reboot downtime costs nothing until
// the next Touch resamples the live point.
func TestTrackerBlackout(t *testing.T) {
	rig := newRig(1, 3.2, 1.10)
	m := power.DefaultModel()
	tr, err := power.NewTracker(m, 1, rig.clock, rig.point)
	if err != nil {
		t.Fatal(err)
	}
	rig.now = 10 * sim.Millisecond
	tr.Blackout(0)
	rig.now = 40 * sim.Millisecond // 30 ms dark
	tr.Touch(0)
	rig.now = 50 * sim.Millisecond
	want := m.TotalW(3.2, 1.10) * (0.010 + 0.010)
	if got := tr.CoreEnergyJ(0); !approx(got, want) {
		t.Errorf("energy across blackout %g J, want %g J (dark window billed)", got, want)
	}
	if w := tr.CoreW(0); !approx(w, m.TotalW(3.2, 1.10)) {
		t.Errorf("post-blackout power %g W, want live point", w)
	}
}

func TestTrackerValidates(t *testing.T) {
	rig := newRig(1, 3.2, 1.10)
	if _, err := power.NewTracker(power.Model{CeffNF: -1}, 1, rig.clock, rig.point); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := power.NewTracker(power.DefaultModel(), 0, rig.clock, rig.point); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := power.NewTracker(power.DefaultModel(), 1, nil, rig.point); err == nil {
		t.Error("nil clock accepted")
	}
	if _, err := power.NewTracker(power.DefaultModel(), 1, rig.clock, nil); err == nil {
		t.Error("nil point fn accepted")
	}
}

// PriceW is memoized per core, but must stay bit-identical to TotalW at the
// live commanded point through every kind of transition: P-state moves up
// and down (frequency and voltage change), core-plane mailbox writes
// (voltage alone changes), other-plane writes and repeated reads (nothing
// changes), a crash blackout (billed power is 0 while the point stays live)
// and the power-on TouchAll at the rebuilt base point.
func TestPriceWMatchesTotalWBits(t *testing.T) {
	const cores = 2
	rig := newRig(cores, 3.2, 1.10)
	m := power.DefaultModel()
	tr, err := power.NewTracker(m, cores, rig.clock, rig.point)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		for c := 0; c < cores; c++ {
			for read := 0; read < 3; read++ {
				got := math.Float64bits(tr.PriceW(c))
				want := math.Float64bits(m.TotalW(rig.freq[c], rig.volt[c]))
				if got != want {
					t.Fatalf("%s: core %d read %d: PriceW bits %#x, TotalW bits %#x",
						step, c, read, got, want)
				}
			}
		}
	}
	set := func(core int, freqGHz, voltV float64) {
		rig.now += 10 * sim.Microsecond
		rig.freq[core], rig.volt[core] = freqGHz, voltV
		tr.Touch(core)
	}
	check("boot")
	set(0, 3.6, 1.15)
	check("p-state up")
	set(0, 1.2, 0.85)
	check("p-state down")
	set(0, 1.2, 0.85-0.050)
	check("core-plane undervolt at fixed frequency")
	set(0, 1.2, 0.85-0.050)
	check("other-plane write (point unchanged)")
	set(1, 3.2, 1.10-0.030)
	check("core-plane undervolt on the other core")
	rig.now += 10 * sim.Microsecond
	tr.Blackout(0)
	check("blackout")
	// The reboot rebuilds the base point while the core is still dark: the
	// kernel keeps charging at it, although the billed power is 0.
	rig.freq[0], rig.volt[0] = 3.2, 1.10
	check("rebuilt base point during blackout")
	if w := tr.CoreW(0); w != 0 {
		t.Fatalf("blacked-out core bills %g W, want 0", w)
	}
	rig.now += 10 * sim.Microsecond
	tr.TouchAll()
	check("power-on touch")
	set(0, 0, 0)
	check("zero point")
	set(0, 3.2, 1.10)
	check("back to base")
}
