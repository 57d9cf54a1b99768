package power

import (
	"errors"
	"math"

	"plugvolt/internal/flight"
	"plugvolt/internal/sim"
)

// PointFn reports a core's *commanded* operating point: the frequency of
// the most recently commanded P-state ratio and the rail target voltage
// (nominal + OC-mailbox offset). The Tracker deliberately bills the
// commanded point rather than the mid-slew regulator output: commanded
// power is piecewise-constant between transitions, which is what makes
// lazy exact integration possible, and it is also what RAPL firmware
// effectively does (energy models keyed off the requested P-state).
type PointFn func(core int) (freqGHz, voltV float64)

// DefaultUncoreW is the constant uncore/package-infrastructure power that
// separates MSR_PKG_ENERGY_STATUS from MSR_PP0_ENERGY_STATUS.
const DefaultUncoreW = 2.0

// coreMeter is one core's integration state: energy accrued through lastT,
// the power in effect since then, and the PriceW memo.
type coreMeter struct {
	lastT   sim.Time
	lastW   float64
	energyJ float64
	price   priceMemo
}

// priceMemo is TotalW at one commanded point, keyed on the exact bits of
// (GHz, V). It is deliberately not lastW: between a Blackout and the
// power-on Touch, lastW is 0 while the kernel keeps charging at the reset
// base point. The zero memo is exact, since TotalW(+0, +0) is +0 for every
// valid model.
type priceMemo struct {
	freqBits, voltBits uint64
	w                  float64
}

// Tracker is the deterministic per-core energy integrator: dynamic CV²f
// plus leakage, integrated over the virtual clock as a piecewise-constant
// function of the commanded operating point.
//
// Determinism contract: Touch/Blackout mutate state and must be called at
// exactly the same virtual instants on every replay of a run (they are —
// the only callers are the cpu package's retarget and reboot paths, which
// are themselves event-driven). Every read (CoreEnergyJ, CoresEnergyJ,
// PackageEnergyJ, PriceW) is PURE: it extrapolates the open segment to the
// current virtual time without closing it, so a telemetry collection or
// RAPL MSR read mid-run can never regroup the floating-point accrual and break
// byte-identity of the final totals across -workers/-batch/-epochs splits.
// PriceW memoizes its last result per core, but stays observationally pure:
// it returns the bits TotalW would at the live point, whatever was read
// before. The memo write makes it a sim-goroutine-only call, like Touch.
type Tracker struct {
	model Model
	now   func() sim.Time
	point PointFn
	cores []coreMeter

	// UncoreW is billed on top of the per-core integrals in
	// PackageEnergyJ (PKG = PP0 + uncore), constant while powered.
	UncoreW float64

	// flight, when set, records every segment boundary (Touch/Blackout)
	// with the newly billed power — the energy-segment stream an incident
	// bundle correlates against P-state retargets and mailbox writes.
	// Observation only: it never changes what is billed.
	flight *flight.Recorder
}

// SetFlightRecorder attaches (nil detaches) the flight recorder observing
// segment boundaries.
func (t *Tracker) SetFlightRecorder(rec *flight.Recorder) { t.flight = rec }

// NewTracker builds a tracker over numCores cores. The clock and point
// functions must be non-nil; each core's first segment opens at now().
func NewTracker(model Model, numCores int, now func() sim.Time, point PointFn) (*Tracker, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if numCores <= 0 {
		return nil, errors.New("power: tracker needs at least one core")
	}
	if now == nil || point == nil {
		return nil, errors.New("power: tracker needs clock and point functions")
	}
	t := &Tracker{
		model: model,
		now:   now,
		point: point,
		cores: make([]coreMeter, numCores),
	}
	t.Reset()
	return t, nil
}

// Reset returns the tracker to NewTracker's state in place: no energy
// accrued, each core's first segment opened at now() at its commanded
// point, the default uncore draw and no flight recorder attached.
func (t *Tracker) Reset() {
	for i := range t.cores {
		t.cores[i] = coreMeter{lastT: t.now()}
		t.cores[i].lastW = t.PriceW(i)
	}
	t.UncoreW = DefaultUncoreW
	t.flight = nil
}

// PriceW returns the live commanded-point power of a core in watts — the
// price the kernel cost-attribution path multiplies by charged CPU time,
// several times per guard poll at an unchanged point. It recomputes TotalW
// only when the commanded point's bits change, so the result is always
// bit-identical to TotalW at the live point. Allocation-free; call it from
// the sim goroutine only (it writes the memo).
func (t *Tracker) PriceW(core int) float64 {
	f, v := t.point(core)
	fb, vb := math.Float64bits(f), math.Float64bits(v)
	m := &t.cores[core].price
	if m.freqBits != fb || m.voltBits != vb {
		*m = priceMemo{freqBits: fb, voltBits: vb, w: t.model.TotalW(f, v)}
	}
	return m.w
}

// accrue closes the open segment at the current instant.
func (t *Tracker) accrue(core int) *coreMeter {
	m := &t.cores[core]
	if nw := t.now(); nw > m.lastT {
		m.energyJ += m.lastW * sim.Duration(nw-m.lastT).Seconds()
		m.lastT = nw
	}
	return m
}

// Touch must be called at every commanded operating-point transition of a
// core: it bills the elapsed segment at the old power and re-samples the
// commanded point for the next one.
func (t *Tracker) Touch(core int) {
	m := t.accrue(core)
	m.lastW = t.PriceW(core)
	t.flight.EnergySegment(core, m.lastW)
}

// TouchAll touches every core (index order, for deterministic rounding).
func (t *Tracker) TouchAll() {
	for i := range t.cores {
		t.Touch(i)
	}
}

// Blackout closes a core's segment and bills subsequent time at zero watts
// until the next Touch — the machine-off span of a crash reboot.
func (t *Tracker) Blackout(core int) {
	m := t.accrue(core)
	m.lastW = 0
	t.flight.EnergySegment(core, 0)
}

// CoreEnergyJ returns a core's integrated energy through the current
// virtual instant. Pure: the open segment is extrapolated, not closed.
func (t *Tracker) CoreEnergyJ(core int) float64 {
	m := &t.cores[core]
	e := m.energyJ
	if nw := t.now(); nw > m.lastT {
		e += m.lastW * sim.Duration(nw-m.lastT).Seconds()
	}
	return e
}

// CoresEnergyJ returns the sum over cores — the PP0 (core power plane)
// energy that backs MSR_PP0_ENERGY_STATUS. Pure.
func (t *Tracker) CoresEnergyJ() float64 {
	var e float64
	for i := range t.cores {
		e += t.CoreEnergyJ(i)
	}
	return e
}

// PackageEnergyJ returns PP0 plus the constant uncore draw — the package
// energy that backs MSR_PKG_ENERGY_STATUS. Pure.
func (t *Tracker) PackageEnergyJ() float64 {
	return t.CoresEnergyJ() + t.UncoreW*t.now().Seconds()
}
