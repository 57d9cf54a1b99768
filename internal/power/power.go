// Package power models CPU power draw — the reason DVFS interfaces exist
// at all (paper Sec. 1: "below-par energy management decisions increase
// power consumption... direct impact on battery life").
//
// Dynamic power follows the classic CV²f law; static power is a
// leakage term super-linear in supply voltage. The Meter integrates power
// over a core's live operating point in virtual time, so experiments can
// put a number on the paper's availability argument: how much energy a
// benign undervolt saves under the polling countermeasure versus the
// access-control lockdown that forbids it.
package power

import (
	"errors"
	"math"

	"plugvolt/internal/sim"
)

// Model holds one core's power parameters.
type Model struct {
	// CeffNF is the effective switched capacitance in nanofarads:
	// Pdyn = Ceff * f * V^2 (W, with f in GHz and V in volts, Ceff in nF).
	CeffNF float64
	// Activity scales dynamic power by workload intensity [0, 1].
	Activity float64
	// LeakA is the leakage current scale (A) and LeakVT the exponential
	// slope (V): Pstat = LeakA * V * exp(V / LeakVT).
	LeakA  float64
	LeakVT float64
}

// DefaultModel is calibrated to a desktop Sky Lake core: ~13 W dynamic at
// 3.2 GHz / 1.10 V full activity, ~1.5 W static at 1.10 V.
func DefaultModel() Model {
	return Model{
		CeffNF:   3.36,
		Activity: 1.0,
		LeakA:    0.085,
		LeakVT:   0.40,
	}
}

// Validate checks physicality.
func (m Model) Validate() error {
	if m.CeffNF <= 0 {
		return errors.New("power: Ceff must be positive")
	}
	if m.Activity < 0 || m.Activity > 1 {
		return errors.New("power: activity outside [0, 1]")
	}
	if m.LeakA < 0 || m.LeakVT <= 0 {
		return errors.New("power: bad leakage parameters")
	}
	return nil
}

// DynamicW returns the dynamic power at an operating point.
func (m Model) DynamicW(freqGHz, voltV float64) float64 {
	return m.CeffNF * m.Activity * freqGHz * voltV * voltV
}

// StaticW returns the leakage power at a supply voltage.
func (m Model) StaticW(voltV float64) float64 {
	if voltV <= 0 {
		return 0
	}
	return m.LeakA * voltV * math.Exp(voltV/m.LeakVT)
}

// TotalW returns dynamic + static power.
func (m Model) TotalW(freqGHz, voltV float64) float64 {
	return m.DynamicW(freqGHz, voltV) + m.StaticW(voltV)
}

// UndervoltSavingsPct returns the percentage power reduction from applying
// offsetMV at a fixed frequency relative to the nominal voltage nomMV.
func (m Model) UndervoltSavingsPct(freqGHz, nomMV float64, offsetMV int) float64 {
	base := m.TotalW(freqGHz, nomMV/1000)
	under := m.TotalW(freqGHz, (nomMV+float64(offsetMV))/1000)
	if base == 0 {
		return 0
	}
	return (base - under) / base * 100
}

// ModelFor returns the power model calibrated for a CPU model codename
// (models.Spec.Codename). Unknown codenames get the Sky Lake default, so
// mixed fleets always have a physical model per machine.
func ModelFor(codename string) Model {
	switch codename {
	case "Kaby Lake R":
		// 14nm+ mobile-derived part: lower switched capacitance, slightly
		// less leakage than the desktop calibration.
		return Model{CeffNF: 2.90, Activity: 1.0, LeakA: 0.072, LeakVT: 0.40}
	case "Comet Lake":
		// Late 14nm desktop refresh: clocked harder, leakier.
		return Model{CeffNF: 3.60, Activity: 1.0, LeakA: 0.098, LeakVT: 0.41}
	default:
		return DefaultModel()
	}
}

// OperatingPoint is the live electrical view of one core that a Meter
// samples; *cpu.Core implements it. Keeping it an interface here is what
// lets the cpu package own a power.Tracker without an import cycle.
type OperatingPoint interface {
	FreqGHz() float64
	VoltageV() float64
}

// Meter integrates a live core's power over virtual time.
type Meter struct {
	model  Model
	core   OperatingPoint
	period sim.Duration
	ticker *sim.Ticker

	// EnergyJ is the accumulated energy in joules.
	EnergyJ float64
	// PeakW and lastW track instantaneous power.
	PeakW float64
	lastW float64
	// Elapsed is the metered virtual time.
	Elapsed sim.Duration
}

// NewMeter builds a meter sampling the core every period.
func NewMeter(model Model, c OperatingPoint, period sim.Duration) (*Meter, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if c == nil {
		return nil, errors.New("power: nil core")
	}
	if period <= 0 {
		return nil, errors.New("power: period must be positive")
	}
	return &Meter{model: model, core: c, period: period}, nil
}

// Start begins metering.
func (m *Meter) Start(s *sim.Simulator) error {
	if m.ticker != nil {
		return errors.New("power: meter already started")
	}
	m.ticker = s.Every(m.period, func() {
		w := m.model.TotalW(m.core.FreqGHz(), m.core.VoltageV())
		m.lastW = w
		if w > m.PeakW {
			m.PeakW = w
		}
		m.EnergyJ += w * m.period.Seconds()
		m.Elapsed += m.period
	})
	return nil
}

// Stop halts metering.
func (m *Meter) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
	}
}

// AverageW returns the mean power over the metered span.
func (m *Meter) AverageW() float64 {
	if m.Elapsed == 0 {
		return 0
	}
	return m.EnergyJ / m.Elapsed.Seconds()
}

// LastW returns the most recent instantaneous sample.
func (m *Meter) LastW() float64 { return m.lastW }
