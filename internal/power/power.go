// Package power models CPU power draw — the reason DVFS interfaces exist
// at all (paper Sec. 1: "below-par energy management decisions increase
// power consumption... direct impact on battery life").
//
// Dynamic power follows the classic CV²f law; static power is a
// leakage term super-linear in supply voltage. The Tracker integrates each
// core's commanded power over virtual time; it is the one energy
// integrator, and it backs the RAPL energy MSRs, the kernel's attributed
// guard joules and `plugvolt-overhead -energy`'s safe-undervolt savings,
// the number behind the paper's availability argument.
package power

import (
	"errors"
	"math"
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
