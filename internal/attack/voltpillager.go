package attack

import (
	"errors"
	"fmt"

	"plugvolt/internal/cpu"
	"plugvolt/internal/defense"
	"plugvolt/internal/sim"
	"plugvolt/internal/victim"
)

// VoltPillager is the hardware fault attack of Chen et al. (USENIX Sec
// '21), cited by the paper as [6]: a physical adversary solders onto the
// SVID bus and injects voltage commands directly into the regulator,
// bypassing MSR 0x150 entirely.
//
// It is included as the honest boundary of the paper's threat model: every
// *software* countermeasure — the polling module included — watches the
// MSR interface, and VoltPillager never touches it. The voltage
// cross-check extension in core.GuardConfig (beyond the paper) can at
// least *detect* the rail deficit through IA32_PERF_STATUS, but software
// cannot out-command a soldered-on injector; prevention requires the
// hardware clamp to live in the regulator itself.
type VoltPillager struct {
	VictimCore int
	// DepthMV is the injected undervolt below the nominal rail (positive
	// number of millivolts); 0 = calibrate by deepening until faults.
	DepthMV int
	// Pulses is the number of injection pulses; OpsPerPulse the victim
	// work probed under each pulse.
	Pulses      int
	OpsPerPulse int
	// PulseHold is how long each injected level is held.
	PulseHold sim.Duration
}

// DefaultVoltPillager mirrors the published attack cadence.
func DefaultVoltPillager() *VoltPillager {
	return &VoltPillager{
		VictimCore:  1,
		Pulses:      40,
		OpsPerPulse: 500_000,
		PulseHold:   1 * sim.Millisecond,
	}
}

// Name identifies the campaign in its results.
func (*VoltPillager) Name() string { return "voltpillager" }

// inject issues a raw SVID command to the victim core's regulator — the
// soldered-on microcontroller path. No MSR is written.
func (a *VoltPillager) inject(p *cpu.Platform, targetMV float64) {
	p.Core(a.VictimCore).VR.SetTarget(targetMV)
}

// Run implements Attack.
func (a *VoltPillager) Run(env *defense.Env, defName string) (*Result, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	p := env.Platform
	r := &Result{Attack: a.Name(), Defense: defName, Model: p.Spec.Codename}
	start := p.Sim.Now()
	defer func() { r.Duration = p.Sim.Now() - start }()

	nominal := p.Spec.NominalMV(p.Core(a.VictimCore).Ratio())
	depths := []int{a.DepthMV}
	if a.DepthMV == 0 {
		depths = nil
		for d := 80; d <= 420; d += 20 {
			depths = append(depths, d)
		}
	}
	for _, depth := range depths {
		for pulse := 0; pulse < a.Pulses; pulse++ {
			r.Attempts++
			a.inject(p, nominal-float64(depth))
			p.Sim.RunFor(a.PulseHold)
			loop, err := victim.NewIMulLoop(p.Core(a.VictimCore), a.OpsPerPulse)
			if err != nil {
				return nil, err
			}
			res, err := loop.RunBatch()
			// Release the rail between pulses regardless of outcome.
			a.inject(p, nominal)
			p.Sim.RunFor(a.PulseHold)
			if err != nil {
				if errors.Is(err, cpu.ErrCrashed) {
					r.Crashes++
					p.Reboot()
					nominal = p.Spec.NominalMV(p.Core(a.VictimCore).Ratio())
					break // this depth crashes; no deeper probing
				}
				return nil, err
			}
			r.FaultsObserved += res.Faults
			if r.FaultsObserved > 0 {
				r.Succeeded = true
				r.Notes = fmt.Sprintf("SVID injection at %d mV below nominal corrupted %d results (no MSR writes issued)",
					depth, r.FaultsObserved)
				return r, nil
			}
		}
	}
	r.Notes = "injection sweep produced no faults"
	return r, nil
}
