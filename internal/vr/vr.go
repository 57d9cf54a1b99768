// Package vr models the SVID voltage regulator that actually applies the
// voltage selected by the P-state machinery plus the OC-mailbox offset.
//
// Two properties matter for the paper's turnaround-time analysis (Sec. 5):
//
//  1. a wrmsr to 0x150 does not change the core voltage instantly — the
//     regulator has a command latency and then slews toward the target at a
//     finite rate (mV/us), so "the delay between a successful write to MSR
//     0x150 and the actual change in voltage" is non-zero;
//  2. the voltage is a continuous function of time, so a polling defense
//     can observe the system mid-transition.
package vr

import (
	"fmt"

	"plugvolt/internal/sim"
)

// Config sets the regulator's dynamic behaviour.
type Config struct {
	// CommandLatency is the delay between receiving a target command (SVID
	// packet) and the output starting to move.
	CommandLatency sim.Duration
	// SlewMVPerUS is the output slew rate in millivolts per microsecond.
	SlewMVPerUS float64
	// InitialMV is the output voltage at simulation start.
	InitialMV float64
}

// DefaultConfig matches the behaviour Plundervolt measured for OC-mailbox
// voltage transitions: the offset takes effect over several hundred
// microseconds ("the system takes some time for the scaled voltage to
// apply"), here modelled as a 20 us command turnaround plus a 0.5 mV/us
// slew (a 250 mV undervolt lands after ~520 us). This slow descent is what
// gives a polling defense its race-winning window.
func DefaultConfig(initialMV float64) Config {
	return Config{
		CommandLatency: 20 * sim.Microsecond,
		SlewMVPerUS:    0.5,
		InitialMV:      initialMV,
	}
}

// Regulator is one voltage rail (one plane).
type Regulator struct {
	simr *sim.Simulator
	cfg  Config

	// segment describing the in-flight transition: output moves linearly
	// from fromMV at start toward targetMV at SlewMVPerUS.
	fromMV   float64
	targetMV float64
	startAt  sim.Time // when motion begins (command time + latency)

	// Commands counts accepted voltage commands.
	Commands uint64
}

// New builds a regulator on the given simulator.
func New(s *sim.Simulator, cfg Config) (*Regulator, error) {
	if cfg.SlewMVPerUS <= 0 {
		return nil, fmt.Errorf("vr: slew rate must be positive, got %v", cfg.SlewMVPerUS)
	}
	if cfg.CommandLatency < 0 {
		return nil, fmt.Errorf("vr: negative command latency %v", cfg.CommandLatency)
	}
	r := &Regulator{simr: s, cfg: cfg}
	r.Reset()
	return r, nil
}

// Reset returns the regulator to New's state in place: settled at the
// initial voltage with a zero command count.
func (r *Regulator) Reset() {
	r.fromMV, r.targetMV = r.cfg.InitialMV, r.cfg.InitialMV
	r.startAt = 0
	r.Commands = 0
}

// SetTarget commands the rail to targetMV. The output starts moving after
// the command latency and slews linearly. A new command pre-empts an
// in-flight transition from the output's current position.
func (r *Regulator) SetTarget(targetMV float64) {
	now := r.simr.Now()
	r.fromMV = r.outputAt(now)
	r.targetMV = targetMV
	r.startAt = now + r.cfg.CommandLatency
	r.Commands++
}

// Config returns the regulator's dynamic behaviour.
func (r *Regulator) Config() Config { return r.cfg }

// OutputMV returns the rail voltage now.
func (r *Regulator) OutputMV() float64 { return r.outputAt(r.simr.Now()) }

// outputAt evaluates the piecewise-linear transition at time t.
func (r *Regulator) outputAt(t sim.Time) float64 {
	if t <= r.startAt {
		return r.fromMV
	}
	elapsedUS := float64(t-r.startAt) / float64(sim.Microsecond)
	delta := r.targetMV - r.fromMV
	moved := r.cfg.SlewMVPerUS * elapsedUS
	if delta < 0 {
		if -delta <= moved {
			return r.targetMV
		}
		return r.fromMV - moved
	}
	if delta <= moved {
		return r.targetMV
	}
	return r.fromMV + moved
}

// Settled reports whether the output has reached the commanded target.
func (r *Regulator) Settled() bool {
	return r.OutputMV() == r.targetMV
}

// SettleTime returns the absolute virtual time at which the current
// transition completes (equals Now or earlier if already settled).
func (r *Regulator) SettleTime() sim.Time {
	delta := r.targetMV - r.fromMV
	if delta < 0 {
		delta = -delta
	}
	us := delta / r.cfg.SlewMVPerUS
	return r.startAt + sim.Duration(us*float64(sim.Microsecond))
}
