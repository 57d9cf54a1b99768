// Package clockgen models the core PLL: the clock generator whose output
// frequency is the T_clk side of Eq. 1.
//
// The PLL multiplies a 100 MHz bus clock by a P-state ratio. Ratio changes
// are not instantaneous — the loop relocks over a few microseconds — and the
// running clock carries the cycle-to-cycle jitter that Eq. 1 budgets as
// T_eps. Frequency-side attacks (VoltJockey, CLKSCREW) drive this unit.
package clockgen

import (
	"fmt"

	"plugvolt/internal/sim"
)

// Config describes a PLL.
type Config struct {
	// BusMHz is the reference clock (100 MHz on all evaluated parts).
	BusMHz int
	// RelockTime is the delay from a ratio command to the new frequency
	// being stable at the cores.
	RelockTime sim.Duration
	// MinRatio and MaxRatio bound programmable ratios; commands outside
	// the range are rejected, matching hardware behaviour.
	MinRatio, MaxRatio uint8
	// InitialRatio is the ratio at reset.
	InitialRatio uint8
}

// DefaultRelock is a typical PLL relock time.
const DefaultRelock = 15 * sim.Microsecond

// PLL is one core's clock generator.
type PLL struct {
	simr *sim.Simulator
	cfg  Config

	current  uint8    // ratio at the output now (after relock)
	pending  uint8    // commanded ratio
	switchAt sim.Time // when pending becomes current

	// Commands counts accepted ratio changes.
	Commands uint64
}

// New builds a PLL. The initial ratio must be within range.
func New(s *sim.Simulator, cfg Config) (*PLL, error) {
	if cfg.BusMHz <= 0 {
		return nil, fmt.Errorf("clockgen: bus clock must be positive, got %d", cfg.BusMHz)
	}
	if cfg.MinRatio == 0 || cfg.MaxRatio < cfg.MinRatio {
		return nil, fmt.Errorf("clockgen: bad ratio range [%d, %d]", cfg.MinRatio, cfg.MaxRatio)
	}
	if cfg.InitialRatio < cfg.MinRatio || cfg.InitialRatio > cfg.MaxRatio {
		return nil, fmt.Errorf("clockgen: initial ratio %d outside [%d, %d]",
			cfg.InitialRatio, cfg.MinRatio, cfg.MaxRatio)
	}
	if cfg.RelockTime < 0 {
		return nil, fmt.Errorf("clockgen: negative relock time")
	}
	p := &PLL{simr: s, cfg: cfg}
	p.Reset()
	return p, nil
}

// Reset returns the PLL to New's state in place: locked at the initial
// ratio with no relock in flight and a zero command count.
func (p *PLL) Reset() {
	p.current, p.pending = p.cfg.InitialRatio, p.cfg.InitialRatio
	p.switchAt = 0
	p.Commands = 0
}

// SetRatio commands a new multiplier. Returns an error if out of range.
func (p *PLL) SetRatio(ratio uint8) error {
	if ratio < p.cfg.MinRatio || ratio > p.cfg.MaxRatio {
		return fmt.Errorf("clockgen: ratio %d outside [%d, %d]", ratio, p.cfg.MinRatio, p.cfg.MaxRatio)
	}
	p.current = p.ratioAt(p.simr.Now())
	p.pending = ratio
	p.switchAt = p.simr.Now() + p.cfg.RelockTime
	p.Commands++
	return nil
}

// ratioAt resolves the effective ratio at time t.
func (p *PLL) ratioAt(t sim.Time) uint8 {
	if t >= p.switchAt {
		return p.pending
	}
	return p.current
}

// Ratio returns the ratio currently driving the core.
func (p *PLL) Ratio() uint8 { return p.ratioAt(p.simr.Now()) }

// PendingRatio returns the commanded (possibly not yet locked) ratio.
func (p *PLL) PendingRatio() uint8 { return p.pending }

// FreqKHz returns the current output frequency in kHz.
func (p *PLL) FreqKHz() int { return int(p.Ratio()) * p.cfg.BusMHz * 1000 }

// FreqGHz returns the current output frequency in GHz.
func (p *PLL) FreqGHz() float64 { return float64(p.FreqKHz()) / 1e6 }

// PeriodPS returns the current clock period in picoseconds.
func (p *PLL) PeriodPS() float64 { return 1e9 / float64(p.FreqKHz()) }

// Range returns the programmable ratio bounds.
func (p *PLL) Range() (min, max uint8) { return p.cfg.MinRatio, p.cfg.MaxRatio }
