// Package trace records operating-point timelines of a simulated core —
// rail voltage, frequency, register offset — and computes dwell statistics
// over them.
//
// Its headline use is making the Section 5 turnaround analysis *empirical*:
// instead of bounding the unsafe window analytically, a Recorder samples
// the core during a live attack-vs-guard run and reports exactly how long
// the rail (not just the register) sat below each frequency's fault
// boundary. If that dwell is zero, the guard's race win is measured, not
// assumed.
package trace

import (
	"errors"
	"fmt"
	"io"

	"plugvolt/internal/core"
	"plugvolt/internal/cpu"
	"plugvolt/internal/sim"
)

// Sample is one observation of a core's operating point.
type Sample struct {
	At sim.Time
	// FreqKHz is the live PLL output.
	FreqKHz int
	// RailMV is the live regulator output (mid-slew values included).
	RailMV float64
	// OffsetMV is the register-level OC-mailbox offset.
	OffsetMV int
}

// Recorder samples one core on a fixed period.
type Recorder struct {
	core    *cpu.Core
	period  sim.Duration
	ticker  *sim.Ticker
	samples []Sample
}

// NewRecorder builds a recorder for the core; Start arms it.
func NewRecorder(c *cpu.Core, period sim.Duration) (*Recorder, error) {
	if c == nil {
		return nil, errors.New("trace: nil core")
	}
	if period <= 0 {
		return nil, errors.New("trace: period must be positive")
	}
	return &Recorder{core: c, period: period}, nil
}

// Start begins sampling on the simulator clock.
func (r *Recorder) Start(s *sim.Simulator) error {
	if r.ticker != nil {
		return errors.New("trace: recorder already started")
	}
	r.ticker = s.Every(r.period, func() {
		r.samples = append(r.samples, Sample{
			At:       s.Now(),
			FreqKHz:  r.core.PLL.FreqKHz(),
			RailMV:   r.core.VR.OutputMV(),
			OffsetMV: r.core.OffsetMV(),
		})
	})
	return nil
}

// Stop halts sampling.
func (r *Recorder) Stop() {
	if r.ticker != nil {
		r.ticker.Stop()
	}
}

// Len returns the sample count.
func (r *Recorder) Len() int { return len(r.samples) }

// DwellStats summarizes time spent in a predicate state.
type DwellStats struct {
	// Total is the cumulative time the predicate held (sample period
	// resolution).
	Total sim.Duration
	// Longest is the longest contiguous episode.
	Longest sim.Duration
	// Episodes counts contiguous runs.
	Episodes int
	// Observed is the full recording span.
	Observed sim.Duration
}

// Fraction returns Total/Observed.
func (d DwellStats) Fraction() float64 {
	if d.Observed == 0 {
		return 0
	}
	return float64(d.Total) / float64(d.Observed)
}

// Dwell computes dwell statistics for an arbitrary predicate over samples.
func (r *Recorder) Dwell(pred func(Sample) bool) DwellStats {
	var st DwellStats
	if len(r.samples) == 0 {
		return st
	}
	st.Observed = r.samples[len(r.samples)-1].At - r.samples[0].At + r.period
	var run sim.Duration
	for _, s := range r.samples {
		if pred(s) {
			run += r.period
			st.Total += r.period
			if run > st.Longest {
				st.Longest = run
			}
			if run == r.period {
				st.Episodes++
			}
		} else {
			run = 0
		}
	}
	return st
}

// UnsafeRegisterDwell measures time the *register* state was in the unsafe
// set — what the guard reacts to.
func (r *Recorder) UnsafeRegisterDwell(u *core.UnsafeSet) DwellStats {
	return r.Dwell(func(s Sample) bool {
		return u.Contains(s.FreqKHz, s.OffsetMV)
	})
}

// UnsafeRailDwell measures time the *realized rail voltage* was below the
// fault boundary for the live frequency — the physically exploitable
// window. nominalMV maps a frequency to the stock voltage so the rail can
// be converted into an effective offset.
func (r *Recorder) UnsafeRailDwell(u *core.UnsafeSet, nominalMV func(freqKHz int) float64) DwellStats {
	return r.Dwell(func(s Sample) bool {
		effOffset := int(s.RailMV - nominalMV(s.FreqKHz))
		return u.Contains(s.FreqKHz, effOffset)
	})
}

// MinRailMV returns the deepest rail voltage seen (and when).
func (r *Recorder) MinRailMV() (float64, sim.Time, error) {
	if len(r.samples) == 0 {
		return 0, 0, errors.New("trace: no samples")
	}
	min := r.samples[0]
	for _, s := range r.samples[1:] {
		if s.RailMV < min.RailMV {
			min = s
		}
	}
	return min.RailMV, min.At, nil
}

// WriteCSV dumps the timeline for external plotting.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "t_ps,freq_khz,rail_mv,offset_mv"); err != nil {
		return err
	}
	for _, s := range r.samples {
		if _, err := fmt.Fprintf(w, "%d,%d,%.3f,%d\n", int64(s.At), s.FreqKHz, s.RailMV, s.OffsetMV); err != nil {
			return err
		}
	}
	return nil
}
