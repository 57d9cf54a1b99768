// Package pstate reproduces the Linux cpufreq stack the paper's Algorithm 2
// drives: per-core frequency policies, scaling governors, and a cpupower(1)
// equivalent used by the characterization sweep ("we use the cpupower Linux
// utility to modify the core frequency").
//
// The paper's countermeasure explicitly preserves this machinery for benign
// processes — access-control defenses lock it down, ours does not — so the
// governor stack is a first-class substrate here, not a stub.
package pstate

import (
	"fmt"
	"sort"

	"plugvolt/internal/sim"
)

// CPU is the hardware interface the cpufreq layer drives. *cpu.Platform
// satisfies it.
type CPU interface {
	NumCores() int
	// FreqKHz returns core's live frequency.
	FreqKHz(core int) int
	// SetRatioViaMSR requests a P-state through the software path.
	SetRatioViaMSR(core int, ratio uint8) error
	// FreqTableKHz lists the supported frequencies ascending.
	FreqTableKHz() []int
}

// Governor names, matching the Linux scaling_governor values.
const (
	GovPerformance  = "performance"
	GovPowersave    = "powersave"
	GovUserspace    = "userspace"
	GovOndemand     = "ondemand"
	GovConservative = "conservative"
	GovSchedutil    = "schedutil"
)

// LoadFn reports a core's utilization in [0, 1]; sampled by the dynamic
// governors. Experiments plug in workload-driven or synthetic signals.
type LoadFn func(core int) float64

// Policy is one core's cpufreq policy.
type Policy struct {
	Core     int
	MinKHz   int
	MaxKHz   int
	Governor string
	// SetSpeedKHz is the userspace governor's requested frequency.
	SetSpeedKHz int
}

// Manager owns the per-core policies and runs the dynamic governors.
type Manager struct {
	simr  *sim.Simulator
	cpu   CPU
	table []int // ascending kHz
	pols  []*Policy
	load  LoadFn

	tickers []*sim.Ticker
	// SamplePeriod is the dynamic governors' evaluation interval
	// (Linux default ondemand sampling_rate is ~10 ms).
	SamplePeriod sim.Duration
	// Transitions counts frequency changes issued by governors.
	Transitions uint64
}

// NewManager builds a manager with every core on the performance governor,
// bounds spanning the full table.
func NewManager(s *sim.Simulator, hw CPU, load LoadFn) (*Manager, error) {
	table := hw.FreqTableKHz()
	if len(table) == 0 {
		return nil, fmt.Errorf("pstate: empty frequency table")
	}
	if !sort.IntsAreSorted(table) {
		return nil, fmt.Errorf("pstate: frequency table not ascending")
	}
	if load == nil {
		load = func(int) float64 { return 0 }
	}
	m := &Manager{
		simr:  s,
		cpu:   hw,
		table: table,
		load:  load,
		pols:  make([]*Policy, hw.NumCores()),
	}
	for i := range m.pols {
		m.pols[i] = new(Policy)
	}
	m.Reset()
	return m, nil
}

// Reset returns the manager to NewManager's state in place: every core on
// the performance governor with bounds spanning the full table, the default
// sample period, a zero transition count and the sampling loop stopped. It
// issues no P-state request, as NewManager does not. The characterizer
// calls it before every row and after every crash reboot, since module
// state does not survive one.
func (m *Manager) Reset() {
	m.Stop()
	for i, p := range m.pols {
		*p = Policy{
			Core:     i,
			MinKHz:   m.table[0],
			MaxKHz:   m.table[len(m.table)-1],
			Governor: GovPerformance,
		}
	}
	m.SamplePeriod = 10 * sim.Millisecond
	m.Transitions = 0
}

// Policy returns core's policy (read-only view; mutate via setters).
func (m *Manager) Policy(core int) (Policy, error) {
	if core < 0 || core >= len(m.pols) {
		return Policy{}, fmt.Errorf("pstate: no core %d", core)
	}
	return *m.pols[core], nil
}

// nearest returns the table frequency closest to khz, clamped to [min, max].
func (m *Manager) nearest(khz, minKHz, maxKHz int) int {
	best, bestDiff := m.table[0], -1
	for _, f := range m.table {
		if f < minKHz || f > maxKHz {
			continue
		}
		d := f - khz
		if d < 0 {
			d = -d
		}
		if bestDiff < 0 || d < bestDiff {
			best, bestDiff = f, d
		}
	}
	if bestDiff < 0 {
		// Bounds exclude everything (misconfigured); fall back to min bound
		// clamped into the table.
		return m.nearest(minKHz, m.table[0], m.table[len(m.table)-1])
	}
	return best
}

// SetGovernor switches a core's scaling governor.
func (m *Manager) SetGovernor(core int, gov string) error {
	if core < 0 || core >= len(m.pols) {
		return fmt.Errorf("pstate: no core %d", core)
	}
	switch gov {
	case GovPerformance, GovPowersave, GovUserspace, GovOndemand, GovConservative, GovSchedutil:
	default:
		return fmt.Errorf("pstate: unknown governor %q", gov)
	}
	p := m.pols[core]
	p.Governor = gov
	return m.applyStatic(p)
}

// SetSpeed requests a specific frequency under the userspace governor.
func (m *Manager) SetSpeed(core, khz int) error {
	if core < 0 || core >= len(m.pols) {
		return fmt.Errorf("pstate: no core %d", core)
	}
	p := m.pols[core]
	if p.Governor != GovUserspace {
		return fmt.Errorf("pstate: core %d governor is %q, not userspace", core, p.Governor)
	}
	p.SetSpeedKHz = khz
	return m.setFreq(p, khz)
}

// applyStatic immediately enforces the non-sampling part of a policy.
func (m *Manager) applyStatic(p *Policy) error {
	switch p.Governor {
	case GovPerformance:
		return m.setFreq(p, p.MaxKHz)
	case GovPowersave:
		return m.setFreq(p, p.MinKHz)
	case GovUserspace:
		if p.SetSpeedKHz == 0 {
			p.SetSpeedKHz = m.cpu.FreqKHz(p.Core)
		}
		return m.setFreq(p, p.SetSpeedKHz)
	default:
		// Dynamic governors act on their next sample.
		return nil
	}
}

// setFreq issues the hardware P-state request for the nearest valid table
// frequency.
func (m *Manager) setFreq(p *Policy, khz int) error {
	target := m.nearest(khz, p.MinKHz, p.MaxKHz)
	busKHz := m.busKHz()
	ratio := target / busKHz
	if err := m.cpu.SetRatioViaMSR(p.Core, uint8(ratio)); err != nil {
		return err
	}
	m.Transitions++
	return nil
}

// busKHz derives the ratio step from the table (uniform grid).
func (m *Manager) busKHz() int {
	if len(m.table) > 1 {
		return m.table[1] - m.table[0]
	}
	return m.table[0]
}

// Start launches the dynamic-governor sampling loop. Idempotent per call —
// callers should Stop before re-Starting.
func (m *Manager) Start() {
	t := m.simr.Every(m.SamplePeriod, m.sample)
	m.tickers = append(m.tickers, t)
}

// Stop halts dynamic-governor sampling.
func (m *Manager) Stop() {
	for _, t := range m.tickers {
		t.Stop()
	}
	m.tickers = nil
}

// sample evaluates the dynamic governors once.
func (m *Manager) sample() {
	for _, p := range m.pols {
		switch p.Governor {
		case GovOndemand:
			m.ondemand(p)
		case GovConservative:
			m.conservative(p)
		case GovSchedutil:
			m.schedutil(p)
		}
	}
}

// ondemand implements the classic Linux heuristic: jump to max above the up
// threshold, otherwise scale proportionally to load.
func (m *Manager) ondemand(p *Policy) {
	const upThreshold = 0.80
	load := clamp01(m.load(p.Core))
	var target int
	if load >= upThreshold {
		target = p.MaxKHz
	} else {
		target = p.MinKHz + int(load*float64(p.MaxKHz-p.MinKHz))
	}
	if m.nearest(target, p.MinKHz, p.MaxKHz) != m.cpu.FreqKHz(p.Core) {
		_ = m.setFreq(p, target)
	}
}

// schedutil implements the utilization-driven kernel default:
// f = headroom * fmax * util, with a 25% headroom factor so the core runs
// just above the demand rather than saturated.
func (m *Manager) schedutil(p *Policy) {
	util := clamp01(m.load(p.Core))
	target := int(1.25 * float64(p.MaxKHz) * util)
	if target < p.MinKHz {
		target = p.MinKHz
	}
	if target > p.MaxKHz {
		target = p.MaxKHz
	}
	if m.nearest(target, p.MinKHz, p.MaxKHz) != m.cpu.FreqKHz(p.Core) {
		_ = m.setFreq(p, target)
	}
}

// conservative steps one table entry at a time toward the load.
func (m *Manager) conservative(p *Policy) {
	const upThreshold, downThreshold = 0.80, 0.20
	load := clamp01(m.load(p.Core))
	cur := m.cpu.FreqKHz(p.Core)
	idx := sort.SearchInts(m.table, cur)
	if idx >= len(m.table) || m.table[idx] != cur {
		_ = m.setFreq(p, cur) // resync to the table
		return
	}
	switch {
	case load >= upThreshold && idx+1 < len(m.table) && m.table[idx+1] <= p.MaxKHz:
		_ = m.setFreq(p, m.table[idx+1])
	case load <= downThreshold && idx > 0 && m.table[idx-1] >= p.MinKHz:
		_ = m.setFreq(p, m.table[idx-1])
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// CPUPower is the cpupower(1) command-line equivalent used by Algorithm 2.
type CPUPower struct {
	M *Manager
}

// FrequencySet pins a core to khz, forcing the userspace governor — the
// behaviour of `cpupower frequency-set -f`.
func (c *CPUPower) FrequencySet(core, khz int) error {
	p, err := c.M.Policy(core)
	if err != nil {
		return err
	}
	if p.Governor != GovUserspace {
		if err := c.M.SetGovernor(core, GovUserspace); err != nil {
			return err
		}
	}
	return c.M.SetSpeed(core, khz)
}
