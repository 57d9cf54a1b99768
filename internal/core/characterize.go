package core

import (
	"errors"
	"fmt"

	"plugvolt/internal/cpu"
	"plugvolt/internal/msr"
	"plugvolt/internal/pstate"
	"plugvolt/internal/rng"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
)

// CharacterizerConfig parameterizes the Algorithm 2 sweep.
type CharacterizerConfig struct {
	// VictimCore runs the EXECUTE thread; DriverCore hosts the DVFS thread
	// (distinct cores, as in the paper's two-thread framework).
	VictimCore, DriverCore int
	// Iterations is the EXECUTE-thread imul loop length per grid point
	// (paper: one million).
	Iterations int
	// OffsetStartMV..OffsetEndMV, stepped by OffsetStepMV (negative),
	// define the undervolt axis. Paper: V = {-1, -2, ..., -300}.
	OffsetStartMV, OffsetEndMV, OffsetStepMV int
	// SettleWait is extra dwell after programming a point before measuring,
	// on top of waiting for the regulator to finish slewing.
	SettleWait sim.Duration
	// Class selects the EXECUTE-thread instruction class. The paper uses
	// imul ("the imul instruction has the maximum probability of being
	// faulted"); sweeping other classes measures that claim — shallower
	// classes must show deeper onsets.
	Class cpu.Class
	// Workers is the number of frequency-row shards swept concurrently by
	// the sharded engine (ShardedCharacterizer). <=0 means runtime
	// GOMAXPROCS. The serial Characterizer ignores it. Results are
	// bit-for-bit independent of the worker count: every row derives its
	// RNG stream from seed^freqKHz, not from sweep order.
	Workers int
	// Strategy selects how the sharded engine explores each frequency row.
	// StrategySweep (or "") measures every offset cell left to right;
	// StrategyBisect predicts the row analytically, verifies the fault and
	// crash onsets with O(log N) measured probes, and falls back to a full
	// linear sweep on any row where a measured probe contradicts the
	// prediction. Both strategies produce byte-identical grids. The serial
	// Characterizer only implements StrategySweep.
	Strategy string
	// Progress, when set, is called after each frequency row completes.
	// Under the sharded engine rows finish out of order: freqKHz names the
	// row that just completed and rowsDone counts completions so far.
	// Invocations are serialized; the callback never runs concurrently.
	Progress func(freqKHz, rowsDone, rowsTotal int)
	// Telemetry, when set, receives row/cell/reboot counters, per-worker
	// utilization series, and a journal event per completed row from the
	// sharded engine. All updates happen in the merge loop, so telemetry
	// cannot perturb the grid or its worker-count invariance. Per-worker
	// series reflect the Go scheduler's row assignment and therefore vary
	// run to run; everything else is deterministic.
	Telemetry *telemetry.Set
}

// Sweep strategies accepted by CharacterizerConfig.Strategy.
const (
	// StrategySweep measures every offset cell (Algorithm 2 as written).
	StrategySweep = "sweep"
	// StrategyBisect locates each row's fault and crash onsets by
	// model-guided binary search, with a verified linear-scan fallback.
	StrategyBisect = "bisect"
)

// DefaultCharacterizerConfig matches the paper's sweep.
func DefaultCharacterizerConfig() CharacterizerConfig {
	return CharacterizerConfig{
		VictimCore:    1,
		DriverCore:    0,
		Iterations:    1_000_000,
		OffsetStartMV: -1,
		OffsetEndMV:   -300,
		OffsetStepMV:  -1,
		SettleWait:    50 * sim.Microsecond,
		Class:         cpu.ClassIMul,
	}
}

// Characterizer runs the two-thread characterization framework of Sec. 4.2
// against a platform: the DVFS thread walks the (frequency, offset) grid
// through cpupower and MSR 0x150, and the EXECUTE thread's imul loop
// detects faults.
type Characterizer struct {
	P   *cpu.Platform
	cfg CharacterizerConfig
	cp  *pstate.CPUPower
	// probes counts measurePoint calls — the sweep-vs-bisect economics the
	// sharded engine reports through SearchStats.
	probes int
}

// validateConfig checks a sweep config against a core count (shared by the
// serial and sharded engines, which validate before any platform exists).
func validateConfig(cfg CharacterizerConfig, numCores int) error {
	if cfg.VictimCore == cfg.DriverCore {
		return errors.New("core: victim and driver must be distinct cores")
	}
	for _, c := range []int{cfg.VictimCore, cfg.DriverCore} {
		if c < 0 || c >= numCores {
			return fmt.Errorf("core: no core %d", c)
		}
	}
	if cfg.Iterations <= 0 {
		return fmt.Errorf("core: iterations %d", cfg.Iterations)
	}
	if cfg.OffsetStepMV >= 0 {
		return errors.New("core: offset step must be negative")
	}
	if cfg.OffsetStartMV >= 0 || cfg.OffsetEndMV > cfg.OffsetStartMV {
		return fmt.Errorf("core: bad offset range %d..%d", cfg.OffsetStartMV, cfg.OffsetEndMV)
	}
	switch cfg.Strategy {
	case "", StrategySweep, StrategyBisect:
	default:
		return fmt.Errorf("core: unknown sweep strategy %q", cfg.Strategy)
	}
	return nil
}

// NewCharacterizer validates the config against the platform.
func NewCharacterizer(p *cpu.Platform, cfg CharacterizerConfig) (*Characterizer, error) {
	if p == nil {
		return nil, errors.New("core: nil platform")
	}
	if err := validateConfig(cfg, p.NumCores()); err != nil {
		return nil, err
	}
	mgr, err := pstate.NewManager(p.Sim, p, nil)
	if err != nil {
		return nil, err
	}
	return &Characterizer{P: p, cfg: cfg, cp: &pstate.CPUPower{M: mgr}}, nil
}

// offsetAxis materializes a sweep config's offset axis.
func offsetAxis(cfg CharacterizerConfig) []int {
	var out []int
	for o := cfg.OffsetStartMV; o >= cfg.OffsetEndMV; o += cfg.OffsetStepMV {
		out = append(out, o)
	}
	return out
}

// offsets materializes the sweep's offset axis.
func (c *Characterizer) offsets() []int { return offsetAxis(c.cfg) }

// Run executes Algorithm 2 and returns the characterization grid.
func (c *Characterizer) Run() (*Grid, error) {
	if c.cfg.Strategy == StrategyBisect {
		return nil, errors.New("core: bisect strategy requires the sharded engine (ShardedCharacterizer)")
	}
	p := c.P
	freqs := p.FreqTableKHz()
	offs := c.offsets()
	g := &Grid{
		Model:      p.Spec.Codename,
		Microcode:  p.Spec.Microcode,
		Seed:       p.Seed(),
		Iterations: c.cfg.Iterations,
		FreqsKHz:   freqs,
		OffsetsMV:  offs,
		Cells:      make([][]Classification, len(freqs)),
	}
	// One contiguous slab backs every row: a single allocation for the whole
	// grid, and better locality when the boundary extraction scans it.
	cells := make([]Classification, len(freqs)*len(offs))
	rebootsBefore := p.Reboots

	// Algorithm 2 lines 6-7: record the normal operating point.
	origStatus, err := p.MSRFile(c.cfg.VictimCore).Read(msr.IA32PerfStatus)
	if err != nil {
		return nil, err
	}
	origRatio, _ := msr.DecodePerfStatus(origStatus)
	origFreqKHz := msr.RatioToKHz(origRatio, p.Spec.BusMHz)

	for fi, freqKHz := range freqs {
		row := cells[fi*len(offs) : (fi+1)*len(offs) : (fi+1)*len(offs)]
		if err := c.sweepRowInto(row, freqKHz, offs); err != nil {
			return nil, err
		}
		g.Cells[fi] = row
		// Lines 13-14: restore normal frequency and voltage between rows.
		if err := c.restore(origFreqKHz); err != nil {
			return nil, err
		}
		if c.cfg.Progress != nil {
			c.cfg.Progress(freqKHz, fi+1, len(freqs))
		}
	}
	g.Reboots = p.Reboots - rebootsBefore
	return g, nil
}

// sweepRow runs Algorithm 2's inner loop for one frequency: pin the row
// frequency through cpupower, walk the offset axis until the first crash,
// and label everything deeper Crash (Eq. 1 is monotone in V, so deeper
// offsets are at least as bad). A crash reboots the platform and rebuilds
// the cpufreq stack, as the paper's harness must.
func (c *Characterizer) sweepRow(freqKHz int, offs []int) ([]Classification, error) {
	row := make([]Classification, len(offs))
	if err := c.sweepRowInto(row, freqKHz, offs); err != nil {
		return nil, err
	}
	return row, nil
}

// sweepRowInto is sweepRow writing into a caller-provided buffer (len(offs)
// cells), so the sweep engines can slab-allocate the whole grid up front
// instead of allocating per row.
func (c *Characterizer) sweepRowInto(row []Classification, freqKHz int, offs []int) error {
	// Line 9: set core frequency through cpupower.
	if err := c.cp.FrequencySet(c.cfg.VictimCore, freqKHz); err != nil {
		return fmt.Errorf("core: cpupower at %d kHz: %w", freqKHz, err)
	}
	crashed := false
	for oi, offsetMV := range offs {
		if crashed {
			row[oi] = Crash
			continue
		}
		cls, err := c.measurePoint(freqKHz, offsetMV)
		if err != nil {
			return err
		}
		row[oi] = cls
		if cls == Crash {
			crashed = true
			// Reboot restores stock settings; re-pinning the row frequency
			// is unnecessary (row is done), but restore the sweep's
			// cpupower state for whatever the caller runs next.
			c.P.Reboot()
			c.resetCPUPower()
		}
	}
	return nil
}

// resetCPUPower rebuilds the cpufreq manager after a reboot (module state
// does not survive the crash).
func (c *Characterizer) resetCPUPower() {
	mgr, err := pstate.NewManager(c.P.Sim, c.P, nil)
	if err != nil {
		panic(fmt.Sprintf("core: cpufreq rebuild: %v", err)) // table already validated
	}
	c.cp = &pstate.CPUPower{M: mgr}
}

// class returns the configured EXECUTE-thread class, defaulted.
func (c *Characterizer) class() cpu.Class {
	if c.cfg.Class == "" {
		return cpu.ClassIMul
	}
	return c.cfg.Class
}

// probeU derives the row's coupled probe thresholds: two uniforms that are
// a pure function of (platform seed, row frequency). The first is compared
// against P(any crash in the batch), the second against P(any fault) —
// common random numbers across every cell of the row. Coupling the cells
// this way leaves each cell's marginal outcome distributed exactly as an
// independent batch draw would be, but makes the realized row provably
// monotone whenever the underlying probabilities are (u fixed, p
// non-decreasing in depth), which is the invariant onset bisection needs.
//
// The seed mixes via a Gamma multiply rather than the sharded engine's
// RowSeed XOR: sharded row platforms are already seeded seed^freqKHz, and
// XORing freqKHz in again would cancel back to the experiment seed and
// couple all rows to each other.
func (c *Characterizer) probeU(freqKHz int) (uFault, uCrash float64) {
	stream := rng.NewSeeded(rng.IndexSeed(c.P.Seed(), freqKHz))
	uCrash = stream.Float64()
	uFault = stream.Float64()
	return uFault, uCrash
}

// classifyCoupled applies coupled thresholds to batch-level upset
// probabilities, mirroring RunBatch's ordering: the crash draw happens
// first, faults only matter in a surviving batch.
func classifyCoupled(pAnyFault, pAnyCrash, uFault, uCrash float64) Classification {
	if uCrash < pAnyCrash {
		return Crash
	}
	if uFault < pAnyFault {
		return Fault
	}
	return Safe
}

// measurePoint programs one (frequency, offset) pair and measures the
// EXECUTE thread's outcome. The batch outcome is drawn with the row's
// coupled thresholds (see probeU) against the live per-instruction
// probabilities — which reflect whatever actually reached the rail,
// including MSR-hook or defense interference — so a cell's class is a
// deterministic function of the realized operating point, identical no
// matter which strategy or visit order reaches it.
func (c *Characterizer) measurePoint(freqKHz, offsetMV int) (Classification, error) {
	p := c.P
	// Line 10-11: compute the 0x150 value via Algorithm 1 and write it.
	if err := p.WriteOffsetViaMSR(c.cfg.VictimCore, offsetMV, msr.PlaneCore); err != nil {
		return Safe, err
	}
	// SettleCommanded, not just SettleAll: the probe must observe the
	// commanded (f, V) point even when a pending relock's deadline outruns
	// the rail's settle (see its doc) — otherwise a cell's class would
	// depend on the probe order, breaking sweep/bisect equivalence.
	if err := p.SettleCommanded(c.cfg.VictimCore); err != nil {
		return Safe, err
	}
	if c.cfg.SettleWait > 0 {
		p.Sim.RunFor(c.cfg.SettleWait)
	}
	c.probes++
	core := p.Core(c.cfg.VictimCore)
	uF, uC := c.probeU(freqKHz)
	pAnyC := cpu.BatchUpsetProbability(c.cfg.Iterations, core.CrashProbability())
	pAnyF := cpu.BatchUpsetProbability(c.cfg.Iterations, core.FaultProbability(c.class()))
	return classifyCoupled(pAnyF, pAnyC, uF, uC), nil
}

// restore re-applies the original frequency and zero offset (Algorithm 2
// lines 13-14).
func (c *Characterizer) restore(origFreqKHz int) error {
	if err := c.cp.FrequencySet(c.cfg.VictimCore, origFreqKHz); err != nil {
		return err
	}
	if err := c.P.WriteOffsetViaMSR(c.cfg.VictimCore, 0, msr.PlaneCore); err != nil {
		return err
	}
	c.P.SettleAll()
	return nil
}
