// Package timing implements the sequential-circuit timing model of the
// paper's Section 3 (Eq. 1-3).
//
// The model is the launch/capture pair of Fig. 1: a flip-flop F1 drives a
// combinational cone whose output must be stable at flip-flop F2 before the
// capture clock edge, allowing for F2's setup time and the worst-case clock
// uncertainty T_eps. The safety condition is Eq. 1:
//
//	T_src + T_prop <= T_clk - T_setup - T_eps
//
// Undervolting slows transistor switching, inflating T_src and T_prop; the
// clock-side terms depend only on frequency. A path whose slack
// (RHS - LHS) goes negative latches metastable/wrong data — the root cause
// of every DVFS fault attack the paper cites.
//
// Gate delay follows the alpha-power law (Sakurai-Newton):
//
//	d(V) = K * V / (V - Vth)^alpha
//
// which captures the super-linear delay blow-up as supply approaches the
// threshold voltage. All delays are in picoseconds, voltages in volts.
package timing

import (
	"errors"
	"fmt"
	"math"
)

// AlphaPower describes a technology's gate-delay response to supply voltage.
type AlphaPower struct {
	// K scales delay; calibrated per CPU model so the critical path meets
	// timing with the documented margin at nominal (frequency, voltage).
	K float64
	// Vth is the effective transistor threshold voltage in volts.
	Vth float64
	// Alpha is the velocity-saturation exponent (~1.2-1.6 for modern nodes).
	Alpha float64
}

// Delay returns the unit gate delay in picoseconds at supply voltage v.
// For v <= Vth the device cannot switch; Delay returns +Inf.
func (a AlphaPower) Delay(v float64) float64 {
	if v <= a.Vth {
		return math.Inf(1)
	}
	return a.K * v / math.Pow(v-a.Vth, a.Alpha)
}

// Validate checks that the technology parameters are physical.
func (a AlphaPower) Validate() error {
	if a.K <= 0 {
		return fmt.Errorf("timing: K must be positive, got %v", a.K)
	}
	if a.Vth <= 0 || a.Vth >= 1.5 {
		return fmt.Errorf("timing: Vth out of range (0, 1.5): %v", a.Vth)
	}
	if a.Alpha < 1 || a.Alpha > 2 {
		return fmt.Errorf("timing: Alpha out of range [1, 2]: %v", a.Alpha)
	}
	return nil
}

// Path is one launch-to-capture timing path: F1 -> combinational cone -> F2.
type Path struct {
	// Name identifies the path (e.g. "imul.stage2", "agu", "control").
	Name string
	// SrcDepth is the depth (in unit gates) contributing to T_src, the
	// clock-to-Q resolution of the launching flip-flop F1.
	SrcDepth float64
	// PropDepth is the depth of the combinational cone (T_prop).
	PropDepth float64
	// SetupPS is T_setup of the capturing flip-flop F2, in picoseconds.
	// Setup time is a property of the sequential element, independent of
	// the core voltage plane in this model (the paper treats it as part of
	// the frequency-only side of Eq. 1).
	SetupPS float64
	// Control marks architectural control paths; a violation here does not
	// merely corrupt a data result but derails the pipeline (machine check
	// / system crash in the characterization sweeps).
	Control bool
}

// Depth returns the total gate depth of the path.
func (p Path) Depth() float64 { return p.SrcDepth + p.PropDepth }

// delayCacheBits sizes the per-circuit voltage→unit-delay memo. Operating
// points are quantized to the (kHz, mV) grid, so a sweep touches only a
// handful of distinct voltages per circuit; 64 direct-mapped slots make the
// alpha-power math.Pow a table lookup in the inner loop.
const (
	delayCacheBits = 6
	delayCacheSize = 1 << delayCacheBits
)

// Circuit is a set of timing paths sharing a clock and a voltage plane,
// plus the clock-uncertainty model.
//
// Analysis methods lazily build and update internal lookup caches, so a
// Circuit is NOT safe for concurrent use; hand each concurrent owner its
// own copy via Clone. Paths must not be mutated after the first analysis
// call (appending paths is detected and re-indexes).
type Circuit struct {
	Tech AlphaPower
	// EpsPS is the worst-case clock uncertainty T_eps in picoseconds
	// (skew + jitter bound). Eq. 1 budgets for the clock arriving this
	// much early.
	EpsPS float64
	// JitterSigmaPS is the standard deviation of the cycle-to-cycle jitter
	// actually realized; faults near the boundary are probabilistic, which
	// matches the empirically fuzzy fault-onset bands in Figs. 2-4.
	JitterSigmaPS float64
	Paths         []Path

	// byName maps path name to index (first occurrence wins, matching the
	// historical linear scan). It is rebuilt whenever idxLen disagrees with
	// len(Paths). Clones share it read-only.
	byName map[string]int
	idxLen int
	// memo is allocated on the first unitDelay/FaultProbability call: most
	// circuits (every core but a platform's victim) never evaluate timing,
	// and the tables are ~2 KiB. Clones start without one, so each owner
	// memoizes privately.
	memo *memo
}

// memo holds the per-circuit direct-mapped lookup tables.
type memo struct {
	// dcKeys/dcVals is the voltage→unit-delay memo, keyed by the voltage's
	// bit pattern. A zero key marks an empty slot: only v = +0.0 has zero
	// bits, and Delay(+0) is either +Inf (short-circuited before the cache)
	// or exactly the 0.0 an empty slot already holds.
	dcKeys [delayCacheSize]uint64
	dcVals [delayCacheSize]float64
	// fpKeys/fpVals/fpSet memoize FaultProbability per slack bit pattern
	// (sigma is fixed per circuit). The sweep revisits the same few dozen
	// quantized operating points millions of times, and erfc was the last
	// transcendental left in the inner loop.
	fpKeys [delayCacheSize]uint64
	fpVals [delayCacheSize]float64
	fpSet  [delayCacheSize]bool
}

// tables returns the circuit's memo, allocating it on first use.
func (c *Circuit) tables() *memo {
	if c.memo == nil {
		c.memo = new(memo)
	}
	return c.memo
}

// Clone returns a shallow copy sharing the immutable path slice and derived
// lookup tables but with no memo of its own yet, so many cores can analyze
// one validated circuit without rebuilding or contending on it.
func (c *Circuit) Clone() *Circuit {
	cp := *c
	cp.memo = nil
	return &cp
}

// Prepare eagerly builds the path index so that clones handed to
// concurrent owners share it read-only instead of each building its own.
func (c *Circuit) Prepare() {
	c.ensureIndex()
}

func (c *Circuit) ensureIndex() {
	if c.byName != nil && c.idxLen == len(c.Paths) {
		return
	}
	c.byName = make(map[string]int, len(c.Paths))
	for i := range c.Paths {
		if _, dup := c.byName[c.Paths[i].Name]; !dup {
			c.byName[c.Paths[i].Name] = i
		}
	}
	c.idxLen = len(c.Paths)
}

// unitDelay is Tech.Delay(v) through the per-circuit memo. math.Pow is
// deterministic, so the cached value is bit-for-bit the direct formula.
func (c *Circuit) unitDelay(v float64) float64 {
	if v <= c.Tech.Vth {
		return math.Inf(1)
	}
	bits := math.Float64bits(v)
	h := (bits * 0x9E3779B97F4A7C15) >> (64 - delayCacheBits)
	m := c.tables()
	if m.dcKeys[h] == bits {
		return m.dcVals[h]
	}
	d := c.Tech.Delay(v)
	m.dcKeys[h] = bits
	m.dcVals[h] = d
	return d
}

// Analysis is the static-timing result of one path at one operating point.
type Analysis struct {
	Path     Path
	FreqGHz  float64
	VoltageV float64
	// TclkPS is the clock period.
	TclkPS float64
	// ArrivalPS is T_src + T_prop (the LHS of Eq. 1).
	ArrivalPS float64
	// RequiredPS is T_clk - T_setup - T_eps (the RHS of Eq. 1).
	RequiredPS float64
	// SlackPS = RequiredPS - ArrivalPS. Negative slack = Eq. 3 violation.
	SlackPS float64
}

// Analyze evaluates Eq. 1 for path p at the given core frequency (GHz) and
// supply voltage (V).
func (c *Circuit) Analyze(p Path, freqGHz, voltageV float64) Analysis {
	tclk := 1000.0 / freqGHz // ps
	unit := c.unitDelay(voltageV)
	arrival := p.Depth() * unit
	required := tclk - p.SetupPS - c.EpsPS
	return Analysis{
		Path:       p,
		FreqGHz:    freqGHz,
		VoltageV:   voltageV,
		TclkPS:     tclk,
		ArrivalPS:  arrival,
		RequiredPS: required,
		SlackPS:    required - arrival,
	}
}

// FaultProbability converts a path's slack into the probability that one
// traversal of the path latches a wrong value, using the Gaussian jitter
// model: the realized clock edge arrives N(0, JitterSigma) around its
// budgeted worst case, so a path with slack s faults with probability
// Phi(-s/sigma).
//
// With zero sigma the model is a hard threshold (fault iff slack < 0).
//
// Results are memoized per slack bit pattern; erfc is deterministic, so the
// cached probability is bit-for-bit the direct evaluation.
func (c *Circuit) FaultProbability(a Analysis) float64 {
	if c.JitterSigmaPS <= 0 {
		if a.SlackPS < 0 {
			return 1
		}
		return 0
	}
	bits := math.Float64bits(a.SlackPS)
	h := (bits * 0x9E3779B97F4A7C15) >> (64 - delayCacheBits)
	m := c.tables()
	if m.fpSet[h] && m.fpKeys[h] == bits {
		return m.fpVals[h]
	}
	p := normalCDF(-a.SlackPS / c.JitterSigmaPS)
	m.fpKeys[h] = bits
	m.fpVals[h] = p
	m.fpSet[h] = true
	return p
}

// normalCDF is the standard normal cumulative distribution function.
func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// Validate checks the circuit's physical consistency.
func (c *Circuit) Validate() error {
	if err := c.Tech.Validate(); err != nil {
		return err
	}
	if c.EpsPS < 0 {
		return fmt.Errorf("timing: negative EpsPS %v", c.EpsPS)
	}
	if c.JitterSigmaPS < 0 {
		return fmt.Errorf("timing: negative JitterSigmaPS %v", c.JitterSigmaPS)
	}
	names := make(map[string]bool, len(c.Paths))
	for _, p := range c.Paths {
		if p.Name == "" {
			return errors.New("timing: path with empty name")
		}
		if names[p.Name] {
			return fmt.Errorf("timing: duplicate path name %q", p.Name)
		}
		names[p.Name] = true
		if p.Depth() <= 0 {
			return fmt.Errorf("timing: path %q has nonpositive depth", p.Name)
		}
		if p.SetupPS < 0 {
			return fmt.Errorf("timing: path %q has negative setup", p.Name)
		}
	}
	return nil
}

// PathByName returns the named path, or false. Lookups go through a lazily
// built name index (first occurrence wins, as the old linear scan did).
func (c *Circuit) PathByName(name string) (Path, bool) {
	c.ensureIndex()
	i, ok := c.byName[name]
	if !ok {
		return Path{}, false
	}
	return c.Paths[i], true
}
