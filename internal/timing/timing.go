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

// Circuit is a set of timing paths sharing a clock and a voltage plane,
// plus the clock-uncertainty model.
//
// Analysis only reads the circuit, so one circuit can serve every core of
// every platform at once; it must not be mutated while in use.
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
	return c.analyze(p, freqGHz, voltageV, c.Tech.Delay(voltageV))
}

// AnalyzePair evaluates Eq. 1 for paths p and q at one operating point. It
// computes the alpha-power unit delay once for both, and each result is
// bit for bit Analyze's.
func (c *Circuit) AnalyzePair(p, q Path, freqGHz, voltageV float64) (Analysis, Analysis) {
	unit := c.Tech.Delay(voltageV)
	return c.analyze(p, freqGHz, voltageV, unit), c.analyze(q, freqGHz, voltageV, unit)
}

// analyze evaluates Eq. 1 for path p given the unit gate delay at voltageV.
func (c *Circuit) analyze(p Path, freqGHz, voltageV, unit float64) Analysis {
	tclk := 1000.0 / freqGHz // ps
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
func (c *Circuit) FaultProbability(a Analysis) float64 {
	if c.JitterSigmaPS <= 0 {
		if a.SlackPS < 0 {
			return 1
		}
		return 0
	}
	return normalCDF(-a.SlackPS / c.JitterSigmaPS)
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

// PathByName returns the first path with the given name, or false.
func (c *Circuit) PathByName(name string) (Path, bool) {
	for _, p := range c.Paths {
		if p.Name == name {
			return p, true
		}
	}
	return Path{}, false
}
