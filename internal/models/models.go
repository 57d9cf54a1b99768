// Package models holds the parameter sets for the three Intel processors
// the paper characterizes (Sec. 4.2):
//
//   - Intel Core i5-6500  @ 3.20 GHz — Sky Lake,   microcode 0xf0
//   - Intel Core i5-8250U @ 1.60 GHz — Kaby Lake R, microcode 0xf4
//   - Intel Core i7-10510U @ 1.80 GHz — Comet Lake, microcode 0xf4
//
// Each Spec carries the frequency range, the nominal voltage/frequency
// curve the P-state hardware follows, and the timing-model constants.
// The technology constant K is not hand-tuned: Calibrate derives it so the
// deepest path (imul, per the paper "the imul instruction has the maximum
// probability of being faulted") meets timing with the stated slack margin
// at the maximum turbo operating point. Fault-onset and crash curves are
// then *emergent* from Eq. 1 rather than tabulated, which is the point of
// the paper's root-cause argument.
package models

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"plugvolt/internal/timing"
)

// Canonical instruction-class path names shared with package cpu.
const (
	PathIMul    = "imul"    // 64x64 integer multiply — deepest data path
	PathAES     = "aesenc"  // AES round function
	PathFMA     = "fma"     // fused multiply-add
	PathLoad    = "load"    // AGU + L1 access
	PathALU     = "alu"     // simple integer op
	PathControl = "control" // pipeline control; violation = machine check
)

// Spec describes one processor model.
type Spec struct {
	Name      string // marketing name as in the paper
	Codename  string
	Microcode string
	Cores     int
	Threads   int
	BusMHz    int

	// Ratio range: MinRatio..MaxTurboRatio are programmable; BaseRatio is
	// the guaranteed all-core frequency.
	MinRatio      uint8
	BaseRatio     uint8
	MaxTurboRatio uint8

	// Nominal V/f curve followed by hardware P-states. Real Intel curves
	// are convex: nearly flat near the efficiency floor and steep toward
	// turbo. We model V(r) = Vmin + (Vmax-Vmin)*((r-rmin)/(rmax-rmin))^Gamma.
	// The convexity is what makes the fault-onset magnitude shrink with
	// frequency in Figs. 2-4 (and in Plundervolt's published sweeps).
	VminMV, VmaxMV float64
	Gamma          float64

	// Timing-model constants. Tech.K is filled in by Calibrate.
	Tech          timing.AlphaPower
	EpsPS         float64
	JitterSigmaPS float64
	SetupPS       float64
	// MarginPS is the designed worst-case slack of the deepest path at the
	// maximum turbo point (the silicon guard-band).
	MarginPS float64
	// Depths maps path name to total gate depth relative to the imul
	// path's depth of 1.0.
	Depths map[string]float64
	// ControlDepth is the relative depth of the pipeline-control path.
	ControlDepth float64

	// derived caches the pure derivations every hot path re-requests: the
	// validated timing circuit, the frequency table, the nominal V/f
	// curve, and the values callers park through Memo. Calibrate
	// invalidates it; other fields must not be mutated once a Spec is in
	// use (the shared-across-workers contract FactoryFor already imposes).
	derived atomic.Pointer[derivedSpec]
}

// derivedSpec is the cache behind Spec's accessors. The sharded
// characterizer shares one Spec across workers, so it is built once and
// published via atomic pointer; every field but memo is read-only after
// publication, and memo synchronizes itself.
type derivedSpec struct {
	circ    *timing.Circuit // validated circuit every core shares (nil before Calibrate)
	circErr error
	freqKHz []int
	nomMV   []float64 // indexed by ratio - MinRatio
	memo    sync.Map  // Memo's values, keyed by their callers' own key types
}

// derive returns the cached derivations, building them on first use.
func (s *Spec) derive() *derivedSpec {
	if d := s.derived.Load(); d != nil {
		return d
	}
	d := &derivedSpec{}
	for r := s.MinRatio; ; r++ {
		d.freqKHz = append(d.freqKHz, int(r)*s.BusMHz*1000)
		d.nomMV = append(d.nomMV, s.nominalMV(r))
		if r == s.MaxTurboRatio {
			break
		}
	}
	if s.Tech.K != 0 {
		d.circ, d.circErr = s.buildCircuit()
	}
	// Concurrent first callers may race to build; any winner's copy is
	// equivalent, so publish with CompareAndSwap and reload.
	s.derived.CompareAndSwap(nil, d)
	return s.derived.Load()
}

// Memo returns the value stored under key, storing build's result first if
// there is none. It holds derivations of this Spec that a caller computes
// once and shares across every platform built from it (the characterizer's
// per-row prediction tables). Values live in the derived cache, so
// Calibrate drops them and they are freed with the Spec. Concurrent first
// callers may each run build; exactly one result is kept and returned to
// all of them. key must be comparable; a caller keys by a type of its own,
// so callers cannot collide.
func (s *Spec) Memo(key any, build func() any) any {
	m := &s.derive().memo
	if v, ok := m.Load(key); ok {
		return v
	}
	v, _ := m.LoadOrStore(key, build())
	return v
}

// NominalMV returns the stock core voltage the P-state hardware requests at
// the given ratio (before any OC-mailbox offset). Ratios outside the
// programmable range are clamped. Values come from a precomputed per-ratio
// table (every P-state retarget used to pay a math.Pow here).
func (s *Spec) NominalMV(ratio uint8) float64 {
	if ratio < s.MinRatio {
		ratio = s.MinRatio
	}
	if ratio > s.MaxTurboRatio {
		ratio = s.MaxTurboRatio
	}
	d := s.derive()
	if i := int(ratio) - int(s.MinRatio); i >= 0 && i < len(d.nomMV) {
		return d.nomMV[i]
	}
	return s.nominalMV(ratio) // degenerate ranges fall back to the formula
}

// nominalMV is the direct V(r) curve evaluation backing the cached table.
func (s *Spec) nominalMV(ratio uint8) float64 {
	span := float64(s.MaxTurboRatio - s.MinRatio)
	if span == 0 {
		return s.VminMV
	}
	x := float64(ratio-s.MinRatio) / span
	return s.VminMV + (s.VmaxMV-s.VminMV)*math.Pow(x, s.Gamma)
}

// MaxGHz returns the maximum turbo frequency in GHz.
func (s *Spec) MaxGHz() float64 {
	return float64(int(s.MaxTurboRatio)*s.BusMHz) / 1000.0
}

// FreqTableKHz enumerates the programmable frequencies (one per ratio).
// The returned slice is cached and shared — callers must treat it as
// read-only (every existing consumer only iterates or copies it).
func (s *Spec) FreqTableKHz() []int { return s.derive().freqKHz }

// Calibrate derives Tech.K so that the deepest path has exactly MarginPS of
// slack at (MaxTurboRatio, NominalMV(MaxTurboRatio)), then validates the
// resulting circuit. It must be called once before Circuit.
func (s *Spec) Calibrate() error {
	if s.Depths[PathIMul] != 1.0 {
		return fmt.Errorf("models: %s: imul must be the unit-depth reference path", s.Codename)
	}
	fmax := s.MaxGHz()
	vmax := s.NominalMV(s.MaxTurboRatio) / 1000.0
	tclk := 1000.0 / fmax
	budget := tclk - s.SetupPS - s.EpsPS
	target := budget - s.MarginPS
	if target <= 0 {
		return fmt.Errorf("models: %s: no timing budget at fmax (budget %.1f ps, margin %.1f ps)",
			s.Codename, budget, s.MarginPS)
	}
	// delay = K * depth * V/(V-Vth)^alpha; solve K for depth=1 at (fmax, vmax).
	probe := timing.AlphaPower{K: 1, Vth: s.Tech.Vth, Alpha: s.Tech.Alpha}
	factor := probe.Delay(vmax)
	if factor <= 0 {
		return fmt.Errorf("models: %s: nominal voltage %.3f V not above Vth %.3f V", s.Codename, vmax, s.Tech.Vth)
	}
	s.Tech.K = target / factor
	// K changed, so any derivations cached before calibration are stale.
	s.derived.Store(nil)
	return s.Tech.Validate()
}

// Circuit returns the model's timing circuit. Calibrate must have been
// called (Tech.K non-zero). The circuit is built and validated once per
// Spec, and every call returns that same circuit: analysis only reads it,
// so every core of every platform built from the Spec shares it, and
// callers must not mutate it.
func (s *Spec) Circuit() (*timing.Circuit, error) {
	if s.Tech.K == 0 {
		return nil, fmt.Errorf("models: %s: Circuit before Calibrate", s.Codename)
	}
	d := s.derive()
	if d.circErr != nil {
		return nil, d.circErr
	}
	if d.circ == nil {
		// Cached before K was set without going through Calibrate; build
		// directly rather than serve a stale miss.
		return s.buildCircuit()
	}
	return d.circ, nil
}

// buildCircuit constructs and validates the circuit from the model tables.
func (s *Spec) buildCircuit() (*timing.Circuit, error) {
	c := &timing.Circuit{
		Tech:          s.Tech,
		EpsPS:         s.EpsPS,
		JitterSigmaPS: s.JitterSigmaPS,
	}
	for _, name := range []string{PathIMul, PathAES, PathFMA, PathLoad, PathALU} {
		d, ok := s.Depths[name]
		if !ok {
			return nil, fmt.Errorf("models: %s: missing depth for path %q", s.Codename, name)
		}
		c.Paths = append(c.Paths, timing.Path{
			Name:      name,
			SrcDepth:  0.12 * d,
			PropDepth: 0.88 * d,
			SetupPS:   s.SetupPS,
		})
	}
	c.Paths = append(c.Paths, timing.Path{
		Name:      PathControl,
		SrcDepth:  0.12 * s.ControlDepth,
		PropDepth: 0.88 * s.ControlDepth,
		SetupPS:   s.SetupPS,
		Control:   true,
	})
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func baseDepths() map[string]float64 {
	// Ordering matters: imul is the most fault-sensitive instruction (the
	// paper's EXECUTE-thread choice), AES and FMA follow (Plundervolt and
	// V0LTpwn's targets), and all three are deeper than the control path
	// (0.92) so a data-fault window exists before the machine crashes.
	return map[string]float64{
		PathIMul: 1.00,
		PathAES:  0.96,
		PathFMA:  0.94,
		PathLoad: 0.78,
		PathALU:  0.58,
	}
}

// SkyLake returns the calibrated Spec for the Intel Core i5-6500
// (desktop, 65 W, 4C/4T, 3.2 GHz base / 3.6 GHz turbo).
func SkyLake() (*Spec, error) {
	s := &Spec{
		Name:          "Intel(R) Core(TM) i5-6500 CPU @ 3.20GHz",
		Codename:      "Sky Lake",
		Microcode:     "0xf0",
		Cores:         4,
		Threads:       4,
		BusMHz:        100,
		MinRatio:      8,
		BaseRatio:     32,
		MaxTurboRatio: 36,
		VminMV:        720,
		VmaxMV:        1170,
		Gamma:         1.7,
		Tech:          timing.AlphaPower{Vth: 0.35, Alpha: 1.30},
		EpsPS:         15,
		JitterSigmaPS: 4,
		SetupPS:       20,
		MarginPS:      30,
		Depths:        baseDepths(),
		ControlDepth:  0.92,
	}
	if err := s.Calibrate(); err != nil {
		return nil, err
	}
	return s, nil
}

// KabyLakeR returns the calibrated Spec for the Intel Core i5-8250U
// (mobile, 15 W, 4C/8T, 1.6 GHz base / 3.4 GHz turbo).
func KabyLakeR() (*Spec, error) {
	s := &Spec{
		Name:          "Intel(R) Core(TM) i5-8250U CPU @ 1.60GHz",
		Codename:      "Kaby Lake R",
		Microcode:     "0xf4",
		Cores:         4,
		Threads:       8,
		BusMHz:        100,
		MinRatio:      4,
		BaseRatio:     16,
		MaxTurboRatio: 34,
		VminMV:        640,
		VmaxMV:        1040,
		Gamma:         1.7,
		Tech:          timing.AlphaPower{Vth: 0.34, Alpha: 1.32},
		EpsPS:         16,
		JitterSigmaPS: 4.5,
		SetupPS:       21,
		MarginPS:      28,
		Depths:        baseDepths(),
		ControlDepth:  0.92,
	}
	if err := s.Calibrate(); err != nil {
		return nil, err
	}
	return s, nil
}

// CometLake returns the calibrated Spec for the Intel Core i7-10510U
// (mobile, 15 W, 4C/8T, 1.8 GHz base / 4.9 GHz turbo).
func CometLake() (*Spec, error) {
	s := &Spec{
		Name:          "Intel(R) Core(TM) i7-10510U CPU @ 1.80GHz",
		Codename:      "Comet Lake",
		Microcode:     "0xf4",
		Cores:         4,
		Threads:       8,
		BusMHz:        100,
		MinRatio:      4,
		BaseRatio:     18,
		MaxTurboRatio: 49,
		VminMV:        620,
		VmaxMV:        1160,
		Gamma:         1.7,
		Tech:          timing.AlphaPower{Vth: 0.33, Alpha: 1.34},
		EpsPS:         14,
		JitterSigmaPS: 3.8,
		SetupPS:       18,
		MarginPS:      26,
		Depths:        baseDepths(),
		ControlDepth:  0.92,
	}
	if err := s.Calibrate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ByName resolves a model by codename or short alias (case-sensitive short
// aliases: "skylake", "kabylaker", "cometlake").
func ByName(name string) (*Spec, error) {
	switch name {
	case "skylake", "Sky Lake":
		return SkyLake()
	case "kabylaker", "Kaby Lake R":
		return KabyLakeR()
	case "cometlake", "Comet Lake":
		return CometLake()
	default:
		return nil, fmt.Errorf("models: unknown CPU model %q (want skylake, kabylaker or cometlake)", name)
	}
}
