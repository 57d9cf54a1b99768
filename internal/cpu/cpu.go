// Package cpu assembles the simulated Intel platform: per-core MSR files,
// PLLs, voltage regulators and the Eq. 1 timing circuit, plus an execution
// engine that manifests timing violations as real incorrect results.
//
// The wiring mirrors hardware:
//
//   - wrmsr IA32_PERF_CTL (0x199) commands the PLL and retargets the core
//     voltage rail along the model's nominal V/f curve;
//   - wrmsr OC_MAILBOX (0x150) with the write command applies a voltage
//     offset to the selected plane (Algorithm 1's encoding);
//   - rdmsr IA32_PERF_STATUS (0x198) reports the live ratio and the live
//     regulator output, which is what the paper's kernel module polls;
//   - executing instructions samples the fault model: when the current
//     (frequency, voltage) point gives an instruction class negative slack,
//     results get bit flips, and control-path violations crash the core.
package cpu

import (
	"errors"
	"fmt"
	"math"

	"plugvolt/internal/clockgen"
	"plugvolt/internal/flight"
	"plugvolt/internal/models"
	"plugvolt/internal/msr"
	"plugvolt/internal/power"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry/span"
	"plugvolt/internal/timing"
	"plugvolt/internal/vr"
)

// ErrCrashed is returned when code executes on a crashed core: a prior
// control-path timing violation has machine-checked the machine and it must
// be rebooted (Platform.Reboot).
var ErrCrashed = errors.New("cpu: core has crashed (control-path timing violation)")

// Class identifies an instruction class; values are the models path names.
type Class string

// Instruction classes with distinct critical-path depths.
const (
	ClassIMul Class = models.PathIMul
	ClassAES  Class = models.PathAES
	ClassFMA  Class = models.PathFMA
	ClassLoad Class = models.PathLoad
	ClassALU  Class = models.PathALU
)

// throughputCPI is the steady-state cycles per instruction of a tight loop
// of the class (pipelined throughput, not latency).
var throughputCPI = map[Class]float64{
	ClassIMul: 1.0,
	ClassAES:  1.0,
	ClassFMA:  0.5,
	ClassLoad: 0.5,
	ClassALU:  0.25,
}

// Core is one simulated CPU core.
type Core struct {
	index int
	simr  *sim.Simulator
	spec  *models.Spec
	circ  *timing.Circuit

	MSRs *msr.File
	PLL  *clockgen.PLL
	VR   *vr.Regulator

	// planeOffsets holds the OC-mailbox offset per voltage plane in raw
	// 1/1024-V units (the mailbox field's native resolution, avoiding
	// cumulative quantization on re-encode). Only the core plane feeds the
	// timing model; the others are tracked so reads return what was
	// written.
	planeOffsets [msr.NumPlanes]int

	crashed bool

	// targetRatio is the most recently commanded P-state ratio. It can
	// run ahead of PLL.PendingRatio during an up-transition (the PCU holds
	// the relock until the rail arrives); all voltage targets derive from
	// it so a concurrent mailbox write cannot compute the rail from a
	// stale ratio.
	targetRatio uint8
	// pendingUp is the deferred PLL relock of an in-flight up-transition;
	// a newer P-state command pre-empts it. The zero Event is inert, so no
	// nil checks are needed around Cancel.
	pendingUp sim.Event
	// op memoizes run's and RunBatch's probabilities at the last live
	// operating point either executed at.
	op opMemo
	// energy, when set, is touched at every commanded operating-point
	// transition so the platform's joule integrator closes the previous
	// piecewise-constant segment exactly at the transition instant.
	energy *power.Tracker
	// flight, when set, records every commanded operating-point change —
	// the P-state transition stream an incident bundle replays.
	flight *flight.Recorder

	// Retired counts successfully executed instructions; Faulted counts
	// instructions whose result was corrupted.
	Retired uint64
	Faulted uint64

	// wiring connects the MSR file to this core's hardware. newCore builds
	// it once, and every power-on reattaches it to the reset file. It sits
	// last so the fields the instruction and poll paths touch keep their
	// offsets.
	wiring coreWiring
}

// OffsetMV returns the current OC-mailbox offset on the core plane,
// rounded to the nearest millivolt.
func (c *Core) OffsetMV() int { return c.PlaneOffsetMV(msr.PlaneCore) }

// PlaneOffsetMV returns the current offset on any plane, rounded to the
// nearest millivolt.
func (c *Core) PlaneOffsetMV(p msr.Plane) int {
	if !p.Valid() {
		return 0
	}
	return int(math.Round(msr.UnitsToMV(c.planeOffsets[p])))
}

// Ratio returns the live P-state ratio.
func (c *Core) Ratio() uint8 { return c.PLL.Ratio() }

// FreqGHz returns the live core frequency.
func (c *Core) FreqGHz() float64 { return c.PLL.FreqGHz() }

// VoltageV returns the live rail voltage in volts (nominal + offset,
// mid-slew values included).
func (c *Core) VoltageV() float64 { return c.VR.OutputMV() / 1000.0 }

// CommandedGHz returns the frequency of the most recently commanded
// P-state ratio. It can run ahead of the live PLL output during a relock;
// energy accounting bills the commanded point (see power.PointFn).
func (c *Core) CommandedGHz() float64 {
	return float64(int(c.targetRatio)*c.spec.BusMHz) / 1000.0
}

// CommandedVoltV returns the commanded rail target in volts: the nominal
// voltage of the commanded ratio plus the core-plane mailbox offset.
func (c *Core) CommandedVoltV() float64 {
	return (c.spec.NominalMV(c.targetRatio) + msr.UnitsToMV(c.planeOffsets[msr.PlaneCore])) / 1000.0
}

// retarget recomputes the rail target from the commanded ratio and the
// core plane offset and commands the regulator. Every commanded
// operating-point change — P-state writes on either transition direction
// and mailbox offset commands — funnels through here, which is what makes
// it the single energy-integration point.
func (c *Core) retarget() {
	nominal := c.spec.NominalMV(c.targetRatio)
	target := nominal + msr.UnitsToMV(c.planeOffsets[msr.PlaneCore])
	c.VR.SetTarget(target)
	if c.energy != nil {
		c.energy.Touch(c.index)
	}
	c.flight.PStateRetarget(c.index, c.targetRatio, int64(target*1000))
}

// SetRatio commands a P-state change through the hardware path. The PCU
// sequences voltage and frequency so the transition itself never violates
// Eq. 1: on an up-transition the rail rises first and the PLL relocks only
// once the regulator reports the new level (CLKSCREW exploited platforms
// that let software skip this ordering); on a down-transition the clock
// slows first and the rail follows. Software should prefer writing
// IA32_PERF_CTL via the MSR file; this is the path that write lands on.
func (c *Core) SetRatio(ratio uint8) error {
	minR, maxR := c.PLL.Range()
	if ratio < minR || ratio > maxR {
		// Surface the range error synchronously, as the PLL would.
		return c.PLL.SetRatio(ratio)
	}
	c.pendingUp.Cancel()
	c.pendingUp = sim.Event{}
	if ratio > c.PLL.PendingRatio() {
		// Up-transition: voltage first, frequency after the rail settles.
		// The relock re-arms itself if a concurrent command (mailbox
		// offset, deeper undervolt) moved the rail's target meanwhile —
		// the clock must never outrun the rail.
		c.targetRatio = ratio
		c.retarget()
		var relock func()
		relock = func() {
			if c.targetRatio != ratio {
				return // pre-empted by a newer command
			}
			if !c.VR.Settled() {
				// Re-arm strictly in the future: SettleTime is computed in
				// float mV/us and can round to the current instant.
				next := c.VR.SettleTime()
				if next <= c.simr.Now() {
					next = c.simr.Now() + sim.Microsecond
				}
				c.pendingUp = c.simr.At(next, relock)
				return
			}
			c.pendingUp = sim.Event{}
			_ = c.PLL.SetRatio(ratio) // range checked above
		}
		c.pendingUp = c.simr.At(c.VR.SettleTime(), relock)
		return nil
	}
	// Down- or same-transition: frequency first, voltage follows.
	if err := c.PLL.SetRatio(ratio); err != nil {
		return err
	}
	c.targetRatio = ratio
	c.retarget()
	return nil
}

// opMemo is the control-path and class fault probabilities of one class
// at one live (PLL ratio, rail mV) point. Both are pure functions of that
// key, so an instruction or batch at an unchanged point reads them back
// bit for bit without converting the point or evaluating Eq. 1. The zero
// memo matches no instruction: no class is empty.
type opMemo struct {
	class          Class
	ratio          uint8
	railMV         float64
	pCrash, pFault float64
}

// memoize sets the memo to CrashProbability() and FaultProbability(class)
// at the live point, whose PLL ratio and rail output are ratio and railMV,
// from one pair evaluation of Eq. 1.
func (c *Core) memoize(class Class, ratio uint8, railMV float64) {
	pCrash, pFault := c.probabilities(class, c.PLL.FreqGHz(), c.VoltageV())
	c.op = opMemo{class: class, ratio: ratio, railMV: railMV, pCrash: pCrash, pFault: pFault}
}

// probabilities returns the per-instruction control-path violation and
// class fault probabilities at (freqGHz, voltageV), from one pair
// evaluation of Eq. 1.
func (c *Core) probabilities(class Class, freqGHz, voltageV float64) (pCrash, pFault float64) {
	ctl, cls := c.circ.AnalyzePair(c.path(models.PathControl), c.path(string(class)), freqGHz, voltageV)
	return c.circ.FaultProbability(ctl), c.circ.FaultProbability(cls)
}

// path returns the circuit's timing path of the given name.
func (c *Core) path(name string) timing.Path {
	p, ok := c.circ.PathByName(name)
	if !ok {
		panic(fmt.Sprintf("cpu: unknown timing path %q", name))
	}
	return p
}

// FaultProbability returns the per-instruction fault probability of the
// class at the live operating point.
func (c *Core) FaultProbability(class Class) float64 {
	return c.circ.FaultProbability(c.circ.Analyze(c.path(string(class)), c.PLL.FreqGHz(), c.VoltageV()))
}

// CrashProbability returns the per-instruction probability of a
// control-path violation at the live operating point.
func (c *Core) CrashProbability() float64 {
	return c.circ.FaultProbability(c.circ.Analyze(c.path(models.PathControl), c.PLL.FreqGHz(), c.VoltageV()))
}

// BatchUpsetProbability lifts a per-instruction upset probability p to the
// probability of at least one upset in an n-instruction batch,
// 1-(1-p)^n, computed in log space exactly as RunBatch's crash draw does.
func BatchUpsetProbability(n int, p float64) float64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	return -math.Expm1(float64(n) * math.Log1p(-p))
}

// PredictPoint returns the (GHz, V) operating point this core settles at
// once a mailbox write of offsetMV to the core plane lands at the
// currently commanded ratio — without programming anything. It mirrors the
// real path's arithmetic exactly: the offset is quantized through the
// mailbox encode/decode round-trip, the rail target is nominal(ratio) +
// offset (the retarget formula, which the regulator settles to exactly),
// and the frequency is the commanded ratio times the bus clock. After an
// actual WriteOffsetViaMSR + settle, FreqGHz and VoltageV therefore return
// these same bits — unless something intercepted the write (an MSR hook, a
// defense) or re-commanded the operating point.
func (c *Core) PredictPoint(offsetMV int) (freqGHz, voltV float64) {
	units := msr.DecodeVoltageOffset(msr.EncodeVoltageOffset(offsetMV, msr.PlaneCore)).OffsetUnits
	voltV = (c.spec.NominalMV(c.targetRatio) + msr.UnitsToMV(units)) / 1000.0
	freqGHz = float64(int(c.targetRatio)*c.spec.BusMHz*1000) / 1e6
	return freqGHz, voltV
}

// PredictProbabilities returns the per-instruction fault and control-path
// violation probabilities this core would read at PredictPoint(offsetMV).
// After an actual WriteOffsetViaMSR + settle, FaultProbability and
// CrashProbability return these same values unless the write was
// intercepted — precisely the discrepancy the bisection search uses as its
// tamper check.
func (c *Core) PredictProbabilities(class Class, offsetMV int) (pFault, pCrash float64) {
	f, v := c.PredictPoint(offsetMV)
	pCrash, pFault = c.probabilities(class, f, v)
	return pFault, pCrash
}

// faultMask returns a random low-weight XOR mask, modelling the one- or
// two-bit upsets DVFS faults produce in practice (Plundervolt observed
// predominantly single-bit flips in multiply results).
func (c *Core) faultMask() uint64 {
	mask := uint64(1) << uint(c.simr.Rand().Intn(64))
	if c.simr.Rand().Float64() < 0.25 { // occasional double-bit upset
		mask |= uint64(1) << uint(c.simr.Rand().Intn(64))
	}
	return mask
}

// IMul executes a 64x64->64 integer multiply on the core, subject to the
// fault model: a one-instruction run (see IMuls). It returns the (possibly
// corrupted) product and whether the result was faulted.
func (c *Core) IMul(a, b uint64) (uint64, bool, error) {
	return c.execALUOp(ClassIMul, a*b)
}

// IMuls executes up to n imuls back to back at the live operating point and
// stops after the first faulted one or at a crash. done counts the imuls
// that retired, the faulted one included. It draws exactly what n
// sequential IMul calls that stop there would draw, for a caller that needs
// only whether and where the core faulted, not the products.
func (c *Core) IMuls(n int) (done int, faulted bool, err error) {
	done, mask, err := c.run(ClassIMul, n)
	return done, mask != 0, err
}

// execALUOp executes one instruction of the class, whose exact result is
// exact, as a one-instruction run.
func (c *Core) execALUOp(class Class, exact uint64) (uint64, bool, error) {
	_, mask, err := c.run(class, 1)
	if err != nil {
		exact = 0
	}
	return exact ^ mask, mask != 0, err
}

// run executes up to n instructions of the class at the live operating
// point, which nothing here advances, so it reads the point's probabilities
// once. Each instruction samples one control-path traversal, on whose
// violation the core machine-checks, then the class's fault model. The run
// stops at a crash or after the first faulted instruction, whose XOR mask
// it returns (a mask is never zero). done counts the retired instructions.
func (c *Core) run(class Class, n int) (done int, mask uint64, err error) {
	if n <= 0 {
		return 0, 0, nil
	}
	if c.crashed {
		return 0, 0, ErrCrashed
	}
	ratio, railMV := c.PLL.Ratio(), c.VR.OutputMV()
	if m := &c.op; m.class != class || m.ratio != ratio || m.railMV != railMV {
		c.memoize(class, ratio, railMV)
	}
	pCrash, pFault := c.op.pCrash, c.op.pFault
	if pCrash == 0 && pFault == 0 {
		c.Retired += uint64(n) // no instruction draws a coin
		return n, 0, nil
	}
	r := c.simr.Rand()
	for ; done < n; done++ {
		if pCrash > 0 && r.Float64() < pCrash {
			c.crashed = true
			err = ErrCrashed
			break
		}
		if pFault > 0 && r.Float64() < pFault {
			c.Faulted++
			mask = c.faultMask()
			done++
			break
		}
	}
	c.Retired += uint64(done)
	return done, mask, err
}

// BatchResult summarizes a RunBatch execution.
type BatchResult struct {
	// Executed is the number of instructions retired (≤ requested when the
	// core crashes mid-batch).
	Executed int
	// Faults is the number of corrupted results.
	Faults int
	// Elapsed is the virtual time the batch took at the live frequency.
	Elapsed sim.Duration
	// Crashed reports a control-path violation during the batch.
	Crashed bool
}

// RunBatch executes n instructions of the class as a tight loop at the
// *current* operating point, sampling the number of faults from the
// binomial distribution instead of rolling per instruction. This is what
// makes full-grid characterization sweeps tractable (Algorithm 2 runs one
// million imuls per grid point).
//
// The operating point is sampled once at call time; callers that need to
// observe mid-slew behaviour should issue smaller batches.
func (c *Core) RunBatch(class Class, n int) (BatchResult, error) {
	if n < 0 {
		return BatchResult{}, fmt.Errorf("cpu: negative batch size %d", n)
	}
	if c.crashed {
		return BatchResult{}, ErrCrashed
	}
	cpi, ok := throughputCPI[class]
	if !ok {
		return BatchResult{}, fmt.Errorf("cpu: unknown instruction class %q", class)
	}
	ratio, railMV := c.PLL.Ratio(), c.VR.OutputMV()
	if m := &c.op; m.class != class || m.ratio != ratio || m.railMV != railMV {
		c.memoize(class, ratio, railMV)
	}
	pCrash, pFault := c.op.pCrash, c.op.pFault
	var res BatchResult
	executed := n
	if pCrash > 0 {
		// P(crash within n) = 1-(1-p)^n; if it happens, the crash point is
		// geometrically distributed.
		pAny := -math.Expm1(float64(n) * math.Log1p(-pCrash))
		if c.simr.Rand().Float64() < pAny {
			res.Crashed = true
			c.crashed = true
			executed = c.simr.Rand().Intn(n + 1)
		}
	}
	res.Executed = executed
	res.Faults = binomial(c.simr, executed, pFault)
	c.Retired += uint64(executed)
	c.Faulted += uint64(res.Faults)

	cycles := float64(executed) * cpi
	periodPS := c.PLL.PeriodPS()
	res.Elapsed = sim.Duration(cycles * periodPS)
	if res.Crashed {
		return res, ErrCrashed
	}
	return res, nil
}

// binomial samples Binomial(n, p) from the simulator's RNG. It uses exact
// per-trial sampling for small n, a Poisson approximation for rare events
// and a normal approximation for the bulk regime.
func binomial(s *sim.Simulator, n int, p float64) int {
	switch {
	case n <= 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	case n <= 64:
		k := 0
		for i := 0; i < n; i++ {
			if s.Rand().Float64() < p {
				k++
			}
		}
		return k
	case float64(n)*p < 30:
		// Poisson(np) via Knuth; lambda < 30 keeps the loop short.
		lambda := float64(n) * p
		l := math.Exp(-lambda)
		k, prod := 0, s.Rand().Float64()
		for prod > l {
			k++
			prod *= s.Rand().Float64()
		}
		if k > n {
			k = n
		}
		return k
	default:
		mean := float64(n) * p
		sd := math.Sqrt(mean * (1 - p))
		k := int(math.Round(mean + sd*s.Rand().NormFloat64()))
		if k < 0 {
			k = 0
		}
		if k > n {
			k = n
		}
		return k
	}
}

// Platform is the whole simulated machine.
type Platform struct {
	Sim   *sim.Simulator
	Spec  *models.Spec
	cores []*Core

	// RebootTime is the virtual downtime consumed by Reboot.
	RebootTime sim.Duration
	// Reboots counts crash recoveries, which the characterizer reports.
	Reboots int

	seed int64

	// spans is the causal tracer attached to every core's MSR file; kept
	// here so a power-on can re-attach it to the reset files.
	spans *span.Tracer

	// flight is the flight recorder attached to every observation point;
	// kept here so a power-on can re-attach it like the span tracer.
	flight *flight.Recorder

	// Energy is the platform's deterministic joule integrator. It bills
	// each core's commanded operating point piecewise-constantly over the
	// virtual clock (touched from retarget) and backs the modeled RAPL
	// energy-status MSRs; reboot downtime is billed at zero watts.
	Energy *power.Tracker
}

// DefaultRebootTime approximates a fast reboot cycle.
const DefaultRebootTime = 30 * sim.Second

// NewPlatform builds a machine of the given model. The seed drives all
// stochastic behaviour (jitter realizations, fault coin flips). It
// validates the spec, allocates the hardware and then powers it on through
// Reset, so a reset platform is a new one by construction.
func NewPlatform(spec *models.Spec, seed int64) (*Platform, error) {
	if spec == nil {
		return nil, errors.New("cpu: nil spec")
	}
	if spec.Tech.K == 0 {
		return nil, fmt.Errorf("cpu: spec %q not calibrated", spec.Codename)
	}
	p := &Platform{Sim: sim.New(seed), Spec: spec, cores: make([]*Core, spec.Cores)}
	for i := range p.cores {
		c, err := p.newCore(i)
		if err != nil {
			return nil, err
		}
		p.cores[i] = c
	}
	// Reset opens each core's first energy segment once the cores are
	// powered on.
	tr, err := power.NewTracker(power.ModelFor(spec.Codename), spec.Cores, p.Sim.Now, p.commandedPoint)
	if err != nil {
		return nil, err
	}
	p.Energy = tr
	p.Reset(seed)
	return p, nil
}

// newCore allocates core i's hardware and builds its MSR wiring. powerOn
// puts it in its power-on state.
func (p *Platform) newCore(i int) (*Core, error) {
	circ, err := p.Spec.Circuit()
	if err != nil {
		return nil, err
	}
	pll, err := clockgen.New(p.Sim, clockgen.Config{
		BusMHz:       p.Spec.BusMHz,
		RelockTime:   clockgen.DefaultRelock,
		MinRatio:     p.Spec.MinRatio,
		MaxRatio:     p.Spec.MaxTurboRatio,
		InitialRatio: p.Spec.BaseRatio,
	})
	if err != nil {
		return nil, err
	}
	rail, err := vr.New(p.Sim, vr.DefaultConfig(p.Spec.NominalMV(p.Spec.BaseRatio)))
	if err != nil {
		return nil, err
	}
	c := &Core{
		index: i,
		simr:  p.Sim,
		spec:  p.Spec,
		circ:  circ,
		MSRs:  msr.NewFile(i),
		PLL:   pll,
		VR:    rail,
	}
	c.wiring = c.newWiring()
	return c, nil
}

// Reset returns the platform to NewPlatform(p.Spec, seed)'s state in place:
// the simulator reset to seed, every core powered on with zero Retired and
// Faulted counts, no reboots, the default reboot time, a fresh energy
// integral and no span tracer or flight recorder attached. Once the
// platform has run, Reset allocates nothing.
func (p *Platform) Reset(seed int64) {
	// Cancel the relocks in flight while their handles still name live
	// events: the simulator reset recycles every slot.
	for _, c := range p.cores {
		c.pendingUp.Cancel()
		c.pendingUp = sim.Event{}
	}
	p.Sim.Reset(seed)
	p.seed = seed
	p.RebootTime = DefaultRebootTime
	p.Reboots = 0
	p.spans, p.flight = nil, nil
	p.powerOn()
	for _, c := range p.cores {
		c.Retired, c.Faulted = 0, 0
	}
	p.Energy.Reset()
}

// commandedPoint adapts the cores to power.PointFn.
func (p *Platform) commandedPoint(core int) (freqGHz, voltV float64) {
	c := p.cores[core]
	return c.CommandedGHz(), c.CommandedVoltV()
}

// powerOn puts every core in its power-on state, the one routine behind
// NewPlatform, Reset and Reboot: base ratio, zero offsets, not crashed, no
// relock in flight, and its MSR file, PLL and regulator reset in place with
// the wiring, the energy integrator, the span tracer and the flight
// recorder reattached. Retired and Faulted survive; they model host-side
// experiment bookkeeping, not machine state.
func (p *Platform) powerOn() {
	for _, c := range p.cores {
		c.pendingUp.Cancel()
		c.pendingUp = sim.Event{}
		c.crashed = false
		c.planeOffsets = [msr.NumPlanes]int{}
		c.targetRatio = p.Spec.BaseRatio
		c.op = opMemo{}
		c.PLL.Reset()
		c.VR.Reset()
		c.MSRs.Reset()
		c.wiring.attach(c.MSRs)
		c.energy = p.Energy
		c.flight = p.flight
		// The reset register file must keep observing mailbox writes: a
		// crash-reboot cycle mid-experiment would otherwise silently detach
		// the causal trace — and the flight recorder, whose whole job is
		// explaining the crash that caused this very reboot.
		c.MSRs.SetSpanTracer(p.spans)
		c.MSRs.SetFlightRecorder(p.flight)
	}
}

// coreWiring is the hardware side of a core's software-visible registers:
// the dynamic reads and the commit stages that drive the PLL and the rail.
type coreWiring struct {
	perfStatus, pkgEnergy, pp0Energy msr.ReadFn
	perfCtl, mailbox                 msr.WriteHook
}

// attach installs the wiring on a freshly reset register file.
func (w *coreWiring) attach(f *msr.File) {
	f.Descriptor(msr.IA32PerfStatus).ReadFn = w.perfStatus
	f.Descriptor(msr.IA32PerfCtl).Apply = w.perfCtl
	f.Descriptor(msr.OCMailbox).Apply = w.mailbox
	f.Descriptor(msr.PkgEnergyStatus).ReadFn = w.pkgEnergy
	f.Descriptor(msr.PP0EnergyStatus).ReadFn = w.pp0Energy
}

// newWiring builds the core's register wiring.
func (c *Core) newWiring() coreWiring {
	return coreWiring{
		// IA32_PERF_STATUS reflects the live PLL ratio and rail voltage.
		perfStatus: func(*msr.File) (uint64, error) {
			return msr.EncodePerfStatus(c.PLL.Ratio(), c.VR.OutputMV()/1000.0), nil
		},
		// The energy-status MSRs read the joule integrator. The reads are
		// pure — the tracker extrapolates without mutating — so polling RAPL
		// never perturbs the deterministic energy totals.
		pkgEnergy: func(*msr.File) (uint64, error) {
			return msr.EncodeEnergyStatus(c.energy.PackageEnergyJ(), msr.DefaultEnergyUnitJ), nil
		},
		pp0Energy: func(*msr.File) (uint64, error) {
			return msr.EncodeEnergyStatus(c.energy.CoresEnergyJ(), msr.DefaultEnergyUnitJ), nil
		},
		// IA32_PERF_CTL bits 15:8 select the target ratio. Apply is the
		// hardware commit stage, so software defenses hooked on the register
		// run first.
		perfCtl: func(_ *msr.File, _, v uint64) (uint64, error) {
			ratio := uint8((v >> 8) & 0xFF)
			if err := c.SetRatio(ratio); err != nil {
				return 0, &msr.GPFault{Addr: msr.IA32PerfCtl, Op: "wrmsr", Why: err.Error()}
			}
			return v, nil
		},
		// OC mailbox: decode Algorithm 1 commands. The stored value has the
		// busy bit cleared (hardware consumes the command), so a subsequent
		// rdmsr returns the applied offset — what Algorithm 3 polls.
		mailbox: func(_ *msr.File, old, v uint64) (uint64, error) {
			d := msr.DecodeVoltageOffset(v)
			if !d.Busy {
				// Command without the run bit is ignored by hardware.
				return old, nil
			}
			if !d.Plane.Valid() {
				return 0, &msr.GPFault{Addr: msr.OCMailbox, Op: "wrmsr", Why: fmt.Sprintf("invalid plane %d", d.Plane)}
			}
			if !d.Write {
				// Read command: respond with the current offset for the plane.
				resp := msr.EncodeVoltageOffsetUnits(c.planeOffsets[d.Plane], d.Plane) &^ (1 << 63)
				return resp, nil
			}
			c.planeOffsets[d.Plane] = d.OffsetUnits
			if d.Plane == msr.PlaneCore {
				c.retarget()
			}
			return v &^ (1 << 63), nil
		},
	}
}

// NumCores returns the core count.
func (p *Platform) NumCores() int { return len(p.cores) }

// Core returns core i.
func (p *Platform) Core(i int) *Core { return p.cores[i] }

// Cores returns all cores.
func (p *Platform) Cores() []*Core { return p.cores }

// Reboot recovers from a crash: every core powers on again at the base
// P-state with zero offsets and cleared fault state, its MSR file, PLL and
// regulator reset in place, and virtual time advances by RebootTime.
// Retired/Faulted counters survive (they model host-side experiment
// bookkeeping, not machine state), and so do the clock, the energy totals,
// the span tracer and the flight recorder. On a platform with neither
// attached it allocates nothing.
func (p *Platform) Reboot() {
	// Close every core's energy segment at the crash instant; the downtime
	// below is billed at zero watts until the power-on touch.
	for _, c := range p.cores {
		p.Energy.Blackout(c.index)
	}
	p.powerOn()
	p.Reboots++
	p.Sim.RunFor(p.RebootTime)
	// Power-on: bill the downtime at zero and reopen each core's segment at
	// the base operating point.
	p.Energy.TouchAll()
}

// SetSpanTracer attaches the causal span tracer to every core's MSR file
// (and keeps it attached across reboots). Nil detaches.
func (p *Platform) SetSpanTracer(tr *span.Tracer) {
	p.spans = tr
	for _, c := range p.cores {
		c.MSRs.SetSpanTracer(tr)
	}
}

// SetFlightRecorder attaches the flight recorder to every observation point
// the platform owns — mailbox writes at each core's MSR file, commanded
// operating-point changes at retarget, and energy-segment boundaries at the
// joule integrator — and keeps it attached across reboots. Nil detaches.
func (p *Platform) SetFlightRecorder(rec *flight.Recorder) {
	p.flight = rec
	for _, c := range p.cores {
		c.flight = rec
		c.MSRs.SetFlightRecorder(rec)
	}
	p.Energy.SetFlightRecorder(rec)
}

// MSRFile returns core's MSR file (kernel.Machine interface).
func (p *Platform) MSRFile(core int) *msr.File { return p.cores[core].MSRs }

// FreqTableKHz exposes the model's frequency table (pstate interface).
func (p *Platform) FreqTableKHz() []int { return p.Spec.FreqTableKHz() }

// FreqKHz returns core i's live frequency (pstate interface).
func (p *Platform) FreqKHz(core int) int { return p.cores[core].PLL.FreqKHz() }

// SetRatioViaMSR performs the software P-state change: a wrmsr to
// IA32_PERF_CTL on the target core, as cpupower's userspace governor does.
func (p *Platform) SetRatioViaMSR(core int, ratio uint8) error {
	return p.cores[core].MSRs.Write(msr.IA32PerfCtl, uint64(ratio)<<8)
}

// WriteOffsetViaMSR applies a voltage offset through the OC mailbox on the
// target core — the Plundervolt/Algorithm 1 software path.
func (p *Platform) WriteOffsetViaMSR(core int, offsetMV int, plane msr.Plane) error {
	return p.cores[core].MSRs.Write(msr.OCMailbox, msr.EncodeVoltageOffset(offsetMV, plane))
}

// SettleAll advances virtual time until every core's PLL has relocked and
// every rail has settled — convenient between characterization steps.
func (p *Platform) SettleAll() {
	var latest sim.Time
	for _, c := range p.cores {
		if st := c.VR.SettleTime(); st > latest {
			latest = st
		}
	}
	if latest > p.Sim.Now() {
		p.Sim.RunUntil(latest)
	}
	// PLL relock is bounded; run a little past the worst case.
	p.Sim.RunFor(2 * clockgen.DefaultRelock)
}

// SettleCommanded runs the simulation until the core's commanded operating
// point is fully realized: rail settled and PLL output at the commanded
// ratio. SettleAll alone is not always enough: an up-transition's relock
// event is armed for the rail's settle time as of the P-state command, and
// a subsequent mailbox write can drag the target low enough that the rail
// settles long before that stale deadline — leaving the clock at the old
// ratio past SettleAll's bounded window. Measurement paths that must
// observe the commanded (f, V) point — the characterizer's probes — call
// this instead. It returns ErrUnsettled if the point is still not realized
// after settleBackstop rounds.
func (p *Platform) SettleCommanded(core int) error {
	c := p.Core(core)
	// Each SettleAll advances virtual time by at least the relock margin,
	// and the pending relock deadline is bounded by the rail's full-range
	// slew, so this converges; the cap is a backstop against a commanded
	// point that can never be realized.
	for i := 0; i < settleBackstop; i++ {
		if c.VR.Settled() && c.PLL.Ratio() == c.targetRatio {
			return nil
		}
		p.SettleAll()
	}
	return fmt.Errorf("%w: core %d at ratio %d (commanded %d), rail settled %v after %d rounds",
		ErrUnsettled, core, c.PLL.Ratio(), c.targetRatio, c.VR.Settled(), settleBackstop)
}

// settleBackstop bounds SettleCommanded's SettleAll rounds.
const settleBackstop = 10_000

// ErrUnsettled reports a commanded operating point that SettleCommanded
// could not realize.
var ErrUnsettled = errors.New("cpu: commanded operating point never realized")

// Seed returns the platform's RNG seed.
func (p *Platform) Seed() int64 { return p.seed }

// PlatformFactory hands the sharded characterizer the platform for its next
// frequency row. prev is the platform the same worker used for its previous
// row, or nil for a worker's first row; the factory returns a platform in
// NewPlatform(spec, seed)'s state, typically prev reset in place. Each worker
// keeps its platform private, so no simulated hardware is ever shared
// between goroutines.
type PlatformFactory func(prev *Platform, seed int64) (*Platform, error)

// FactoryFor returns the canonical PlatformFactory for a spec: it resets
// prev to the seed, and builds a platform only when prev is nil. prev must
// be a platform of the same spec. Spec is treated as read-only by the
// platform, so one spec can safely back many concurrent factories.
func FactoryFor(spec *models.Spec) PlatformFactory {
	return func(prev *Platform, seed int64) (*Platform, error) {
		if prev == nil {
			return NewPlatform(spec, seed)
		}
		prev.Reset(seed)
		return prev, nil
	}
}
