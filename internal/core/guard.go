package core

import (
	"errors"
	"fmt"

	"plugvolt/internal/flight"
	"plugvolt/internal/kernel"
	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
	"plugvolt/internal/telemetry/span"
)

// ModuleName is the polling countermeasure's kernel-module name; SGX
// attestation reports reference it (paper Sec. 4.1: "we propose that the
// load/unload state of our countermeasure's kernel module be a part of SGX
// attestation").
const ModuleName = "plug_your_volt"

// GuardConfig parameterizes the Algorithm 3 polling countermeasure.
type GuardConfig struct {
	// PollPeriod is the kthread wake interval. Shorter periods shrink the
	// attack window but raise overhead (Table 2 trades these off).
	PollPeriod sim.Duration
	// PinnedCore hosts the polling kthread (single-thread deployment).
	PinnedCore int
	// PerCoreThreads starts one kthread per core, each polling only its
	// own MSRs: the per-core cost halves (no remote reads) and the
	// overhead spreads evenly instead of taxing one core — the deployment
	// a production module would choose. Ablation-comparable with the
	// single-thread form the paper's Algorithm 3 sketches.
	PerCoreThreads bool
	// SafeOffsetMV is the offset written to MSR 0x150 to force the system
	// back into a safe state. Zero (stock voltage) is always safe; setting
	// it to the maximal safe state preserves benign undervolting even
	// mid-intervention.
	SafeOffsetMV int
	// MarginMV widens the unsafe boundary by this many millivolts. The
	// empirical onset is a statistical estimate (one million imuls see
	// faults only above ~1e-6 per-instruction probability); states just
	// shallower than the measured onset still fault at minute rates that a
	// patient attacker can farm. The margin covers that tail.
	MarginMV int

	// VoltageCrossCheck is an extension beyond the paper: each poll also
	// compares the live IA32_PERF_STATUS core voltage against the value
	// implied by the polled (ratio, offset) pair. A persistent deficit
	// means the rail is being driven out of band — a VoltPillager-style
	// hardware SVID injection that never touches MSR 0x150. Software
	// cannot out-command a soldered-on injector, so the guard records the
	// anomaly (for alerting / enclave evacuation) rather than claiming
	// prevention.
	VoltageCrossCheck bool
	// ExpectedMV maps a P-state ratio to the stock rail voltage; required
	// when VoltageCrossCheck is set (models.Spec.NominalMV fits).
	ExpectedMV func(ratio uint8) float64
	// CrossCheckSlackMV is the tolerated deficit (regulator mid-slew
	// transients); default 30.
	CrossCheckSlackMV int
	// CrossCheckPersist is how many consecutive deficit polls raise an
	// anomaly (filters the recovery transient after a register
	// intervention); default 3.
	CrossCheckPersist int

	// Telemetry, when set, receives per-core poll/intervention/anomaly
	// counters, the poll-latency histogram, and journal events for every
	// intervention and anomaly. Nil disables instrumentation; the guard's
	// behaviour is identical either way (observing never charges time or
	// draws randomness).
	Telemetry *telemetry.Set

	// Flight, when set, receives one compact record per poll and per
	// intervention, and is handed the compiled unsafe-set view so incident
	// bundles carry the exact boundary the guard was enforcing. Like
	// Telemetry, attaching it never changes guard behaviour, and the
	// per-poll record stays on the allocation-free hot path.
	Flight *flight.Recorder
}

// DefaultGuardConfig polls every 100 us and restores stock voltage.
//
// The period is chosen against the regulator's physics: after a malicious
// wrmsr the rail needs cmdLatency + |onset|/slew to reach fault depth, and
// a poll that rewrites 0x150 sooner wins the race. For the shallowest onset
// of a quick-sweep grid at seed 2017 (plugvolt-overhead -sweep) that is
// 170 us on Comet Lake and 110 us on Kaby Lake R, the tightest part: a
// 10 us margin. The onset moves with the seed, though: Kaby Lake R's is
// -35 mV at seed 42, where the rail needs 90 us and a 100 us poll loses.
// The per-tick cost (~0.7 us) over 100 us puts the direct overhead at 0.70%
// of the pinned core, the same order as the paper's measured 0.28%.
func DefaultGuardConfig() GuardConfig {
	return GuardConfig{PollPeriod: 100 * sim.Microsecond, MarginMV: 15}
}

// Guard is the polling countermeasure: a kernel module whose kthread reads
// MSR 0x198 (frequency) and MSR 0x150 (voltage offset) on every core and,
// when the pair is in the unsafe set, rewrites 0x150 to force a safe state.
type Guard struct {
	cfg    GuardConfig
	unsafe *UnsafeSet
	busMHz int
	// lut is the compiled decision table: the unsafe boundary flattened over
	// the 256-slot ratio domain with MarginMV folded in, so the per-poll
	// membership test is two array loads instead of a map lookup + binary
	// search on UnsafeSet.
	lut *RatioLUT

	k       *kernel.Kernel
	thread  *kernel.KThread
	threads []*kernel.KThread // per-core deployment

	// Checks counts per-core state inspections; Interventions counts
	// forced returns to the safe state.
	Checks        uint64
	Interventions uint64
	// LastIntervention records the most recent forced transition.
	LastIntervention sim.Time

	// HardwareAnomalies counts detected out-of-band rail deficits
	// (voltage cross-check extension); LastAnomaly timestamps the latest.
	HardwareAnomalies uint64
	LastAnomaly       sim.Time
	// deficitRuns tracks consecutive deficit polls per core.
	deficitRuns map[int]int

	// Per-core instruments, indexed by core; nil slices when telemetry is
	// disabled (every method on them is then a no-op).
	pollsC         []*telemetry.Counter
	interventionsC []*telemetry.Counter
	anomaliesC     []*telemetry.Counter
	pollLatency    *telemetry.Histogram
	// spans is the causal tracer (nil when telemetry is disabled): every
	// poll opens a "guard_poll" span and every forced rewrite a
	// "guard_intervention" span enclosing the corrective wrmsr, which is the
	// causal chain the SLO watchdog and the e2e trace test check.
	spans *span.Tracer
	// pollAttrs[core] is the preallocated attribute map for that core's
	// "guard_poll" span, built once in instrument. Poll spans share the map
	// by reference (never mutated after construction) so tracing a poll does
	// not allocate.
	pollAttrs []map[string]any
	// flight is the flight recorder (nil disables it); its per-poll record
	// is a fixed-size ring store, keeping the hot path allocation-free.
	flight *flight.Recorder
}

// pollLatencyBuckets bound the per-core poll cost histogram in seconds. A
// local poll is two rdmsr (~100 ns); a remote poll adds the wrmsr of an
// intervention; the tail buckets catch pathological cost models.
var pollLatencyBuckets = []float64{
	50e-9, 100e-9, 150e-9, 200e-9, 300e-9, 500e-9, 1e-6, 2e-6, 5e-6, 10e-6,
}

// NewGuard builds a guard for a characterized machine. busMHz converts the
// polled PERF_STATUS ratio into the unsafe set's frequency domain.
func NewGuard(unsafe *UnsafeSet, busMHz int, cfg GuardConfig) (*Guard, error) {
	if unsafe == nil {
		return nil, errors.New("core: nil unsafe set")
	}
	if busMHz <= 0 {
		return nil, fmt.Errorf("core: bus clock %d MHz", busMHz)
	}
	if cfg.PollPeriod <= 0 {
		return nil, errors.New("core: poll period must be positive")
	}
	if cfg.SafeOffsetMV > 0 {
		return nil, errors.New("core: safe offset must be <= 0")
	}
	if cfg.MarginMV < 0 {
		return nil, errors.New("core: margin must be >= 0")
	}
	if cfg.VoltageCrossCheck {
		if cfg.ExpectedMV == nil {
			return nil, errors.New("core: voltage cross-check needs ExpectedMV")
		}
		if cfg.CrossCheckSlackMV == 0 {
			cfg.CrossCheckSlackMV = 30
		}
		if cfg.CrossCheckPersist == 0 {
			cfg.CrossCheckPersist = 3
		}
		if cfg.CrossCheckSlackMV < 0 || cfg.CrossCheckPersist < 1 {
			return nil, errors.New("core: bad cross-check parameters")
		}
	}
	lut, err := unsafe.Compile(busMHz, cfg.MarginMV)
	if err != nil {
		return nil, err
	}
	if cfg.Flight != nil {
		cfg.Flight.SetGuardView(guardView(lut, cfg))
	}
	return &Guard{cfg: cfg, unsafe: unsafe, busMHz: busMHz, lut: lut,
		flight: cfg.Flight, deficitRuns: map[int]int{}}, nil
}

// guardView freezes the compiled decision table into the flight recorder's
// bundle header form: the per-ratio unsafe thresholds (margin folded in) in
// ascending ratio order, plus the enforcement parameters.
func guardView(lut *RatioLUT, cfg GuardConfig) *flight.GuardView {
	v := &flight.GuardView{
		Model:       lut.Model,
		BusMHz:      lut.BusMHz,
		MarginMV:    cfg.MarginMV,
		SafeMV:      cfg.SafeOffsetMV,
		PollPeriodP: int64(cfg.PollPeriod),
	}
	for r := 0; r < 256; r++ {
		if th, ok := lut.Threshold(uint8(r)); ok {
			v.Thresholds = append(v.Thresholds, flight.RatioThreshold{Ratio: r, ThresholdMV: th})
		}
	}
	return v
}

// Module returns the loadable kernel module housing the guard. Loading it
// starts the polling kthread; unloading stops it (the adversarial rmmod the
// attestation flag defends against).
func (g *Guard) Module() *kernel.Module {
	return &kernel.Module{
		Name: ModuleName,
		Init: func(k *kernel.Kernel) error {
			g.k = k
			g.instrument(k.Machine().NumCores())
			if g.cfg.PerCoreThreads {
				for core := 0; core < k.Machine().NumCores(); core++ {
					core := core
					t, err := k.StartKThread(fmt.Sprintf("%s/%d", ModuleName, core), core,
						g.cfg.PollPeriod, func(t *kernel.KThread) { g.pollOne(t, core) })
					if err != nil {
						for _, prev := range g.threads {
							prev.Stop()
						}
						g.threads = nil
						return err
					}
					g.threads = append(g.threads, t)
				}
				return nil
			}
			if g.cfg.PinnedCore < 0 || g.cfg.PinnedCore >= k.Machine().NumCores() {
				return fmt.Errorf("core: guard pinned to nonexistent core %d", g.cfg.PinnedCore)
			}
			t, err := k.StartKThread(ModuleName, g.cfg.PinnedCore, g.cfg.PollPeriod, g.poll)
			if err != nil {
				return err
			}
			g.thread = t
			return nil
		},
		Exit: func(k *kernel.Kernel) {
			if g.thread != nil {
				g.thread.Stop()
				g.thread = nil
			}
			for _, t := range g.threads {
				t.Stop()
			}
			g.threads = nil
			g.cfg.Telemetry.Events().Emit("guard_unloaded", map[string]any{
				"module": ModuleName, "checks": g.Checks, "interventions": g.Interventions,
			})
		},
	}
}

// instrument builds the per-core counters and the poll-latency histogram.
// With no telemetry set everything stays nil, and the nil-safe instrument
// methods make every observation a no-op.
func (g *Guard) instrument(numCores int) {
	tel := g.cfg.Telemetry
	if tel == nil {
		return
	}
	reg := tel.Registry()
	g.pollsC = make([]*telemetry.Counter, numCores)
	g.interventionsC = make([]*telemetry.Counter, numCores)
	g.anomaliesC = make([]*telemetry.Counter, numCores)
	g.pollAttrs = make([]map[string]any, numCores)
	for core := 0; core < numCores; core++ {
		g.pollAttrs[core] = map[string]any{"core": core}
		lbl := telemetry.Labels{"core": fmt.Sprintf("%d", core)}
		g.pollsC[core] = reg.Counter("guard_polls_total",
			"per-core (freq, offset) state inspections by the polling kthread", lbl)
		g.interventionsC[core] = reg.Counter("guard_interventions_total",
			"forced returns to the safe state via MSR 0x150", lbl)
		g.anomaliesC[core] = reg.Counter("guard_hw_anomalies_total",
			"persistent out-of-band rail deficits flagged by the voltage cross-check", lbl)
	}
	g.pollLatency = reg.Histogram("guard_poll_latency_seconds",
		"CPU cost of one per-core poll (MSR reads plus any intervention write)",
		pollLatencyBuckets, nil)
	g.spans = tel.Spans()
	mode := "single-thread"
	if g.cfg.PerCoreThreads {
		mode = "per-core"
	}
	tel.Events().Emit("guard_loaded", map[string]any{
		"module": ModuleName, "mode": mode,
		"poll_period_ps": int64(g.cfg.PollPeriod), "margin_mv": g.cfg.MarginMV,
	})
}

// poll is one Algorithm 3 iteration: inspect every core, force safe states.
func (g *Guard) poll(t *kernel.KThread) {
	n := g.k.Machine().NumCores()
	for core := 0; core < n; core++ {
		g.pollOne(t, core)
	}
}

// pollOne inspects a single core's state pair and intervenes if unsafe.
//
// This is the countermeasure's steady-state cost (Table 2), so the path is
// branch-poor and allocation-free: membership is the compiled RatioLUT (two
// array loads), the poll span reuses the preallocated per-core attribute map
// through the by-value Scope API, and span/latency accounting is closed by
// an explicit endPoll at each return instead of a deferred closure. Only an
// actual intervention — rare by construction, bounded by attacks rather than
// the poll rate — takes the allocating slow path.
func (g *Guard) pollOne(t *kernel.KThread, core int) {
	g.Checks++
	busyBefore := t.Busy
	var sc span.Scope
	if g.spans != nil {
		sc = g.spans.StartScope("guard", "guard_poll", g.pollAttrs[core])
	}
	if g.pollsC != nil {
		g.pollsC[core].Inc()
	}
	status, err := t.ReadMSR(core, msr.IA32PerfStatus)
	if err != nil {
		g.endPoll(&sc, t, busyBefore)
		return // core offline (crashed); nothing to protect
	}
	ratio, liveV := msr.DecodePerfStatus(status)

	mailbox, err := t.ReadMSR(core, msr.OCMailbox)
	if err != nil {
		g.endPoll(&sc, t, busyBefore)
		return
	}
	offsetMV := msr.DecodeVoltageOffset(mailbox).OffsetMV

	if g.cfg.VoltageCrossCheck {
		g.crossCheck(core, ratio, offsetMV, liveV)
	}

	// Membership with the conservative margin pre-folded in: a state within
	// MarginMV of the measured boundary is treated as unsafe.
	unsafe := g.lut.Unsafe(ratio, offsetMV)
	g.flight.GuardPoll(core, ratio, offsetMV, unsafe)
	if unsafe {
		g.intervene(t, core, ratio, offsetMV)
	}
	g.endPoll(&sc, t, busyBefore)
}

// endPoll closes the poll span and the latency histogram with the CPU time
// the poll charged through the kthread — virtual accounting, so observing
// it cannot perturb the run.
func (g *Guard) endPoll(sc *span.Scope, t *kernel.KThread, busyBefore sim.Duration) {
	cost := t.Busy - busyBefore
	sc.EndWithCost(cost)
	if g.pollLatency != nil {
		g.pollLatency.Observe(telemetry.Seconds(cost))
	}
}

// intervene forces core back into a safe state via MSR 0x150. The
// intervention span stays open across the write so the corrective wrmsr
// (and its register-level mailbox_write outcome) is causally enclosed by
// the intervention in the trace.
func (g *Guard) intervene(t *kernel.KThread, core int, ratio uint8, offsetMV int) {
	freqKHz := msr.RatioToKHz(ratio, g.busMHz)
	var isp *span.Active
	if g.spans != nil {
		isp = g.spans.Start("guard", "guard_intervention", map[string]any{
			"core": core, "freq_khz": freqKHz, "offset_mv": offsetMV,
			"safe_mv": g.cfg.SafeOffsetMV,
		})
	}
	writeBusy := t.Busy
	energyBefore := g.k.EnergyPJ(core)
	// The corrective write books as CostIntervention: the one ledger row
	// (time and joules) that exists only because an attack happened.
	err := t.WriteMSRKind(kernel.CostIntervention, core, msr.OCMailbox, safeCommand(g.cfg.SafeOffsetMV))
	isp.SetAttr("ok", err == nil)
	isp.SetAttr("energy_pj", g.k.EnergyPJ(core)-energyBefore)
	isp.EndWithCost(t.Busy - writeBusy)
	g.flight.GuardIntervention(core, offsetMV, g.cfg.SafeOffsetMV, err == nil)
	if err == nil {
		g.Interventions++
		g.LastIntervention = g.k.Sim().Now()
		if g.interventionsC != nil {
			g.interventionsC[core].Inc()
		}
		g.cfg.Telemetry.Events().Emit("guard_intervention", map[string]any{
			"core": core, "freq_khz": freqKHz, "offset_mv": offsetMV,
			"safe_mv": g.cfg.SafeOffsetMV,
		})
	}
}

// safeCommand encodes the mailbox write that forces the safe offset.
func safeCommand(safeOffsetMV int) uint64 {
	return msr.EncodeVoltageOffset(safeOffsetMV, msr.PlaneCore)
}

// crossCheck compares the live rail against the (ratio, offset) implied
// voltage; a persistent deficit flags out-of-band undervolting.
func (g *Guard) crossCheck(core int, ratio uint8, offsetMV int, liveV float64) {
	expectedMV := g.cfg.ExpectedMV(ratio) + float64(offsetMV)
	deficit := expectedMV - liveV*1000
	if deficit > float64(g.cfg.CrossCheckSlackMV) {
		g.deficitRuns[core]++
		if g.deficitRuns[core] == g.cfg.CrossCheckPersist {
			g.HardwareAnomalies++
			g.LastAnomaly = g.k.Sim().Now()
			if g.anomaliesC != nil {
				g.anomaliesC[core].Inc()
			}
			g.cfg.Telemetry.Events().Emit("guard_hw_anomaly", map[string]any{
				"core": core, "deficit_mv": deficit, "ratio": int(ratio),
				"offset_mv": offsetMV,
			})
		}
		return
	}
	g.deficitRuns[core] = 0
}

// WorstCaseTurnaround bounds the window between entering an unsafe state
// and the voltage regulator completing the forced recovery: one full poll
// period (detection latency) plus the MSR write and regulator travel from
// the deepest characterized offset back to the safe offset.
//
// Section 5 motivates the microcode/clamp variants by driving exactly this
// number to (near) zero.
func (g *Guard) WorstCaseTurnaround(vrCommandLatency sim.Duration, slewMVPerUS float64) sim.Duration {
	depth := float64(g.cfg.SafeOffsetMV - g.unsafe.FloorMV) // mV to travel
	if depth < 0 {
		depth = -depth
	}
	slew := sim.Duration(depth / slewMVPerUS * float64(sim.Microsecond))
	return g.cfg.PollPeriod + vrCommandLatency + slew
}
