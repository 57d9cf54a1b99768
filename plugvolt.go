// Package plugvolt is the public API of the "Plug Your Volt" (DAC 2024)
// reproduction: a simulated Intel DVFS platform, the paper's safe/unsafe
// state characterization (Algorithm 2), the polling countermeasure kernel
// module (Algorithm 3), the maximal-safe-state hardware variants (Sec. 5),
// the prior-work baselines, and the published attacks to evaluate them all
// against.
//
// Typical use:
//
//	sys, _ := plugvolt.NewSystem("skylake", 42)
//	grid, _ := sys.Characterize(plugvolt.QuickSweep())
//	guard, _ := sys.DeployGuard(grid)
//	res, _ := plugvolt.NewPlundervolt(7).Run(sys.Env(), guard.Name())
//	fmt.Println(res) // DEFEATED
//
// The heavy lifting lives in the internal packages; this package wires them
// together and re-exports the vocabulary types.
package plugvolt

import (
	"fmt"
	"io"

	"plugvolt/internal/attack"
	"plugvolt/internal/core"
	"plugvolt/internal/cpu"
	"plugvolt/internal/defense"
	"plugvolt/internal/flight"
	"plugvolt/internal/kernel"
	"plugvolt/internal/models"
	"plugvolt/internal/msr"
	"plugvolt/internal/pstate"
	"plugvolt/internal/sgx"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
)

// Re-exported vocabulary types. Aliases keep the internal packages as the
// single source of truth while letting downstream code name everything
// through this package.
type (
	// Grid is a full safe/unsafe characterization (Figs. 2-4 in data form).
	Grid = core.Grid
	// UnsafeSet is the compiled boundary the guard polls against.
	UnsafeSet = core.UnsafeSet
	// Guard is the Algorithm 3 polling countermeasure.
	Guard = core.Guard
	// GuardConfig tunes the polling countermeasure.
	GuardConfig = core.GuardConfig
	// CharacterizerConfig tunes the Algorithm 2 sweep.
	CharacterizerConfig = core.CharacterizerConfig
	// Countermeasure is any deployable defense.
	Countermeasure = defense.Countermeasure
	// Spec describes a CPU model.
	Spec = models.Spec
)

// Attack and defense constructors re-exported for discoverability.
var (
	// NewPlundervolt builds the RSA-CRT key-extraction campaign.
	NewPlundervolt = attack.DefaultPlundervolt
	// DefaultGuardConfig is the paper-faithful polling configuration.
	DefaultGuardConfig = core.DefaultGuardConfig
)

// Models lists the supported CPU model names.
func Models() []string { return []string{"skylake", "kabylaker", "cometlake"} }

// System is a ready-to-experiment machine: simulated CPU, kernel, SGX
// registry and cpufreq stack.
type System struct {
	Platform *cpu.Platform
	Kernel   *kernel.Kernel
	Registry *sgx.Registry
	CPUFreq  *pstate.Manager
	// Telemetry is the system-wide metrics registry and event journal,
	// clocked by the system simulator. Always non-nil after NewSystem; the
	// guard, kernel, attacks and characterizer publish into it by default.
	Telemetry *telemetry.Set
	// Flight is the optional flight recorder (nil until
	// AttachFlightRecorder): the continuous pre-trigger state ring behind
	// incident bundles.
	Flight *flight.Recorder
}

// NewSystem boots a simulated machine of the named model ("skylake",
// "kabylaker" or "cometlake"). The seed drives every stochastic element;
// identical seeds replay identical experiments.
func NewSystem(model string, seed int64) (*System, error) {
	spec, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	return NewSystemFromSpec(spec, seed)
}

// NewSystemFromSpec boots a machine from an existing Spec. Systems built
// from the same *Spec share its read-only derived cache — the validated
// timing-circuit template (cloned per core via timing.Clone/Prepare), the
// frequency table and the nominal-voltage table — so a caller booting many
// machines of one model (the fleet engine) pays the model preparation once
// instead of per machine.
func NewSystemFromSpec(spec *Spec, seed int64) (*System, error) {
	p, err := cpu.NewPlatform(spec, seed)
	if err != nil {
		return nil, err
	}
	mgr, err := pstate.NewManager(p.Sim, p, nil)
	if err != nil {
		return nil, err
	}
	sys := &System{
		Platform:  p,
		Kernel:    kernel.New(p.Sim, p),
		Registry:  sgx.NewRegistry(p.Sim),
		CPUFreq:   mgr,
		Telemetry: telemetry.NewSet(p.Sim.Now, telemetry.DefaultJournalCap, seed),
	}
	sys.Kernel.SetTelemetry(sys.Telemetry)
	// Kernel time charges are priced in watts at the victim core's commanded
	// operating point, so every stolen slice also books joules and the
	// energy ledgers decompose by CostKind exactly like stolen time.
	sys.Kernel.SetEnergyPrice(p.Energy.PriceW)
	// The span tracer observes every OC-mailbox write at the register file;
	// the platform keeps it attached across crash reboots.
	p.SetSpanTracer(sys.Telemetry.Spans())
	// Attestation reports carry the hyperthreading status (the precedent
	// the paper cites for attesting software features); derive it from the
	// model's SMT topology.
	if topo, err := p.Topology(); err == nil {
		sys.Registry.Features.HyperThreadingEnabled = topo.SMT() > 1
	}
	return sys, nil
}

// Env packages the system for attack/defense deployment.
func (s *System) Env() *defense.Env {
	return &defense.Env{Platform: s.Platform, Kernel: s.Kernel,
		Registry: s.Registry, Telemetry: s.Telemetry, Flight: s.Flight}
}

// AttachFlightRecorder creates the system's flight recorder (ring capacity
// and post-trigger window; <= 0 selects flight.DefaultCap/DefaultWindow) and
// wires it into every observation point: mailbox writes at each core's MSR
// file, P-state retargets, energy-segment boundaries, and — through Env()
// and GuardConfig defaulting — attack triggers and guard polls. Idempotent
// per system: a second call replaces the recorder.
func (s *System) AttachFlightRecorder(ringCap, window int) *flight.Recorder {
	rec := flight.NewRecorder(s.Platform.Sim.Now, ringCap, window,
		s.Platform.Spec.Codename, s.Platform.Seed())
	s.Flight = rec
	s.Platform.SetFlightRecorder(rec)
	return rec
}

// CollectTelemetry publishes the pull-style state — kernel CPU-time
// accounting, MSR write-hook statistics, platform reboots — into the
// system's metrics registry. Counters and journal events accumulate live;
// call this right before snapshotting or exporting so the gauges reflect
// the moment of export.
func (s *System) CollectTelemetry() {
	reg := s.Telemetry.Registry()
	s.Kernel.Collect(reg)
	for i := 0; i < s.Platform.NumCores(); i++ {
		st := s.Platform.MSRFile(i).WriteHookStats(msr.OCMailbox)
		lbl := telemetry.Labels{"core": fmt.Sprintf("%d", i)}
		reg.Gauge("msr_write_hook_hits", "OC-mailbox write-hook invocations", lbl).Set(float64(st.Hits))
		reg.Gauge("msr_write_hook_rejects", "OC-mailbox writes rejected by a hook", lbl).Set(float64(st.Rejects))
		reg.Gauge("msr_write_hook_rewrites", "OC-mailbox writes rewritten by a hook", lbl).Set(float64(st.Rewrites))
	}
	reg.Gauge("platform_reboots", "machine crash/reboot count", nil).Set(float64(s.Platform.Reboots))
	// Read here rather than counted per drop, which would put a registry
	// update on the instrumented poll path once the tracer is full.
	reg.Gauge("telemetry_spans_dropped_total",
		"spans rejected after the tracer's cap was reached (drop-newest policy)", nil).
		Set(float64(s.Telemetry.Spans().Dropped()))
	if tr := s.Platform.Energy; tr != nil {
		for i := 0; i < s.Platform.NumCores(); i++ {
			gov := "none"
			if s.CPUFreq != nil {
				if pol, err := s.CPUFreq.Policy(i); err == nil && pol.Governor != "" {
					gov = pol.Governor
				}
			}
			lbl := telemetry.Labels{"core": fmt.Sprintf("%d", i), "governor": gov}
			reg.Gauge("power_core_energy_joules",
				"whole-core integrated energy (dynamic CV²f + leakage) over virtual time, labeled by the core's cpufreq governor", lbl).
				Set(tr.CoreEnergyJ(i))
		}
		reg.Gauge("power_package_energy_joules",
			"integrated package energy: all core planes plus constant uncore draw (the PKG RAPL quantity)", nil).
			Set(tr.PackageEnergyJ())
	}
	if s.Flight != nil {
		st := s.Flight.Stats()
		reg.Gauge("flight_records_total", "flight-recorder ring appends", nil).Set(float64(st.Records))
		reg.Gauge("flight_overwrites_total", "flight records evicted by ring overwrite (oldest-first)", nil).Set(float64(st.Overwrites))
		reg.Gauge("flight_triggers_total", "incident triggers fired into the flight recorder", nil).Set(float64(st.Triggers))
		reg.Gauge("flight_captures_total", "incident bundles sealed by the flight recorder", nil).Set(float64(st.Captures))
		reg.Gauge("flight_bundles_dropped_total", "sealed bundles discarded past the retention cap", nil).Set(float64(st.BundlesDropped))
	}
}

// SetTelemetry replaces the system's telemetry set and rewires every
// component holding a reference to it. Tools that boot several systems can
// point them all at one shared set so counters accumulate across runs (the
// clock must then be managed by the caller).
func (s *System) SetTelemetry(t *telemetry.Set) {
	s.Telemetry = t
	s.Kernel.SetTelemetry(t)
	s.Platform.SetSpanTracer(t.Spans())
}

// DumpTelemetry collects pull-style state and writes the Prometheus
// exposition and/or the JSONL event journal to the given paths. An empty
// path skips that output; "-" writes to stdout.
func (s *System) DumpTelemetry(metricsPath, eventsPath string, stdout io.Writer) error {
	if metricsPath == "" && eventsPath == "" {
		return nil
	}
	s.CollectTelemetry()
	if metricsPath != "" {
		if err := telemetry.WriteOut(metricsPath, stdout, s.Telemetry.Registry().Snapshot().WritePrometheus); err != nil {
			return err
		}
	}
	if eventsPath != "" {
		return telemetry.WriteOut(eventsPath, stdout, s.Telemetry.Events().WriteJSONL)
	}
	return nil
}

// PaperSweep returns the paper's full Algorithm 2 configuration: every
// table frequency at 0.1 GHz resolution, offsets -1..-300 mV in 1 mV steps,
// one million imuls per point.
func PaperSweep() CharacterizerConfig {
	return core.DefaultCharacterizerConfig()
}

// QuickSweep returns a coarser sweep (5 mV steps, 200k imuls, floor
// -350 mV) that preserves the published shape at a fraction of the cost —
// the default for examples and tests.
func QuickSweep() CharacterizerConfig {
	cfg := core.DefaultCharacterizerConfig()
	cfg.Iterations = 200_000
	cfg.OffsetStartMV = -5
	cfg.OffsetStepMV = -5
	cfg.OffsetEndMV = -350
	return cfg
}

// Characterize runs the Algorithm 2 sweep on this system using the sharded
// parallel engine: the frequency axis is partitioned across cfg.Workers
// goroutines (default GOMAXPROCS), each with one private platform that it
// resets to seed^freqKHz before every row it sweeps. Results are
// bit-for-bit identical for any worker count and leave s.Platform
// untouched.
func (s *System) Characterize(cfg CharacterizerConfig) (*Grid, error) {
	if cfg.Telemetry == nil {
		cfg.Telemetry = s.Telemetry
	}
	sc, err := core.NewShardedCharacterizer(s.Platform.Spec, s.Platform.Seed(), cfg)
	if err != nil {
		return nil, err
	}
	return sc.Run()
}

// DeployGuard characterizes nothing — it installs the polling defense built
// from an existing grid, with the default configuration.
func (s *System) DeployGuard(grid *Grid) (*defense.Polling, error) {
	return s.DeployGuardConfig(grid, core.DefaultGuardConfig())
}

// DeployGuardConfig installs the polling defense with a custom config.
func (s *System) DeployGuardConfig(grid *Grid, cfg GuardConfig) (*defense.Polling, error) {
	if grid == nil {
		return nil, fmt.Errorf("plugvolt: nil grid")
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = s.Telemetry
	}
	if cfg.Flight == nil {
		cfg.Flight = s.Flight
	}
	pol, err := defense.NewPolling(grid.UnsafeSet(), s.Platform.Spec.BusMHz, cfg)
	if err != nil {
		return nil, err
	}
	if err := pol.Install(s.Env()); err != nil {
		return nil, err
	}
	return pol, nil
}

// Defenses instantiates the full countermeasure lineup for a characterized
// system (experiment E2): none, access control, polling, microcode
// write-ignore and the hardware clamp. The polling defense is returned
// uninstalled; install/uninstall via the Countermeasure interface.
func (s *System) Defenses(grid *Grid) ([]Countermeasure, error) {
	if grid == nil {
		return nil, fmt.Errorf("plugvolt: nil grid")
	}
	gcfg := core.DefaultGuardConfig()
	gcfg.Telemetry = s.Telemetry
	gcfg.Flight = s.Flight
	pol, err := defense.NewPolling(grid.UnsafeSet(), s.Platform.Spec.BusMHz, gcfg)
	if err != nil {
		return nil, err
	}
	// The hardware variants clamp to the maximal safe state with a 20 mV
	// statistical guard band: the measured onset is where faults become
	// *observable* in 200k-1M instructions, and states slightly shallower
	// still fault at minute rates a patient attacker can farm (the same
	// tail the polling guard's MarginMV covers).
	msv := grid.MaximalSafeOffsetMV(20)
	return []Countermeasure{
		defense.None{},
		&defense.AccessControl{},
		pol,
		&defense.Microcode{MaxSafeOffsetMV: msv},
		&defense.ClampMSR{LimitMV: msv},
	}, nil
}

// RunFor advances the system's virtual clock (convenience wrapper).
func (s *System) RunFor(d sim.Duration) { s.Platform.Sim.RunFor(d) }
