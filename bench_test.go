// Benchmarks regenerating every table and figure in the paper's evaluation,
// one per artifact (see DESIGN.md §4 for the experiment index):
//
//	T1  BenchmarkTable1MailboxCodec        MSR 0x150 bit layout
//	F1  BenchmarkFig1TimingModel           Eq. 1 slack interplay
//	F2  BenchmarkFig2SkyLakeCharacterization
//	F3  BenchmarkFig3KabyLakeRCharacterization
//	F4  BenchmarkFig4CometLakeCharacterization
//	T2  BenchmarkTable2SpecOverhead        SPEC2017 overhead
//	E1  BenchmarkE1GuardEffectiveness      attacks vs polling guard
//	E2  BenchmarkE2DefenseMatrix           defense property matrix
//	E3  BenchmarkE3Turnaround              turnaround by deployment level
//
// plus ablations over the design choices DESIGN.md calls out (poll period,
// guard margin, safe-offset policy).
package plugvolt_test

import (
	"bytes"
	"fmt"
	"testing"

	"plugvolt"
	"plugvolt/internal/attack"
	"plugvolt/internal/core"
	"plugvolt/internal/fleet"
	"plugvolt/internal/flight"
	"plugvolt/internal/models"
	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
	"plugvolt/internal/spec"
	"plugvolt/internal/telemetry"
	"plugvolt/internal/telemetry/span"
	"plugvolt/internal/trace"
)

// benchSink defeats dead-code elimination in the decision-path benchmarks.
var benchSink int

// T1 — Table 1: the OC-mailbox codec (Algorithm 1 and its inverse).
func BenchmarkTable1MailboxCodec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := msr.EncodeVoltageOffset(-(i%300)-1, msr.Plane(i%5))
		d := msr.DecodeVoltageOffset(v)
		if !d.Busy {
			b.Fatal("busy bit lost")
		}
	}
}

// F1 — Fig. 1: evaluate the launch/capture timing relation across the
// operating space of the Sky Lake model's imul path.
func BenchmarkFig1TimingModel(b *testing.B) {
	s, err := models.SkyLake()
	if err != nil {
		b.Fatal(err)
	}
	circ, err := s.Circuit()
	if err != nil {
		b.Fatal(err)
	}
	p, _ := circ.PathByName(models.PathIMul)
	b.ResetTimer()
	unsafePoints := 0
	for i := 0; i < b.N; i++ {
		f := 0.8 + float64(i%29)*0.1
		v := 0.45 + float64(i%80)*0.01
		a := circ.Analyze(p, f, v)
		if !a.Safe() {
			unsafePoints++
		}
	}
	b.ReportMetric(float64(unsafePoints)/float64(b.N), "unsafe-frac")
}

// characterize runs the standard quick sweep for a model.
func characterize(tb testing.TB, model string, seed int64) (*plugvolt.System, *plugvolt.Grid) {
	tb.Helper()
	sys, err := plugvolt.NewSystem(model, seed)
	if err != nil {
		tb.Fatal(err)
	}
	grid, err := sys.Characterize(plugvolt.QuickSweep())
	if err != nil {
		tb.Fatal(err)
	}
	return sys, grid
}

// benchCharacterization is the common body of F2/F3/F4.
func benchCharacterization(b *testing.B, model string) {
	for i := 0; i < b.N; i++ {
		_, grid := characterize(b, model, 42)
		if len(grid.UnsafeSet().OnsetMV) == 0 {
			b.Fatal("no unsafe regions found")
		}
		b.ReportMetric(float64(grid.MaximalSafeOffsetMV(0)), "maximal-safe-mV")
		b.ReportMetric(float64(grid.Reboots), "reboots")
	}
}

// F2 — Fig. 2: Sky Lake safe/unsafe characterization.
func BenchmarkFig2SkyLakeCharacterization(b *testing.B) { benchCharacterization(b, "skylake") }

// F3 — Fig. 3: Kaby Lake R safe/unsafe characterization.
func BenchmarkFig3KabyLakeRCharacterization(b *testing.B) { benchCharacterization(b, "kabylaker") }

// F4 — Fig. 4: Comet Lake safe/unsafe characterization.
func BenchmarkFig4CometLakeCharacterization(b *testing.B) { benchCharacterization(b, "cometlake") }

// Scaling — the sharded engine across worker counts on the Comet Lake
// model (the widest frequency table: 46 rows) at the paper's 1 mV offset
// resolution, where row work dominates per-row platform construction
// (~230us/row vs ~28us platform build). The grids are bit-for-bit
// identical at every worker count; only wall-clock should move across the
// ns/op series. Speedup is bounded by GOMAXPROCS: on a single-CPU host the
// series is flat-to-slightly-worse (workers time-slice one core and pay
// channel coordination); the determinism assertions below hold either
// way.
func BenchmarkCharacterizeWorkers(b *testing.B) {
	var refJSON []byte
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := plugvolt.NewSystem("cometlake", 42)
				if err != nil {
					b.Fatal(err)
				}
				cfg := plugvolt.PaperSweep()
				cfg.Workers = workers
				grid, err := sys.Characterize(cfg)
				if err != nil {
					b.Fatal(err)
				}
				js, err := grid.JSON()
				if err != nil {
					b.Fatal(err)
				}
				if refJSON == nil {
					refJSON = js
				} else if !bytes.Equal(refJSON, js) {
					b.Fatalf("workers=%d diverged from reference grid", workers)
				}
				b.ReportMetric(float64(grid.Reboots), "reboots")
			}
		})
	}
}

// T2 — Table 2: SPEC2017 overhead of the polling module on Comet Lake.
func BenchmarkTable2SpecOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, grid := characterize(b, "cometlake", 2017)
		guard, err := core.NewGuard(grid.UnsafeSet(), sys.Platform.Spec.BusMHz, core.DefaultGuardConfig())
		if err != nil {
			b.Fatal(err)
		}
		h, err := spec.NewHarness(sys.Platform, sys.Kernel, spec.DefaultHarnessConfig())
		if err != nil {
			b.Fatal(err)
		}
		loadGuard := func(on bool) error {
			loaded := sys.Kernel.Loaded(core.ModuleName)
			switch {
			case on && !loaded:
				return sys.Kernel.Load(guard.Module())
			case !on && loaded:
				return sys.Kernel.Unload(core.ModuleName)
			}
			return nil
		}
		tab, err := h.MeasureTable(loadGuard, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != 23 {
			b.Fatalf("rows %d", len(tab.Rows))
		}
		b.ReportMetric(tab.MeanAbsPct, "mean-abs-slowdown-%")
		b.ReportMetric(tab.DirectOverheadPct, "direct-overhead-%")
	}
}

// E1 — guard effectiveness: the three attacks against the polling module.
func BenchmarkE1GuardEffectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, grid := characterize(b, "skylake", 42)
		guard, err := sys.DeployGuard(grid)
		if err != nil {
			b.Fatal(err)
		}
		faults := 0
		for _, atk := range []attack.Attack{
			attack.DefaultPlundervolt(42),
			attack.DefaultVoltJockey(),
			attack.DefaultV0LTpwn(),
		} {
			res, err := atk.Run(sys.Env(), guard.Name())
			if err != nil {
				b.Fatal(err)
			}
			if res.Succeeded {
				b.Fatalf("%s beat the guard", res.Attack)
			}
			faults += res.FaultsObserved
		}
		b.ReportMetric(float64(faults), "leaked-faults")
		b.ReportMetric(float64(guard.Guard.Interventions), "interventions")
	}
}

// E2 — defense matrix: properties plus live benign-DVFS verification.
func BenchmarkE2DefenseMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, grid := characterize(b, "skylake", 42)
		defs, err := sys.Defenses(grid)
		if err != nil {
			b.Fatal(err)
		}
		benignOK := 0
		for _, cm := range defs {
			if cm.AllowsBenignDVFS() {
				benignOK++
			}
		}
		b.ReportMetric(float64(benignOK), "benign-dvfs-defenses")
		b.ReportMetric(float64(len(defs)), "defenses")
	}
}

// E3 — turnaround: worst-case unsafe dwell per deployment level, swept over
// poll periods (the kernel module's tunable) against the zero-window
// microcode/clamp variants.
func BenchmarkE3Turnaround(b *testing.B) {
	sys, grid := characterize(b, "skylake", 42)
	unsafe := grid.UnsafeSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worst := sim.Duration(0)
		for _, period := range []sim.Duration{50 * sim.Microsecond, 100 * sim.Microsecond, 500 * sim.Microsecond, sim.Millisecond} {
			cfg := core.DefaultGuardConfig()
			cfg.PollPeriod = period
			g, err := core.NewGuard(unsafe, sys.Platform.Spec.BusMHz, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if ta := g.WorstCaseTurnaround(20*sim.Microsecond, 0.5); ta > worst {
				worst = ta
			}
		}
		b.ReportMetric(float64(worst)/float64(sim.Microsecond), "worst-turnaround-us")
	}
}

// Ablation: poll period vs protection and overhead. Sweeps the guard's
// period against a live attacker and reports leaked faults per period.
func BenchmarkAblationPollPeriod(b *testing.B) {
	for _, period := range []sim.Duration{50 * sim.Microsecond, 100 * sim.Microsecond, 250 * sim.Microsecond, 1 * sim.Millisecond} {
		period := period
		b.Run(period.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, grid := characterize(b, "skylake", 42)
				cfg := core.DefaultGuardConfig()
				cfg.PollPeriod = period
				guard, err := sys.DeployGuardConfig(grid, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := attack.DefaultV0LTpwn().Run(sys.Env(), guard.Name())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.FaultsObserved), "leaked-faults")
				b.ReportMetric(float64(guard.Guard.Interventions), "interventions")
			}
		})
	}
}

// Ablation: guard margin — how much conservative widening of the unsafe
// boundary the statistical onset needs (DESIGN.md calls this out; a zero
// margin lets a patient attacker farm rare faults just above the measured
// boundary).
func BenchmarkAblationGuardMargin(b *testing.B) {
	for _, margin := range []int{0, 5, 15, 30} {
		margin := margin
		b.Run(fmt.Sprintf("margin%dmV", margin), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, grid := characterize(b, "skylake", 42)
				cfg := core.DefaultGuardConfig()
				cfg.MarginMV = margin
				guard, err := sys.DeployGuardConfig(grid, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := attack.DefaultPlundervolt(42).Run(sys.Env(), guard.Name())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.FaultsObserved), "leaked-faults")
				succeeded := 0.0
				if res.Succeeded {
					succeeded = 1
				}
				b.ReportMetric(succeeded, "key-recovered")
				_ = guard
			}
		})
	}
}

// Ablation: safe-offset policy — restoring to 0 mV vs to the maximal safe
// state (the latter preserves benign undervolting through interventions).
func BenchmarkAblationSafeOffsetPolicy(b *testing.B) {
	for _, useMSV := range []bool{false, true} {
		useMSV := useMSV
		name := "restore-zero"
		if useMSV {
			name = "restore-maximal-safe"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, grid := characterize(b, "skylake", 42)
				cfg := core.DefaultGuardConfig()
				if useMSV {
					cfg.SafeOffsetMV = grid.MaximalSafeOffsetMV(20)
				}
				guard, err := sys.DeployGuardConfig(grid, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := attack.DefaultV0LTpwn().Run(sys.Env(), guard.Name())
				if err != nil {
					b.Fatal(err)
				}
				if res.Succeeded {
					b.Fatal("policy variant lost to the attack")
				}
				b.ReportMetric(float64(cfg.SafeOffsetMV), "safe-offset-mV")
			}
		})
	}
}

// E3-empirical — measured companion to BenchmarkE3Turnaround: record the
// victim rail during a guarded live attack and report the actual unsafe
// dwell of register and rail (the rail dwell is the paper's real safety
// criterion, and it measures zero).
func BenchmarkE3EmpiricalUnsafeDwell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, grid := characterize(b, "skylake", 42)
		unsafe := grid.UnsafeSet()
		if _, err := sys.DeployGuard(grid); err != nil {
			b.Fatal(err)
		}
		p := sys.Platform
		rec, err := trace.NewRecorder(p.Core(1), 5*sim.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		if err := rec.Start(p.Sim); err != nil {
			b.Fatal(err)
		}
		freq := p.FreqKHz(1)
		attacker := p.Sim.Every(537*sim.Microsecond, func() {
			_ = p.WriteOffsetViaMSR(1, unsafe.OnsetMV[freq]-60, msr.PlaneCore)
		})
		p.Sim.RunFor(25 * sim.Millisecond)
		attacker.Stop()
		rec.Stop()
		reg := rec.UnsafeRegisterDwell(unsafe)
		rail := rec.UnsafeRailDwell(unsafe, func(freqKHz int) float64 {
			return p.Spec.NominalMV(msr.KHzToRatio(freqKHz, p.Spec.BusMHz))
		})
		if rail.Total != 0 {
			b.Fatalf("rail unsafe for %v — guard lost the race", rail.Total)
		}
		b.ReportMetric(float64(reg.Longest)/float64(sim.Microsecond), "register-dwell-max-us")
		b.ReportMetric(rail.Fraction()*100, "rail-unsafe-%")
	}
}

// Hot path — the guard decision rewrite: the per-poll membership test,
// compiled from the map-backed UnsafeSet.Contains down to a dense 256-entry
// per-ratio LUT with the guard margin pre-folded. decision-map measures the
// replaced path exactly as the old pollOne ran it (RatioToKHz, map probe,
// neighbour scan on a miss); decision-lut measures the compiled path the
// guard runs now. Both evaluate the same 4096-membership (ratio, offset)
// stream per op, so their ns/op are directly comparable. The poll-*
// sub-benches then time the full steady-state poll loop end to end — one
// kthread tick (every core polled) per op, driven through the simulator the
// way a deployment drives it — with allocations reported: the poll path is
// allocation-free both with telemetry off and with full tracing on once the
// span buffer reaches its drop-newest steady state. For a same-host A/B of
// the poll path use `bash benchmark/run.sh --workload guard-steady` on both
// commits and `-compare OLD NEW`.
func BenchmarkGuardPollSteadyState(b *testing.B) {
	const decisionsPerOp = 4096
	sys, grid := characterize(b, "skylake", 42)
	unsafe := grid.UnsafeSet()
	bus := sys.Platform.Spec.BusMHz
	margin := core.DefaultGuardConfig().MarginMV
	lut, err := unsafe.Compile(bus, margin)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("decision-map", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			for j := 0; j < decisionsPerOp; j++ {
				ratio := uint8(j * 11)
				offset := -(j * 7 % 300)
				if unsafe.Contains(msr.RatioToKHz(ratio, bus), offset-margin) {
					sink++
				}
			}
		}
		benchSink += sink
	})

	b.Run("decision-lut", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			for j := 0; j < decisionsPerOp; j++ {
				ratio := uint8(j * 11)
				offset := -(j * 7 % 300)
				if lut.Unsafe(ratio, offset) {
					sink++
				}
			}
		}
		benchSink += sink
	})

	// pollSteadyState deploys the guard on a freshly characterized Sky Lake
	// machine and times one poll period per op. With tracing on, a live
	// registry, journal and span tracer are attached (small caps so warm-up
	// is cheap) and the run is warmed until both journal and span buffer sit
	// in their drop-newest regime — a long experiment's normal condition.
	pollSteadyState := func(b *testing.B, tracing, flightOn bool) {
		sys, grid := characterize(b, "skylake", 42)
		cfg := core.DefaultGuardConfig()
		if flightOn {
			// Recorder riding the hot path: the <5% regression budget on
			// this sub-bench vs poll-telemetry-off is the flight recorder's
			// performance contract.
			cfg.Flight = sys.AttachFlightRecorder(0, 0)
		}
		if tracing {
			tel := &telemetry.Set{
				Reg:     telemetry.NewRegistry(sys.Platform.Sim.Now),
				Journal: telemetry.NewJournal(sys.Platform.Sim.Now, 256),
				Trace:   span.NewTracer(span.Clock(sys.Platform.Sim.Now), 42, 1024),
			}
			sys.SetTelemetry(tel)
			cfg.Telemetry = tel
		} else {
			sys.SetTelemetry(&telemetry.Set{})
		}
		guard, err := core.NewGuard(grid.UnsafeSet(), sys.Platform.Spec.BusMHz, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Kernel.Load(guard.Module()); err != nil {
			b.Fatal(err)
		}
		if tracing {
			for i := 0; sys.Telemetry.Trace.Dropped() == 0 || !sys.Telemetry.Events().Full(); i++ {
				if i > 100 {
					b.Fatal("telemetry buffers never filled during warm-up")
				}
				sys.RunFor(50 * sim.Millisecond)
			}
		} else {
			sys.RunFor(sim.Millisecond)
		}
		checksBefore := guard.Checks
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.RunFor(cfg.PollPeriod)
		}
		b.StopTimer()
		if guard.Checks == checksBefore {
			b.Fatal("guard stopped polling")
		}
		if guard.Interventions != 0 {
			b.Fatal("benign steady state triggered interventions; wrong path measured")
		}
		b.ReportMetric(float64(guard.Checks-checksBefore)/float64(b.N), "polls/op")
	}

	b.Run("poll-telemetry-off", func(b *testing.B) { pollSteadyState(b, false, false) })
	b.Run("poll-tracing-on", func(b *testing.B) { pollSteadyState(b, true, false) })
	b.Run("poll-flight-on", func(b *testing.B) { pollSteadyState(b, false, true) })
}

// Flight recorder microbenchmarks. The append path is the one that rides
// every guard poll and mailbox write, so it must stay allocation-free and
// cheap (end to end, its cost per poll is flight.poll_ns in the
// guard-steady workload of `bash benchmark/run.sh -trace 1`);
// trigger/encode are rare (per incident) but bounded here so the capture
// path cannot quietly become a stall.
func BenchmarkFlightRecorder(b *testing.B) {
	b.Run("append", func(b *testing.B) {
		var now sim.Time
		rec := flight.NewRecorder(func() sim.Time { return now }, 4096, 64, "skylake", 42)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now = sim.Time(i)
			rec.GuardPoll(i&3, 32, -(i % 200), false)
		}
		if rec.Stats().Records != uint64(b.N) {
			b.Fatal("ring lost records")
		}
	})

	b.Run("trigger-capture", func(b *testing.B) {
		var now sim.Time
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rec := flight.NewRecorder(func() sim.Time { return now }, 1024, 32, "skylake", 42)
			for j := 0; j < 1024; j++ {
				now = sim.Time(j)
				rec.MailboxWrite(1, -100, 0, flight.OutcomeAccepted, uint64(j))
			}
			b.StartTimer()
			rec.Trigger(flight.CauseFault, 1, "bench")
			for j := 0; j < 32; j++ {
				rec.GuardPoll(1, 32, -100, false)
			}
			if len(rec.Bundles()) != 1 {
				b.Fatal("capture did not seal")
			}
		}
	})

	b.Run("encode", func(b *testing.B) {
		var now sim.Time
		rec := flight.NewRecorder(func() sim.Time { return now }, 1024, 8, "skylake", 42)
		for j := 0; j < 1024; j++ {
			now = sim.Time(j)
			rec.MailboxWrite(1, -100, 0, flight.OutcomeAccepted, uint64(j))
		}
		rec.Trigger(flight.CauseFault, 1, "bench")
		rec.Seal()
		bundle := rec.Bundles()[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc, err := bundle.Encode()
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(enc)
		}
	})
}

// Energy accounting — the joules/op regression axis: one guard poll period
// of guarded benign steady state per op, with the platform integrator's
// package energy and the kernel-attributed guard energy reported per op.
// Both are integrals over the virtual clock, so J/op is a property of the
// power model and the guard's duty cycle — not of the host: a change means
// the guard got electrically more expensive (more polls, costlier
// primitives, or a hotter commanded operating point), which no wall-clock
// metric would catch. TestEnergyPerPollPeriodExact pins one period exactly.
// The energy ledgers mutate only at event-driven instants and reads are
// pure, so metering here cannot perturb the ns/op axis.
func BenchmarkEnergyAccounting(b *testing.B) {
	sys, guard, period := guardedSteadyState(b)
	tr := sys.Platform.Energy
	b.ReportAllocs()
	b.ResetTimer()
	pkgBefore := tr.PackageEnergyJ()
	guardBefore := guardEnergyPJ(sys)
	for i := 0; i < b.N; i++ {
		sys.RunFor(period)
	}
	b.StopTimer()
	if guard.Interventions != 0 {
		b.Fatal("benign steady state triggered interventions; wrong path measured")
	}
	b.ReportMetric((tr.PackageEnergyJ()-pkgBefore)/float64(b.N), "J/op")
	b.ReportMetric(float64(guardEnergyPJ(sys)-guardBefore)*1e-12/float64(b.N), "guardJ/op")
}

// guardedSteadyState deploys the default guard on a quick-characterized Sky
// Lake (seed 42) with telemetry off and runs a 1 ms warm-up. It returns the
// system, the guard and the guard's poll period.
func guardedSteadyState(tb testing.TB) (*plugvolt.System, *core.Guard, sim.Duration) {
	tb.Helper()
	sys, grid := characterize(tb, "skylake", 42)
	sys.SetTelemetry(&telemetry.Set{})
	cfg := core.DefaultGuardConfig()
	guard, err := core.NewGuard(grid.UnsafeSet(), sys.Platform.Spec.BusMHz, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.Kernel.Load(guard.Module()); err != nil {
		tb.Fatal(err)
	}
	sys.RunFor(sim.Millisecond)
	return sys, guard, cfg.PollPeriod
}

// guardEnergyPJ is the kernel-attributed guard energy summed over all cores,
// in integer picojoules.
func guardEnergyPJ(sys *plugvolt.System) int64 {
	var pj int64
	for c := 0; c < sys.Platform.NumCores(); c++ {
		pj += sys.Kernel.EnergyPJ(c)
	}
	return pj
}

// Fleet throughput — the concurrent fleet-simulation engine: a mixed
// skylake/kabylaker/cometlake fleet, each machine characterized, guarded
// and attacked, simulated across the default worker pool. The aggregate is
// validated every op (the guard must hold fleet-wide); machines/s is the
// headline throughput metric.
func BenchmarkFleetThroughput(b *testing.B) {
	const machines = 4
	for i := 0; i < b.N; i++ {
		rep, err := fleet.RunStream(fleet.StreamConfig{Config: fleet.Config{Machines: machines, Seed: 42, Attack: "voltjockey"}})
		if err != nil {
			b.Fatal(err)
		}
		agg := rep.Aggregate
		if agg.Errors != 0 || agg.AttacksSucceeded != 0 {
			b.Fatalf("fleet aggregate %+v", agg)
		}
		if agg.GuardInterventions == 0 {
			b.Fatal("fleet guard never engaged")
		}
	}
	b.ReportMetric(float64(machines*b.N)/b.Elapsed().Seconds(), "machines/s")
}

// Fleet streaming — the O(batch) epoch engine: the same mixed fleet carried
// through epoch-sliced guard windows in bounded batches, with telemetry
// folded incrementally. machine-windows/s is the headline metric and
// heap-high-water-MB is the fleet memory assertion: it must scale with the
// batch, never with the fleet.
func BenchmarkFleetStreaming(b *testing.B) {
	const machines, epochs, batchSize = 12, 4, 3
	var highWater uint64
	for i := 0; i < b.N; i++ {
		cfg := fleet.StreamConfig{
			Config: fleet.Config{Machines: machines, Seed: 42, Attack: "none",
				Window: 2 * sim.Millisecond},
			Epochs: epochs,
			Batch:  batchSize,
			Progress: func(p fleet.Progress) {
				if p.HeapBytes > highWater {
					highWater = p.HeapBytes
				}
				if p.Resident > batchSize {
					b.Fatalf("resident %d exceeds batch %d", p.Resident, batchSize)
				}
			},
		}
		rep, err := fleet.RunStream(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Aggregate.Errors != 0 || rep.Aggregate.GuardChecks == 0 {
			b.Fatalf("fleet aggregate %+v", rep.Aggregate)
		}
	}
	b.ReportMetric(float64(machines*epochs*b.N)/b.Elapsed().Seconds(), "machine-windows/s")
	b.ReportMetric(float64(highWater)/(1<<20), "heap-high-water-MB")
}

// S6 — probe economics: the bisect characterization strategy vs the full
// sweep at the Fig. 2 resolution (identical grid, fewer measured probes),
// reported as probes/op. The counts are deterministic, so
// TestBisectProbeSavingsPaperConfig pins them exactly.
func BenchmarkBisectVsSweep(b *testing.B) {
	s, err := models.ByName("skylake")
	if err != nil {
		b.Fatal(err)
	}
	for _, strategy := range []string{core.StrategySweep, core.StrategyBisect} {
		b.Run(strategy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultCharacterizerConfig()
				cfg.Strategy = strategy
				cfg.Workers = 8
				sc, err := core.NewShardedCharacterizer(s, 42, cfg)
				if err != nil {
					b.Fatal(err)
				}
				grid, err := sc.Run()
				if err != nil {
					b.Fatal(err)
				}
				if len(grid.UnsafeSet().OnsetMV) == 0 {
					b.Fatal("no unsafe regions found")
				}
				stats := sc.Stats()
				if stats.FallbackRows != 0 {
					b.Fatalf("%d fallback rows", stats.FallbackRows)
				}
				b.ReportMetric(float64(stats.Probes), "probes/op")
			}
		})
	}
}

// S6 — the red-team annealer's time to first fault on an undefended
// machine: how many adaptive probes the attacker spends before landing a
// fault, the attacker-side cost a defense must inflate. The count is
// deterministic and pinned exactly by TestRedTeamProbesToFirstFaultSeed42.
func BenchmarkAnnealTimeToFault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := plugvolt.NewSystem("skylake", 42)
		if err != nil {
			b.Fatal(err)
		}
		res, err := attack.DefaultRedTeam(42).Run(sys.Env(), "none")
		if err != nil {
			b.Fatal(err)
		}
		if !res.Succeeded {
			b.Fatal("annealer exhausted its budget without a fault")
		}
		b.ReportMetric(float64(res.ProbesToFirstFault), "probes/op")
	}
}
