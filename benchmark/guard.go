package main

import (
	"fmt"
	"time"

	"plugvolt"
	"plugvolt/internal/core"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
	"plugvolt/internal/telemetry/span"
)

// pollBlock is how many guard poll periods one timed block runs.
const pollBlock = 2000

// guard-steady is the paper's 0.28% path and ROADMAP's poll target: two
// booted Sky Lake machines in benign steady state, timed in alternating
// blocks of poll periods. One is bare (telemetry off, no flight recorder);
// the other carries the instrumentation NewSystem attaches by default plus
// a flight recorder. Only sim, kernel, msr, the guard decision and the
// instrumentation sinks run.
type guardRun struct {
	seed  int64
	grid  *plugvolt.Grid
	bare  *guardedSystem
	instr *guardedSystem
	ops   int
}

// guardedSystem is a machine running the guard.
type guardedSystem struct {
	sys    *plugvolt.System
	guard  *core.Guard
	period sim.Duration
}

func setupGuard(env runEnv) (instance, error) {
	sys, err := plugvolt.NewSystem("skylake", env.seed)
	if err != nil {
		return nil, err
	}
	grid, err := sys.Characterize(plugvolt.QuickSweep())
	if err != nil {
		return nil, err
	}
	g := &guardRun{seed: env.seed, grid: grid}
	if g.bare, err = g.boot(func(sys *plugvolt.System) { sys.SetTelemetry(&telemetry.Set{}) }); err != nil {
		return nil, err
	}
	if g.instr, err = g.boot(func(sys *plugvolt.System) { sys.AttachFlightRecorder(0, 0) }); err != nil {
		return nil, err
	}
	return g, nil
}

// boot brings up a guarded Sky Lake machine whose instrumentation attach
// sets, and runs it until the event journal, the span buffer and the flight
// ring are full, so blocks time the steady state a long deployment sits in.
func (g *guardRun) boot(attach func(*plugvolt.System)) (*guardedSystem, error) {
	sys, err := plugvolt.NewSystem("skylake", g.seed)
	if err != nil {
		return nil, err
	}
	attach(sys)
	pol, err := sys.DeployGuard(g.grid)
	if err != nil {
		return nil, err
	}
	journal, spans := sys.Telemetry.Events(), sys.Telemetry.Spans()
	for i := 0; ; i++ {
		sys.RunFor(100 * sim.Millisecond)
		if (journal == nil || journal.Full()) && (spans == nil || spans.Dropped() > 0) &&
			(sys.Flight == nil || sys.Flight.Stats().Overwrites > 0) {
			break
		}
		if i == 200 {
			return nil, fmt.Errorf("guard-steady: instrumentation buffers never filled during warm-up")
		}
	}
	return &guardedSystem{sys: sys, guard: pol.Guard, period: plugvolt.DefaultGuardConfig().PollPeriod}, nil
}

// blockOut is the simulated outcome of one block.
type blockOut struct {
	Checks, Interventions uint64
	Stolen, Virtual       sim.Duration
	Events                uint64
}

// block runs n poll periods and returns their host time and outcome. The
// guard must poll all four cores every period and never intervene.
func (gs *guardedSystem) block(n int) (time.Duration, blockOut, error) {
	p := gs.sys.Platform
	c0, i0 := gs.guard.Checks, gs.guard.Interventions
	st0, f0, v0 := gs.sys.Kernel.StolenTime(0), p.Sim.Fired(), p.Sim.Now()
	start := time.Now()
	for i := 0; i < n; i++ {
		gs.sys.RunFor(gs.period)
	}
	el := time.Since(start)
	out := blockOut{
		Checks: gs.guard.Checks - c0, Interventions: gs.guard.Interventions - i0,
		Stolen: gs.sys.Kernel.StolenTime(0) - st0, Virtual: p.Sim.Now() - v0, Events: p.Sim.Fired() - f0,
	}
	want := uint64(p.NumCores() * n)
	if out.Checks != want || out.Interventions != 0 {
		return el, out, fmt.Errorf("guard-steady: %d periods: %d checks (want %d), %d interventions (want 0)",
			n, out.Checks, want, out.Interventions)
	}
	return el, out, nil
}

func (g *guardRun) reference() error { return nil }

// op times one block on each machine, alternating which goes first.
func (g *guardRun) op(tr *tracer, rec *recorder) (string, error) {
	type leg struct {
		name string
		gs   *guardedSystem
	}
	legs := []leg{{"bare", g.bare}, {"instrumented", g.instr}}
	if g.ops%2 == 1 {
		legs[0], legs[1] = legs[1], legs[0]
	}
	g.ops++
	parts := map[string][]byte{}
	for _, l := range legs {
		var el time.Duration
		var out blockOut
		err := tr.do("sim.poll_block."+l.name, func() (err error) {
			el, out, err = l.gs.block(pollBlock)
			return err
		})
		if err != nil {
			return "", err
		}
		if l.name == "bare" {
			rec.add("poll_ns", float64(el)/pollBlock)
			rec.add("guard_overhead_pct", 100*float64(out.Stolen)/float64(out.Virtual))
			rec.add("sim.events_per_period", float64(out.Events)/pollBlock)
			rec.add("kernel.stolen_ns_per_period", float64(out.Stolen)/float64(sim.Nanosecond)/pollBlock)
		} else {
			rec.add("poll_instrumented_ns", float64(el)/pollBlock)
		}
		parts[l.name] = []byte(fmt.Sprintf("%+v", out))
	}
	return digestOf(parts), nil
}

// layers times machines that each carry exactly one instrumentation sink,
// in blocks alternating with the bare machine; a sink's cost is its poll
// time minus poll_ns.
func (g *guardRun) layers(tp *tracePass) (map[string]float64, error) {
	only := func(set func(now telemetry.Clock) *telemetry.Set) func(*plugvolt.System) {
		return func(sys *plugvolt.System) { sys.SetTelemetry(set(sys.Platform.Sim.Now)) }
	}
	sinks := []struct {
		metric string
		attach func(*plugvolt.System)
	}{
		{"telemetry.registry_poll_ns", only(func(now telemetry.Clock) *telemetry.Set {
			return &telemetry.Set{Reg: telemetry.NewRegistry(now)}
		})},
		{"telemetry.journal_poll_ns", only(func(now telemetry.Clock) *telemetry.Set {
			return &telemetry.Set{Journal: telemetry.NewJournal(now, telemetry.DefaultJournalCap)}
		})},
		{"span.poll_ns", only(func(now telemetry.Clock) *telemetry.Set {
			return &telemetry.Set{Trace: span.NewTracer(span.Clock(now), g.seed, span.DefaultCap)}
		})},
		{"flight.poll_ns", func(sys *plugvolt.System) {
			sys.SetTelemetry(&telemetry.Set{})
			sys.AttachFlightRecorder(0, 0)
		}},
	}
	vals := map[string]float64{}
	for _, s := range sinks {
		gs, err := g.boot(s.attach)
		if err != nil {
			return vals, err
		}
		var samples []float64
		for i := 0; i < 10; i++ {
			el, _, err := gs.block(pollBlock)
			if err != nil {
				return vals, err
			}
			if _, _, err := g.bare.block(pollBlock); err != nil {
				return vals, err
			}
			samples = append(samples, float64(el)/pollBlock)
		}
		vals[s.metric] = summarize(samples).Median
	}
	return vals, nil
}
