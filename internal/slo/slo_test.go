package slo

import (
	"reflect"
	"strings"
	"testing"

	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
	"plugvolt/internal/telemetry/span"
)

const pollPeriod = 100 * sim.Microsecond

// harness builds a tracer+journal pair on a hand-cranked virtual clock.
type harness struct {
	now sim.Time
	tr  *span.Tracer
	j   *telemetry.Journal
}

func newHarness() *harness {
	h := &harness{}
	clock := func() sim.Time { return h.now }
	h.tr = span.NewTracer(clock, 1, 0)
	h.tr.Keep()
	h.j = telemetry.NewJournal(clock, 256)
	return h
}

func (h *harness) watchdog(unsafe func(core, offsetMV int) bool) *Watchdog {
	return &Watchdog{Tracer: h.tr, Journal: h.j, Rules: DefaultRules(pollPeriod), Unsafe: unsafe}
}

// polls emits healthy guard_poll spans on the core every pollPeriod from
// start to end.
func (h *harness) polls(core int, start, end sim.Time) {
	for t := start; t < end; t += sim.Time(pollPeriod) {
		h.tr.Complete("guard", "guard_poll", t, 500*sim.Nanosecond,
			map[string]any{"core": core})
	}
}

// attackWrite emits an accepted foreign mailbox write.
func (h *harness) attackWrite(at sim.Time, core, offsetMV int) {
	h.now = at
	h.tr.Instant("msr/core0", "mailbox_write", map[string]any{
		"core": core, "offset_mv": offsetMV, "plane": 0, "outcome": "accepted"})
}

// intervention emits a guard_intervention span enclosing its corrective
// mailbox write, exactly as the guard's pollOne does.
func (h *harness) intervention(at sim.Time, core int) {
	h.now = at
	isp := h.tr.Start("guard", "guard_intervention", map[string]any{
		"core": core, "offset_mv": -200, "safe_mv": 0})
	h.tr.Instant("msr/core0", "mailbox_write", map[string]any{
		"core": core, "offset_mv": 0, "plane": 0, "outcome": "accepted"})
	isp.EndWithCost(300 * sim.Nanosecond)
}

func allUnsafe(core, offsetMV int) bool { return offsetMV <= -100 }

func TestCleanRunIsQuiet(t *testing.T) {
	h := newHarness()
	end := sim.Time(10 * sim.Millisecond)
	h.polls(0, 0, end)
	// One unsafe write closed well within the dwell budget.
	h.attackWrite(1*sim.Millisecond, 0, -200)
	h.intervention(1*sim.Millisecond+sim.Time(pollPeriod), 0)
	h.now = 1*sim.Millisecond + sim.Time(pollPeriod)
	h.j.Emit("attack_fault", map[string]any{"core": 0})

	rep := h.watchdog(allUnsafe).Evaluate(end)
	if !rep.OK() {
		t.Fatalf("clean run flagged:\n%s", rep.Summary())
	}
	if rep.Stats.Polls == 0 || rep.Stats.Interventions != 1 || rep.Stats.UnsafeWrites != 1 {
		t.Fatalf("stats wrong: %+v", rep.Stats)
	}
	if rep.Stats.GuardedWrites != 1 {
		t.Fatalf("guard's own write not attributed to the intervention: %+v", rep.Stats)
	}
	if rep.Stats.Faults != 1 {
		t.Fatalf("fault not counted: %+v", rep.Stats)
	}
	if !strings.Contains(rep.Summary(), "SLO OK") {
		t.Fatalf("summary: %s", rep.Summary())
	}
}

func TestStallIsFlagged(t *testing.T) {
	h := newHarness()
	end := sim.Time(10 * sim.Millisecond)
	h.polls(0, 0, 5*sim.Millisecond) // guard wedges halfway through

	rep := h.watchdog(allUnsafe).Evaluate(end)
	if rep.OK() {
		t.Fatalf("stall not flagged:\n%s", rep.Summary())
	}
	found := false
	for _, v := range rep.Violations {
		if v.Rule.Kind == KindMaxPollGap && v.Core == 0 {
			found = true
			if v.Measured < 5*sim.Millisecond {
				t.Fatalf("gap measured %v, want >= 5ms", sim.Time(v.Measured))
			}
		}
	}
	if !found {
		t.Fatalf("no max_poll_gap violation in:\n%s", rep.Summary())
	}
}

func TestUnclosedWindowAndLateIntervention(t *testing.T) {
	h := newHarness()
	end := sim.Time(10 * sim.Millisecond)
	h.polls(0, 0, end)
	// Write A: closed, but only after 5 poll periods — a dwell violation.
	h.attackWrite(1*sim.Millisecond, 0, -250)
	h.intervention(1*sim.Millisecond+5*sim.Time(pollPeriod), 0)
	// Write B: never closed — a closure violation.
	h.attackWrite(8*sim.Millisecond, 0, -250)

	rep := h.watchdog(allUnsafe).Evaluate(end)
	var kinds []Kind
	for _, v := range rep.Violations {
		kinds = append(kinds, v.Rule.Kind)
	}
	want := map[Kind]bool{KindMaxUnsafeDwell: false, KindInterventionClosure: false}
	for _, k := range kinds {
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, got := range want {
		if !got {
			t.Errorf("missing %s violation; got %v\n%s", k, kinds, rep.Summary())
		}
	}
	if rep.Stats.UnclosedWindows != 1 {
		t.Errorf("UnclosedWindows = %d, want 1", rep.Stats.UnclosedWindows)
	}
}

func TestSafeWritesIgnored(t *testing.T) {
	h := newHarness()
	end := sim.Time(2 * sim.Millisecond)
	h.polls(0, 0, end)
	h.attackWrite(1*sim.Millisecond, 0, -50) // shallow: Unsafe says safe
	rep := h.watchdog(allUnsafe).Evaluate(end)
	if !rep.OK() || rep.Stats.UnsafeWrites != 0 {
		t.Fatalf("safe write misclassified:\n%s", rep.Summary())
	}
}

func TestNilPredicateTreatsNegativeAsUnsafe(t *testing.T) {
	h := newHarness()
	end := sim.Time(2 * sim.Millisecond)
	h.polls(0, 0, end)
	h.attackWrite(1*sim.Millisecond, 0, -10)
	rep := h.watchdog(nil).Evaluate(end)
	if rep.Stats.UnsafeWrites != 1 {
		t.Fatalf("nil predicate should flag negative offsets: %+v", rep.Stats)
	}
}

func TestFaultOutsideWindowFlagged(t *testing.T) {
	h := newHarness()
	end := sim.Time(2 * sim.Millisecond)
	h.polls(0, 0, end)
	h.now = 1 * sim.Millisecond
	h.j.Emit("attack_fault", map[string]any{"core": 0}) // no unsafe write anywhere
	rep := h.watchdog(allUnsafe).Evaluate(end)
	found := false
	for _, v := range rep.Violations {
		if v.Rule.Kind == KindInterventionClosure && strings.Contains(v.Detail, "out-of-band") {
			found = true
		}
	}
	if !found {
		t.Fatalf("uncovered fault not flagged:\n%s", rep.Summary())
	}
}

func TestTruncatedBufferClampsWindow(t *testing.T) {
	h := newHarness()
	h.tr = span.NewTracer(func() sim.Time { return h.now }, 1, 8)
	h.tr.Keep()
	end := sim.Time(10 * sim.Millisecond)
	h.polls(0, 0, end) // 100 polls into an 8-span buffer: 92 dropped
	rep := h.watchdog(allUnsafe).Evaluate(end)
	if !rep.Truncated {
		t.Fatal("overflowed buffer not reported as truncated")
	}
	if rep.End != 7*sim.Time(pollPeriod) {
		t.Fatalf("window end %v, want clamp to last recorded poll", rep.End)
	}
	// The silence past the horizon is truncation, not a stall.
	if !rep.OK() {
		t.Fatalf("truncation misread as violation:\n%s", rep.Summary())
	}
	if !strings.Contains(rep.Summary(), "WARNING") {
		t.Fatalf("summary omits truncation warning:\n%s", rep.Summary())
	}
}

func TestEvaluateIsPure(t *testing.T) {
	h := newHarness()
	end := sim.Time(10 * sim.Millisecond)
	h.polls(0, 0, 3*sim.Millisecond)
	h.attackWrite(1*sim.Millisecond, 0, -250)
	wd := h.watchdog(allUnsafe)
	a := wd.Evaluate(end)
	b := wd.Evaluate(end)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Evaluate not pure:\n%s\nvs\n%s", a.Summary(), b.Summary())
	}
	if n := len(h.j.Events()); n != 0 {
		t.Fatalf("Evaluate wrote %d journal events", n)
	}
}

func TestEmitJournal(t *testing.T) {
	h := newHarness()
	end := sim.Time(10 * sim.Millisecond)
	h.polls(0, 0, 2*sim.Millisecond) // stall
	rep := h.watchdog(allUnsafe).Evaluate(end)
	rep.EmitJournal(h.j)
	if len(h.j.OfType("slo_violation")) == 0 {
		t.Fatal("no slo_violation events")
	}
	reports := h.j.OfType("slo_report")
	if len(reports) != 1 {
		t.Fatalf("slo_report events = %d, want 1", len(reports))
	}
	if ok, _ := reports[0].Fields["ok"].(bool); ok {
		t.Fatal("slo_report claims ok on a stalled run")
	}
}

func TestPollLatencyP99(t *testing.T) {
	h := newHarness()
	end := sim.Time(200 * sim.Microsecond)
	// 50 fast polls and one pathological 10us poll: nearest-rank p99 of 51
	// samples lands on the slow one.
	for i := 0; i < 50; i++ {
		h.tr.Complete("guard", "guard_poll", sim.Time(i)*sim.Time(sim.Microsecond),
			400*sim.Nanosecond, map[string]any{"core": 0})
	}
	h.tr.Complete("guard", "guard_poll", 50*sim.Time(sim.Microsecond),
		10*sim.Microsecond, map[string]any{"core": 0})
	wd := &Watchdog{Tracer: h.tr, Rules: []Rule{{Kind: KindPollLatencyP99, Limit: 2 * sim.Microsecond}}}
	rep := wd.Evaluate(end)
	if rep.OK() {
		t.Fatalf("slow p99 not flagged: p99=%v", sim.Time(rep.Stats.PollLatencyP99))
	}
	if rep.Stats.PollLatencyP99 != 10*sim.Microsecond {
		t.Fatalf("p99 = %v, want 10us", sim.Time(rep.Stats.PollLatencyP99))
	}
}

// TestUnpolledCoresStall: with NumCores set, a core that never polls in
// the window has stalled for the whole of it. An empty trace fails on every
// core, and a trace where one core never polls fails on that core alone.
func TestUnpolledCoresStall(t *testing.T) {
	end := sim.Time(10 * sim.Millisecond)
	gaps := func(rep *Report) []int {
		var cores []int
		for _, v := range rep.Violations {
			if v.Rule.Kind != KindMaxPollGap {
				t.Fatalf("unexpected violation %v", v)
			}
			if v.Measured != end || v.At != end {
				t.Fatalf("core %d: gap %v at %v, want the whole %v window", v.Core, v.Measured, v.At, end)
			}
			cores = append(cores, v.Core)
		}
		return cores
	}

	empty := &Watchdog{Tracer: span.NewTracer(nil, 1, 0), Rules: DefaultRules(100 * sim.Microsecond), NumCores: 4}
	rep := empty.Evaluate(end)
	if got := gaps(rep); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("empty trace: max_poll_gap on cores %v, want all four:\n%s", got, rep.Summary())
	}
	if rep.Stats.MaxPollGap != end {
		t.Fatalf("MaxPollGap = %v, want %v", rep.Stats.MaxPollGap, end)
	}

	h := newHarness()
	for _, c := range []int{0, 1, 3} {
		h.polls(c, 0, end)
	}
	wd := h.watchdog(allUnsafe)
	wd.NumCores = 4
	rep = wd.Evaluate(end)
	if got := gaps(rep); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("core 2 never polls: max_poll_gap on cores %v, want [2]:\n%s", got, rep.Summary())
	}
	if !strings.Contains(rep.Summary(), "no poll in the window") {
		t.Fatalf("summary does not say core 2 never polled:\n%s", rep.Summary())
	}
	// Without NumCores the watchdog judges only the cores it sees.
	wd.NumCores = 0
	if rep := wd.Evaluate(end); !rep.OK() {
		t.Fatalf("NumCores unset flagged a core it was not told about:\n%s", rep.Summary())
	}
}

// The energy-budget rule converts each core's attributed joules into mean
// watts over the window: under budget is quiet, over budget names the core,
// and a watchdog without an energy source skips the rule entirely.
func TestEnergyBudgetRule(t *testing.T) {
	h := newHarness()
	end := sim.Time(10 * sim.Millisecond) // window 0.01 s
	h.polls(0, 0, end)
	h.polls(1, 0, end)
	// Core 0: 0.4 mJ over 10 ms = 40 mW; core 1: 2 mJ = 200 mW.
	joules := []float64{0.0004, 0.002}

	wd := h.watchdog(allUnsafe)
	wd.Rules = append(DefaultRules(pollPeriod), EnergyBudgetRule(0.100))
	wd.GuardEnergyJ = func(core int) float64 { return joules[core] }
	wd.NumCores = 2
	rep := wd.Evaluate(end)
	if rep.OK() {
		t.Fatalf("200 mW over a 100 mW budget not flagged:\n%s", rep.Summary())
	}
	if len(rep.Violations) != 1 || rep.Violations[0].Core != 1 {
		t.Fatalf("violations %+v: want exactly core 1", rep.Violations)
	}
	if rep.Violations[0].Rule.Kind != KindGuardEnergyBudget {
		t.Fatalf("wrong rule kind %v", rep.Violations[0].Rule.Kind)
	}
	if got := rep.Stats.MaxGuardPowerW; got < 0.199 || got > 0.201 {
		t.Fatalf("MaxGuardPowerW = %g, want ~0.2", got)
	}
	if !strings.Contains(rep.Summary(), "max_guard_power") {
		t.Fatalf("summary omits guard power: %s", rep.Summary())
	}
	if !strings.Contains(EnergyBudgetRule(0.100).String(), "guard_energy_budget<=0.1W") {
		t.Fatalf("rule renders as %q", EnergyBudgetRule(0.100).String())
	}

	// Raising the budget over the hottest core silences the rule.
	wd.Rules = append(DefaultRules(pollPeriod), EnergyBudgetRule(0.250))
	if rep := wd.Evaluate(end); !rep.OK() {
		t.Fatalf("under-budget run flagged:\n%s", rep.Summary())
	}

	// No energy source: the rule is skipped, not violated.
	bare := h.watchdog(allUnsafe)
	bare.Rules = append(DefaultRules(pollPeriod), EnergyBudgetRule(0.000001))
	if rep := bare.Evaluate(end); !rep.OK() {
		t.Fatalf("sourceless energy rule fired:\n%s", rep.Summary())
	}
}
