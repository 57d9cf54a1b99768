package plugvolt_test

// End-to-end contract for the causal span trace: the exported Chrome trace
// is byte-identical across runs and across characterization worker counts,
// and the causality it records proves the guard's coverage — every write
// the guard issues is enclosed by a guard_intervention span, and every
// accepted unsafe attacker write is closed by a later intervention on the
// same core within the SLO dwell bound.

import (
	"bytes"
	"encoding/json"
	"testing"

	"plugvolt"
	"plugvolt/internal/attack"
	"plugvolt/internal/defense"
	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
	"plugvolt/internal/slo"
	"plugvolt/internal/telemetry/span"
)

// guardedUnderAttack boots Sky Lake at seed 42 with a tracer that stores
// spans from boot, as plugvolt-guard's -trace-out does, so the trace holds
// the characterization rows too. It characterizes with the given worker
// count, deploys the guard, and starts a periodic adversary writing 60 mV
// past core 1's onset every 537 µs until the test ends.
func guardedUnderAttack(t *testing.T, workers int) (*plugvolt.System, *defense.Polling, *plugvolt.Grid) {
	t.Helper()
	sys, err := plugvolt.NewSystem("skylake", 42)
	if err != nil {
		t.Fatal(err)
	}
	sys.Telemetry.Spans().Keep()
	cfg := plugvolt.QuickSweep()
	cfg.Workers = workers
	grid, err := sys.Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := sys.DeployGuard(grid)
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Platform
	offset := grid.UnsafeSet().OnsetMV[p.FreqKHz(1)] - 60
	attacker := p.Sim.Every(537*sim.Microsecond, func() {
		_ = p.WriteOffsetViaMSR(1, offset, msr.PlaneCore)
	})
	t.Cleanup(attacker.Stop)
	return sys, pol, grid
}

// watchdog evaluates the default SLO rules over the system's spans and
// journal, with grid's unsafe set as the dwell criterion.
func watchdog(sys *plugvolt.System, grid *plugvolt.Grid) *slo.Watchdog {
	unsafe, p := grid.UnsafeSet(), sys.Platform
	return &slo.Watchdog{
		Tracer:  sys.Telemetry.Spans(),
		Journal: sys.Telemetry.Events(),
		Rules:   slo.DefaultRules(plugvolt.DefaultGuardConfig().PollPeriod),
		Unsafe: func(core, offsetMV int) bool {
			return unsafe.Contains(p.FreqKHz(core), offsetMV)
		},
	}
}

// attackScenario runs guardedUnderAttack for 10ms of virtual time and
// returns the system plus the exported Chrome trace bytes.
func attackScenario(t *testing.T, workers int) (*plugvolt.System, *plugvolt.Guard, *plugvolt.Grid, []byte) {
	t.Helper()
	sys, pol, grid := guardedUnderAttack(t, workers)
	sys.RunFor(10 * sim.Millisecond)

	var buf bytes.Buffer
	if err := sys.Telemetry.Spans().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return sys, pol.Guard, grid, buf.Bytes()
}

func TestTraceByteIdenticalAcrossRunsAndWorkers(t *testing.T) {
	_, _, _, first := attackScenario(t, 1)
	if len(first) == 0 {
		t.Fatal("empty trace")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	// Re-running the identical experiment must reproduce the bytes.
	_, _, _, again := attackScenario(t, 1)
	if !bytes.Equal(first, again) {
		t.Fatal("trace differs between two identical runs")
	}
	// The characterization worker count is a scheduling knob, not an
	// experiment parameter: the trace must not see it.
	for _, workers := range []int{2, 8} {
		_, _, _, got := attackScenario(t, workers)
		if !bytes.Equal(first, got) {
			t.Fatalf("trace differs between workers=1 and workers=%d", workers)
		}
	}
}

func TestGuardWritesCausallyCovered(t *testing.T) {
	sys, guard, _, _ := attackScenario(t, 1)
	spans := sys.Telemetry.Spans().Spans()
	byID := make(map[span.ID]*span.Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	underIntervention := func(s *span.Span) bool {
		for cur := s; cur != nil; cur = byID[cur.Parent] {
			if cur.Name == "guard_intervention" {
				return true
			}
			if cur.Parent == 0 {
				return false
			}
		}
		return false
	}

	interventions, attacks, guardWrites := 0, 0, 0
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "guard_intervention":
			interventions++
			// An intervention nests under its poll, which roots in the
			// kthread tick — the full causal chain of Algorithm 3.
			parent := byID[s.Parent]
			if parent == nil || parent.Name != "guard_poll" {
				t.Errorf("intervention %x not parented by a guard_poll", s.ID)
			}
		case "mailbox_write":
			if s.Attrs["outcome"] != "accepted" {
				continue
			}
			if underIntervention(s) {
				guardWrites++
			} else {
				attacks++
			}
		}
	}
	if interventions == 0 {
		t.Fatal("attack scenario produced no guard interventions")
	}
	// Every intervention performs exactly one corrective write, and every
	// guard-issued write is causally covered by an intervention span.
	if guardWrites != interventions {
		t.Fatalf("guard writes %d != interventions %d: corrective writes not covered",
			guardWrites, interventions)
	}
	if attacks == 0 {
		t.Fatal("no attacker writes recorded")
	}
	if n := guard.Interventions; int(n) != interventions {
		t.Fatalf("trace records %d interventions, guard counted %d", interventions, n)
	}
}

func TestSLOQuietOnCleanRunAndFlagsStall(t *testing.T) {
	sys, _, grid, _ := attackScenario(t, 1)
	rep := watchdog(sys, grid).Evaluate(sys.Platform.Sim.Now())
	if !rep.OK() {
		t.Fatalf("clean guarded run violates SLO:\n%s", rep.Summary())
	}
	if rep.Stats.Interventions == 0 || rep.Stats.UnsafeWrites == 0 {
		t.Fatalf("watchdog saw no action: %+v", rep.Stats)
	}
}

func TestSLOFlagsInducedStall(t *testing.T) {
	sys, pol, grid := guardedUnderAttack(t, 0)
	sys.RunFor(5 * sim.Millisecond)
	// The adversary unloads the module mid-window: polls stop, and the
	// last attacker writes are never corrected.
	if err := pol.Uninstall(sys.Env()); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(5 * sim.Millisecond)
	rep := watchdog(sys, grid).Evaluate(sys.Platform.Sim.Now())
	if rep.OK() {
		t.Fatalf("stalled guard passed the SLO:\n%s", rep.Summary())
	}
	kinds := map[slo.Kind]bool{}
	for _, v := range rep.Violations {
		kinds[v.Rule.Kind] = true
	}
	if !kinds[slo.KindMaxPollGap] {
		t.Errorf("stall not flagged as max_poll_gap:\n%s", rep.Summary())
	}
	if !kinds[slo.KindInterventionClosure] {
		t.Errorf("uncorrected writes not flagged as closure violations:\n%s", rep.Summary())
	}
}

// Every campaign closes the span it opens: one Run records exactly one
// campaign_<attack> span, and a mailbox write after Run returns is a root
// span instead of a child of the finished campaign.
func TestCampaignSpansClose(t *testing.T) {
	sys, err := plugvolt.NewSystem("skylake", 81)
	if err != nil {
		t.Fatal(err)
	}
	sys.Telemetry.Spans().Keep()
	// A short V0LTpwn campaign: three shallow steps stop without faults,
	// and its span must close on that path too.
	pwn := attack.DefaultV0LTpwn()
	pwn.FloorMV = pwn.StartMV + 2*pwn.StepMV
	for _, atk := range []attack.Attack{attack.DefaultPlundervolt(81), pwn} {
		res, err := atk.Run(sys.Env(), "none")
		if err != nil {
			t.Fatal(err)
		}
		if atk == pwn && (res.FaultsObserved != 0 || res.Succeeded) {
			t.Fatalf("the short v0ltpwn campaign faulted: %s", res)
		}
		if err := sys.Platform.WriteOffsetViaMSR(0, 0, msr.PlaneCore); err != nil {
			t.Fatal(err)
		}
		spans := sys.Telemetry.Spans().Spans()
		campaigns := 0
		for _, s := range spans {
			if s.Name == "campaign_"+res.Attack {
				campaigns++
			}
		}
		if campaigns != 1 {
			t.Fatalf("%s: %d campaign spans recorded, want 1", res.Attack, campaigns)
		}
		if last := spans[len(spans)-1]; last.Name != "mailbox_write" || last.Parent != 0 {
			t.Fatalf("%s: the write after the campaign is span %q with parent %x, want a root mailbox_write",
				res.Attack, last.Name, last.Parent)
		}
	}
}
