package plugvolt_test

import (
	"bytes"
	"math"
	"testing"

	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
	"plugvolt/internal/telemetry/span"
)

// runInstrumentedScenario runs a guarded V0LTpwn campaign and returns the
// Prometheus exposition and the event journal bytes.
func runInstrumentedScenario(t *testing.T, seed int64) ([]byte, []byte, *telemetry.Snapshot) {
	t.Helper()
	sys := runGuardedV0LTpwn(t, seed)
	sys.CollectTelemetry()
	snap := sys.Telemetry.Registry().Snapshot()
	var metrics, events bytes.Buffer
	if err := snap.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := sys.Telemetry.Events().WriteJSONL(&events); err != nil {
		t.Fatal(err)
	}
	return metrics.Bytes(), events.Bytes(), snap
}

// Two identically-seeded runs must render byte-identical metric snapshots
// and event journals: the telemetry subsystem draws no randomness, reads no
// wall clock, and iterates in sorted order.
func TestTelemetryDeterminism(t *testing.T) {
	m1, e1, _ := runInstrumentedScenario(t, 42)
	m2, e2, _ := runInstrumentedScenario(t, 42)
	if !bytes.Equal(m1, m2) {
		t.Fatalf("metric expositions differ between identically-seeded runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", m1, m2)
	}
	if !bytes.Equal(e1, e2) {
		t.Fatal("event journals differ between identically-seeded runs")
	}
	if len(e1) == 0 {
		t.Fatal("no events journaled by an attack-vs-guard scenario")
	}
}

// The acceptance check of the instrumented run: polls, interventions, a
// populated poll-latency histogram, per-core kthread CPU time — and the
// per-kind overhead attribution must sum exactly to the kernel accounting
// totals.
func TestTelemetryOverheadAttribution(t *testing.T) {
	_, _, snap := runInstrumentedScenario(t, 7)

	if snap.Total("guard_polls_total") == 0 {
		t.Fatal("no guard polls recorded")
	}
	if snap.Total("guard_interventions_total") == 0 {
		t.Fatal("no guard interventions recorded (attack never tripped the guard)")
	}
	hist := snap.Find("guard_poll_latency_seconds")
	if hist == nil || len(hist.Series) == 0 || hist.Series[0].Count == 0 {
		t.Fatal("poll-latency histogram empty")
	}
	busy := snap.Find("kernel_kthread_busy_seconds")
	if busy == nil || len(busy.Series) == 0 {
		t.Fatal("no per-core kthread CPU time")
	}

	// Attribution closure: for every core, the wake/rdmsr/wrmsr split sums
	// to the unattributed stolen-time gauge.
	stolen := snap.Find("kernel_stolen_seconds")
	attributed := snap.Find("kernel_stolen_attributed_seconds")
	if stolen == nil || attributed == nil {
		t.Fatal("kernel accounting metrics missing")
	}
	checked := 0
	for _, s := range stolen.Series {
		core := s.Labels["core"]
		var sum float64
		for _, a := range attributed.Series {
			if a.Labels["core"] == core {
				sum += a.Value
			}
		}
		if math.Abs(sum-s.Value) > 1e-12 {
			t.Fatalf("core %s: attributed %.15g != stolen %.15g", core, sum, s.Value)
		}
		if s.Value > 0 {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no core accumulated stolen time — attribution check vacuous")
	}

	// Same closure per kthread: BusyBy kinds sum to Busy.
	attrBusy := snap.Find("kernel_kthread_attributed_seconds")
	if attrBusy == nil {
		t.Fatal("per-kthread attribution missing")
	}
	for _, s := range busy.Series {
		var sum float64
		for _, a := range attrBusy.Series {
			if a.Labels["thread"] == s.Labels["thread"] && a.Labels["core"] == s.Labels["core"] {
				sum += a.Value
			}
		}
		if math.Abs(sum-s.Value) > 1e-12 {
			t.Fatalf("kthread %s/%s: attributed %.15g != busy %.15g",
				s.Labels["thread"], s.Labels["core"], sum, s.Value)
		}
	}
}

// TestDropCountsInExposition: a journal and a span tracer past their caps
// both report their drops in the exposition. The span count is read at
// collect time, not counted per drop, so it appears only once collected.
func TestDropCountsInExposition(t *testing.T) {
	sys, grid := characterize(t, "skylake", 42, 1)
	set := telemetry.NewSet(sys.Platform.Sim.Now, 4, 42)
	set.Trace = span.NewTracer(sys.Platform.Sim.Now, 42, 8)
	sys.SetTelemetry(set)
	if _, err := sys.DeployGuard(grid); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(5 * sim.Millisecond)
	// Periodic emitters skip a full journal; an explicit Emit is dropped.
	for i := 0; i < 5; i++ {
		set.Events().Emit("probe", nil)
	}
	dropped := set.Spans().Dropped()
	if dropped == 0 {
		t.Fatal("an 8-span tracer dropped nothing in 5 ms of polling")
	}
	if set.Registry().Snapshot().Find("telemetry_spans_dropped_total") != nil {
		t.Fatal("span drops published before collect")
	}
	sys.CollectTelemetry()
	snap := set.Registry().Snapshot()
	if got := snap.Value("telemetry_spans_dropped_total", nil); got != float64(dropped) {
		t.Fatalf("telemetry_spans_dropped_total = %v, tracer dropped %d", got, dropped)
	}
	if got := snap.Value("telemetry_journal_dropped_total", nil); got == 0 {
		t.Fatal("a 4-event journal reported no drops")
	}
}
