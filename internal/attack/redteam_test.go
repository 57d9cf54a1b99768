package attack

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"plugvolt/internal/core"
	"plugvolt/internal/defense"
	"plugvolt/internal/flight"
	"plugvolt/internal/telemetry"
)

// instrumentedEnv builds an undefended env with live telemetry, a tracer
// that stores spans and a flight recorder attached, so red-team runs
// exercise the full capture path.
func instrumentedEnv(t *testing.T, model string, seed int64) (*defense.Env, *flight.Recorder) {
	t.Helper()
	env := newEnv(t, model, seed)
	env.Telemetry = telemetry.NewSet(env.Platform.Sim.Now, 4096, seed)
	env.Telemetry.Spans().Keep()
	rec := flight.NewRecorder(env.Platform.Sim.Now, 4096, 64, model, seed)
	env.Flight = rec
	return env, rec
}

// probeTrace renders the campaign's search_probe spans as one comparable
// string per probe, in trace order.
func probeTrace(t *testing.T, env *defense.Env) []string {
	t.Helper()
	var out []string
	for _, sp := range env.Telemetry.Spans().Spans() {
		if sp.Name != "search_probe" {
			continue
		}
		attrs, err := json.Marshal(sp.Attrs)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%d %s", sp.Start, attrs))
	}
	return out
}

func TestRedTeamSucceedsUndefended(t *testing.T) {
	env, rec := instrumentedEnv(t, "skylake", 91)
	res, err := DefaultRedTeam(91).Run(env, "none")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded {
		t.Fatalf("red team failed on an undefended machine: %s", res)
	}
	if res.ProbesToFirstFault <= 0 {
		t.Fatalf("succeeded but ProbesToFirstFault=%d", res.ProbesToFirstFault)
	}
	if res.FaultsObserved == 0 || res.MailboxWrites == 0 {
		t.Fatalf("implausible result: %s", res)
	}
	if res.BlockedWrites != 0 {
		t.Fatalf("writes blocked with no defense: %s", res)
	}
	if !strings.Contains(res.Notes, "minimal faulting glitch") {
		t.Fatalf("notes: %q", res.Notes)
	}
	// Satellite: each fault the (absent) guard failed to close must freeze
	// an incident bundle in the flight recorder. Seal first to flush any
	// capture still waiting on its post-trigger window.
	rec.Seal()
	bundles := rec.Bundles()
	if len(bundles) == 0 {
		t.Fatal("no flight incident bundle captured despite observed faults")
	}
	for _, b := range bundles {
		if b.Cause != string(flight.CauseFault) && b.Cause != string(flight.CauseCrash) {
			t.Fatalf("unexpected incident cause %q", b.Cause)
		}
	}
	first := bundles[0]
	if first.Cause != string(flight.CauseFault) {
		// The annealer may crash the machine before its first fault; either
		// way the first fault must still have produced a bundle.
		found := false
		for _, b := range bundles {
			if b.Cause == string(flight.CauseFault) {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("faults observed but no fault-cause bundle captured")
		}
	}
	for _, b := range bundles {
		if b.Cause == string(flight.CauseFault) {
			if !strings.Contains(b.Detail, "attack=redteam") {
				t.Fatalf("bundle detail %q does not name the campaign", b.Detail)
			}
			if len(b.Records) == 0 {
				t.Fatal("incident bundle froze no flight records")
			}
			break
		}
	}
	t.Logf("first fault at probe %d; %d incident bundles", res.ProbesToFirstFault, len(bundles))
}

// TestRedTeamProbesToFirstFaultSeed42 pins the attacker-side cost a
// defense must inflate: on an undefended Sky Lake at seed 42 the annealer
// lands its first fault at exactly this probe.
func TestRedTeamProbesToFirstFaultSeed42(t *testing.T) {
	res, err := DefaultRedTeam(42).Run(newEnv(t, "skylake", 42), "none")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded {
		t.Fatalf("red team failed on an undefended machine: %s", res)
	}
	if res.ProbesToFirstFault != 13 {
		t.Fatalf("first fault at probe %d, want 13", res.ProbesToFirstFault)
	}
}

// TestRedTeamDeterministicForFixedSeed is the acceptance criterion: a fixed
// seed replays the identical probe sequence and identical result, bit for
// bit, on a fresh machine.
func TestRedTeamDeterministicForFixedSeed(t *testing.T) {
	run := func() (*Result, []string) {
		env, _ := instrumentedEnv(t, "skylake", 77)
		res, err := DefaultRedTeam(77).Run(env, "none")
		if err != nil {
			t.Fatal(err)
		}
		return res, probeTrace(t, env)
	}
	res1, trace1 := run()
	res2, trace2 := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("results diverge for a fixed seed:\n%s\nvs\n%s", res1, res2)
	}
	if len(trace1) == 0 {
		t.Fatal("no search_probe spans traced")
	}
	if !reflect.DeepEqual(trace1, trace2) {
		t.Fatalf("probe sequences diverge for a fixed seed (%d vs %d probes)",
			len(trace1), len(trace2))
	}

	// A different seed must explore a different walk.
	env3, _ := instrumentedEnv(t, "skylake", 78)
	a := DefaultRedTeam(78)
	if _, err := a.Run(env3, "none"); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(trace1, probeTrace(t, env3)) {
		t.Fatal("different seeds replayed the identical probe sequence")
	}
}

// TestRedTeamFaultsAlwaysCaptured pits the adaptive attacker against the
// polling guard and asserts the incident-capture invariant: every campaign
// fault corresponds to at least one fault-cause flight bundle, and a
// fault-free campaign captures no fault bundles.
func TestRedTeamFaultsAlwaysCaptured(t *testing.T) {
	env, rec := instrumentedEnv(t, "skylake", 55)
	grid := characterizeEnv(t, env)
	pol, err := defense.NewPolling(grid.UnsafeSet(), env.Platform.Spec.BusMHz, core.DefaultGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := pol.Install(env); err != nil {
		t.Fatal(err)
	}
	res, err := DefaultRedTeam(55).Run(env, pol.Name())
	if err != nil {
		t.Fatal(err)
	}
	rec.Seal()
	faultBundles := 0
	for _, b := range rec.Bundles() {
		if b.Cause == string(flight.CauseFault) {
			faultBundles++
		}
	}
	if res.FaultsObserved > 0 && faultBundles == 0 {
		t.Fatalf("guard leaked %d faults but the flight recorder captured none", res.FaultsObserved)
	}
	if res.FaultsObserved == 0 && faultBundles != 0 {
		t.Fatalf("no faults observed yet %d fault bundles captured", faultBundles)
	}
	t.Logf("vs %s: %s (fault bundles: %d)", pol.Name(), res, faultBundles)
}
