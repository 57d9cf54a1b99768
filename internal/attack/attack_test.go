package attack

import (
	"strings"
	"testing"

	"plugvolt/internal/core"
	"plugvolt/internal/cpu"
	"plugvolt/internal/defense"
	"plugvolt/internal/kernel"
	"plugvolt/internal/models"
	"plugvolt/internal/sgx"
)

func newEnv(t *testing.T, model string, seed int64) *defense.Env {
	t.Helper()
	spec, err := models.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cpu.NewPlatform(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &defense.Env{
		Platform: p,
		Kernel:   kernel.New(p.Sim, p),
		Registry: sgx.NewRegistry(p.Sim),
	}
}

// quickGrid characterizes env's model and seed with the quick sweep.
func quickGrid(env *defense.Env) (*core.Grid, error) {
	cfg := core.DefaultCharacterizerConfig()
	cfg.Iterations = 200_000
	cfg.OffsetStartMV = -5
	cfg.OffsetStepMV = -5
	cfg.OffsetEndMV = -350
	sc, err := core.NewShardedCharacterizer(env.Platform.Spec, env.Platform.Seed(), cfg)
	if err != nil {
		return nil, err
	}
	return sc.Run()
}

func characterizeEnv(t *testing.T, env *defense.Env) *core.Grid {
	t.Helper()
	g, err := quickGrid(env)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPlundervoltSucceedsUndefended(t *testing.T) {
	env := newEnv(t, "skylake", 31)
	a := DefaultPlundervolt(31)
	res, err := a.Run(env, "none")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded || !res.KeyRecovered {
		t.Fatalf("Plundervolt failed on an undefended machine: %s", res)
	}
	if res.FaultsObserved == 0 || res.MailboxWrites == 0 {
		t.Fatalf("implausible result: %s", res)
	}
	if res.BlockedWrites != 0 {
		t.Fatalf("writes blocked with no defense: %s", res)
	}
	if !strings.Contains(res.Notes, "factored N") {
		t.Fatalf("notes: %q", res.Notes)
	}
}

func TestPlundervoltDefeatedByPollingGuard(t *testing.T) {
	env := newEnv(t, "skylake", 32)
	grid := characterizeEnv(t, env)
	pol, err := defense.NewPolling(grid.UnsafeSet(), env.Platform.Spec.BusMHz, core.DefaultGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := pol.Install(env); err != nil {
		t.Fatal(err)
	}
	a := DefaultPlundervolt(32)
	res, err := a.Run(env, pol.Name())
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded {
		t.Fatalf("Plundervolt beat the polling guard: %s", res)
	}
	if res.FaultsObserved != 0 {
		t.Fatalf("guard leaked %d faults", res.FaultsObserved)
	}
	if res.Crashes != 0 {
		t.Fatalf("guarded machine crashed: %s", res)
	}
	if pol.Guard.Interventions == 0 {
		t.Fatal("guard never intervened during the campaign")
	}
	// Crucially, no writes were *blocked* — the interface stayed open.
	if res.BlockedWrites != 0 {
		t.Fatalf("polling guard blocked writes: %s", res)
	}
}

func TestPlundervoltDefeatedByAccessControl(t *testing.T) {
	env := newEnv(t, "skylake", 33)
	ac := &defense.AccessControl{}
	if err := ac.Install(env); err != nil {
		t.Fatal(err)
	}
	a := DefaultPlundervolt(33)
	res, err := a.Run(env, ac.Name())
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded {
		t.Fatalf("Plundervolt beat access control: %s", res)
	}
	// Every mailbox write must have been rejected (enclave exists).
	if res.BlockedWrites != res.MailboxWrites || res.BlockedWrites == 0 {
		t.Fatalf("blocked %d of %d writes", res.BlockedWrites, res.MailboxWrites)
	}
}

func TestPlundervoltDefeatedByMicrocodeAndClamp(t *testing.T) {
	for _, which := range []string{"microcode", "clamp"} {
		which := which
		t.Run(which, func(t *testing.T) {
			env := newEnv(t, "skylake", 34)
			grid := characterizeEnv(t, env)
			msv := grid.MaximalSafeOffsetMV(5)
			var cm defense.Countermeasure
			if which == "microcode" {
				cm = &defense.Microcode{MaxSafeOffsetMV: msv}
			} else {
				cm = &defense.ClampMSR{LimitMV: msv}
			}
			if err := cm.Install(env); err != nil {
				t.Fatal(err)
			}
			a := DefaultPlundervolt(34)
			res, err := a.Run(env, cm.Name())
			if err != nil {
				t.Fatal(err)
			}
			if res.Succeeded || res.FaultsObserved != 0 || res.Crashes != 0 {
				t.Fatalf("%s defeated: %s", which, res)
			}
			// Neither variant rejects writes: they ignore or clamp.
			if res.BlockedWrites != 0 {
				t.Fatalf("%s blocked writes: %s", which, res)
			}
		})
	}
}

func TestV0LTpwnSucceedsUndefendedAndLosesToGuard(t *testing.T) {
	env := newEnv(t, "skylake", 35)
	a := DefaultV0LTpwn()
	res, err := a.Run(env, "none")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded {
		t.Fatalf("V0LTpwn failed undefended: %s", res)
	}

	env2 := newEnv(t, "skylake", 35)
	grid := characterizeEnv(t, env2)
	pol, err := defense.NewPolling(grid.UnsafeSet(), env2.Platform.Spec.BusMHz, core.DefaultGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := pol.Install(env2); err != nil {
		t.Fatal(err)
	}
	res2, err := a.Run(env2, pol.Name())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Succeeded || res2.FaultsObserved != 0 {
		t.Fatalf("V0LTpwn beat the guard: %s", res2)
	}
}

func TestVoltJockeySucceedsUndefended(t *testing.T) {
	env := newEnv(t, "skylake", 36)
	a := DefaultVoltJockey()
	res, err := a.Run(env, "none")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded {
		t.Fatalf("VoltJockey failed undefended: %s (%s)", res, res.Notes)
	}
	if res.FaultsObserved == 0 {
		t.Fatalf("no faults: %s", res)
	}
}

func TestVoltJockeyDefeatedByGuard(t *testing.T) {
	// The frequency-side attack is the sharpest test of the paper's
	// state-pair (not value-pair) formulation: the held offset is safe at
	// prep frequency, and only the frequency change makes the *pair*
	// unsafe. The guard polls the pair and must catch it.
	env := newEnv(t, "skylake", 37)
	grid := characterizeEnv(t, env)
	pol, err := defense.NewPolling(grid.UnsafeSet(), env.Platform.Spec.BusMHz, core.DefaultGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := pol.Install(env); err != nil {
		t.Fatal(err)
	}
	a := DefaultVoltJockey()
	res, err := a.Run(env, pol.Name())
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded || res.FaultsObserved != 0 {
		t.Fatalf("VoltJockey beat the guard: %s", res)
	}
	if res.Crashes != 0 {
		t.Fatalf("guarded machine crashed: %s", res)
	}
}

func TestAttackMatrixAllThreeCPUs(t *testing.T) {
	// E1: the guard must defeat all three attacks on all three CPU models
	// while the undefended machine falls to all of them.
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	for _, model := range []string{"skylake", "kabylaker", "cometlake"} {
		model := model
		t.Run(model, func(t *testing.T) {
			attacks := func() []Attack {
				return []Attack{DefaultPlundervolt(40), DefaultVoltJockey(), DefaultV0LTpwn()}
			}
			// Undefended: every attack succeeds.
			for _, a := range attacks() {
				env := newEnv(t, model, 41)
				res, err := a.Run(env, "none")
				if err != nil {
					t.Fatal(err)
				}
				if !res.Succeeded {
					t.Errorf("%s undefended on %s: %s (%s)", res.Attack, model, res, res.Notes)
				}
			}
			// Guarded: every attack fails with zero faults.
			env := newEnv(t, model, 42)
			grid := characterizeEnv(t, env)
			pol, err := defense.NewPolling(grid.UnsafeSet(), env.Platform.Spec.BusMHz, core.DefaultGuardConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := pol.Install(env); err != nil {
				t.Fatal(err)
			}
			for _, a := range attacks() {
				res, err := a.Run(env, pol.Name())
				if err != nil {
					t.Fatal(err)
				}
				if res.Succeeded || res.FaultsObserved != 0 {
					t.Errorf("%s beat the guard on %s: %s", res.Attack, model, res)
				}
			}
		})
	}
}

func TestResultString(t *testing.T) {
	r := &Result{Attack: "plundervolt", Defense: "none", Succeeded: true}
	if !strings.Contains(r.String(), "SUCCEEDED") {
		t.Fatal("success not rendered")
	}
	r.Succeeded = false
	if !strings.Contains(r.String(), "DEFEATED") {
		t.Fatal("defeat not rendered")
	}
}

// newEnvNoT is the test-helper-free env builder used by factory closures.
func newEnvNoT(model string, seed int64) (*defense.Env, error) {
	spec, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	p, err := cpu.NewPlatform(spec, seed)
	if err != nil {
		return nil, err
	}
	return &defense.Env{
		Platform: p,
		Kernel:   kernel.New(p.Sim, p),
		Registry: sgx.NewRegistry(p.Sim),
	}, nil
}
