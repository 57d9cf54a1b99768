package attack

import (
	"testing"

	"plugvolt/internal/core"
	"plugvolt/internal/defense"
)

func TestVoltPillagerSucceedsWithoutTouchingMSRs(t *testing.T) {
	env := newEnv(t, "skylake", 51)
	a := DefaultVoltPillager()
	res, err := a.Run(env, "none")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded {
		t.Fatalf("VoltPillager failed undefended: %s (%s)", res, res.Notes)
	}
	if res.MailboxWrites != 0 || res.BlockedWrites != 0 {
		t.Fatalf("hardware attack issued MSR writes: %s", res)
	}
}

func TestVoltPillagerDefeatsAllSoftwareDefenses(t *testing.T) {
	// The honest boundary of the paper's threat model: MSR-watching
	// defenses never see the SVID injection.
	env := newEnv(t, "skylake", 52)
	grid := characterizeEnv(t, env)
	defsEnv := env
	pol, err := defense.NewPolling(grid.UnsafeSet(), env.Platform.Spec.BusMHz, core.DefaultGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	msv := grid.MaximalSafeOffsetMV(20)
	cases := []defense.Countermeasure{
		pol,
		&defense.WriteGuard{MaxSafeOffsetMV: msv},
		&defense.WriteGuard{MaxSafeOffsetMV: msv, Clamp: true},
	}
	for _, cm := range cases {
		if err := cm.Install(defsEnv); err != nil {
			t.Fatalf("%s: %v", cm.Name(), err)
		}
		res, err := DefaultVoltPillager().Run(defsEnv, cm.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Succeeded {
			t.Errorf("%s unexpectedly stopped the hardware attack: %s", cm.Name(), res)
		}
		if err := cm.Uninstall(defsEnv); err != nil {
			t.Fatal(err)
		}
	}
}
