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
		&defense.Microcode{MaxSafeOffsetMV: msv},
		&defense.ClampMSR{LimitMV: msv},
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

func TestCrossCheckGuardDetectsVoltPillager(t *testing.T) {
	env := newEnv(t, "skylake", 53)
	grid := characterizeEnv(t, env)
	cfg := core.DefaultGuardConfig()
	cfg.VoltageCrossCheck = true
	cfg.ExpectedMV = env.Platform.Spec.NominalMV
	pol, err := defense.NewPolling(grid.UnsafeSet(), env.Platform.Spec.BusMHz, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pol.Install(env); err != nil {
		t.Fatal(err)
	}
	res, err := DefaultVoltPillager().Run(env, pol.Name())
	if err != nil {
		t.Fatal(err)
	}
	// Detection, not prevention: the attack still lands...
	if !res.Succeeded {
		t.Fatalf("software guard claimed to stop a hardware injector: %s", res)
	}
	// ...but the anomaly is on record for alerting/evacuation.
	if pol.Guard.HardwareAnomalies == 0 {
		t.Fatal("cross-check never flagged the out-of-band rail deficit")
	}
	if pol.Guard.LastAnomaly == 0 {
		t.Fatal("anomaly time not recorded")
	}
}

func TestCrossCheckQuietDuringRegisterAttacks(t *testing.T) {
	// Regression guard: the recovery transient after an ordinary register
	// intervention must not raise hardware anomalies (persistence filter).
	env := newEnv(t, "skylake", 54)
	grid := characterizeEnv(t, env)
	cfg := core.DefaultGuardConfig()
	cfg.VoltageCrossCheck = true
	cfg.ExpectedMV = env.Platform.Spec.NominalMV
	pol, err := defense.NewPolling(grid.UnsafeSet(), env.Platform.Spec.BusMHz, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pol.Install(env); err != nil {
		t.Fatal(err)
	}
	res, err := DefaultPlundervolt(54).Run(env, pol.Name())
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded {
		t.Fatalf("guard lost to plundervolt: %s", res)
	}
	if pol.Guard.Interventions == 0 {
		t.Fatal("no interventions — campaign did not exercise the guard")
	}
	if pol.Guard.HardwareAnomalies != 0 {
		t.Fatalf("%d false hardware anomalies during a register attack", pol.Guard.HardwareAnomalies)
	}
}

func TestCrossCheckConfigValidation(t *testing.T) {
	u := &core.UnsafeSet{FloorMV: -300}
	cfg := core.DefaultGuardConfig()
	cfg.VoltageCrossCheck = true // no ExpectedMV
	if _, err := core.NewGuard(u, 100, cfg); err == nil {
		t.Fatal("cross-check without ExpectedMV accepted")
	}
	cfg.ExpectedMV = func(uint8) float64 { return 1000 }
	cfg.CrossCheckSlackMV = -1
	if _, err := core.NewGuard(u, 100, cfg); err == nil {
		t.Fatal("negative slack accepted")
	}
}
