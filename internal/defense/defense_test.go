package defense

import (
	"errors"
	"testing"

	"plugvolt/internal/core"
	"plugvolt/internal/cpu"
	"plugvolt/internal/kernel"
	"plugvolt/internal/models"
	"plugvolt/internal/msr"
	"plugvolt/internal/sgx"
	"plugvolt/internal/sim"
	"plugvolt/internal/victim"
)

// newEnv builds a Sky Lake machine with kernel and SGX registry.
func newEnv(t *testing.T, seed int64) *Env {
	t.Helper()
	spec, err := models.SkyLake()
	if err != nil {
		t.Fatal(err)
	}
	p, err := cpu.NewPlatform(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &Env{
		Platform: p,
		Kernel:   kernel.New(p.Sim, p),
		Registry: sgx.NewRegistry(p.Sim),
	}
}

// characterize runs a quick sweep and returns the unsafe set and grid.
func characterize(t *testing.T, env *Env) (*core.UnsafeSet, *core.Grid) {
	t.Helper()
	cfg := core.DefaultCharacterizerConfig()
	cfg.Iterations = 200_000
	cfg.OffsetStartMV = -5
	cfg.OffsetStepMV = -5
	cfg.OffsetEndMV = -350
	sc, err := core.NewShardedCharacterizer(env.Platform.Spec, env.Platform.Seed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return g.UnsafeSet(), g
}

func TestEnvValidate(t *testing.T) {
	if err := (&Env{}).Validate(); err == nil {
		t.Fatal("empty env accepted")
	}
	var nilEnv *Env
	if err := nilEnv.Validate(); err == nil {
		t.Fatal("nil env accepted")
	}
	if err := newEnv(t, 1).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNoneBaseline(t *testing.T) {
	env := newEnv(t, 1)
	var n None
	if n.Name() != "none" || !n.AllowsBenignDVFS() || n.HardwareLevel() {
		t.Fatal("None properties wrong")
	}
	if err := n.Install(env); err != nil {
		t.Fatal(err)
	}
	if err := n.Uninstall(env); err != nil {
		t.Fatal(err)
	}
}

func TestAccessControlBlocksMailboxWhileEnclaveRuns(t *testing.T) {
	env := newEnv(t, 2)
	ac := &AccessControl{}
	if err := ac.Install(env); err != nil {
		t.Fatal(err)
	}
	if err := ac.Install(env); err == nil {
		t.Fatal("double install accepted")
	}
	// No enclave: writes pass (lockdown is SGX-conditional).
	if err := env.Platform.WriteOffsetViaMSR(0, -20, msr.PlaneCore); err != nil {
		t.Fatalf("write without enclave blocked: %v", err)
	}
	// With an enclave: #GP.
	encl, _ := env.Registry.Create("victim", 1)
	err := env.Platform.WriteOffsetViaMSR(0, -20, msr.PlaneCore)
	var gp *msr.GPFault
	if !errors.As(err, &gp) {
		t.Fatalf("write with enclave: %v", err)
	}
	// Attestation reflects the lockdown.
	if rep := encl.Attest(1); !rep.OCMDisabled {
		t.Fatal("OCM lockdown not attested")
	}
	if ac.AllowsBenignDVFS() {
		t.Fatal("access control claims to allow benign DVFS")
	}
	// Uninstall restores the mailbox and clears the flag.
	if err := ac.Uninstall(env); err != nil {
		t.Fatal(err)
	}
	if err := env.Platform.WriteOffsetViaMSR(0, -20, msr.PlaneCore); err != nil {
		t.Fatalf("write after uninstall blocked: %v", err)
	}
	if rep := encl.Attest(2); rep.OCMDisabled {
		t.Fatal("flag survives uninstall")
	}
	if err := ac.Uninstall(env); err != nil {
		t.Fatal("double uninstall errored")
	}
}

func TestPollingDefenseInstallAndAttestation(t *testing.T) {
	env := newEnv(t, 3)
	unsafe, _ := characterize(t, env)
	pol, err := NewPolling(unsafe, env.Platform.Spec.BusMHz, core.DefaultGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := pol.Install(env); err != nil {
		t.Fatal(err)
	}
	if !env.Kernel.Loaded(core.ModuleName) {
		t.Fatal("module not loaded")
	}
	encl, _ := env.Registry.Create("attested", 1)
	rep := encl.Attest(7)
	if !rep.GuardModuleReported || !rep.GuardModuleLoaded {
		t.Fatal("guard module state not attested")
	}
	if rep.OCMDisabled {
		t.Fatal("polling defense must not disable the OCM")
	}
	// Client policy accepts; after adversarial rmmod it must reject.
	pos := sgx.VerifyPolicy{RequireGuardModule: true}
	if err := pos.Verify(rep); err != nil {
		t.Fatal(err)
	}
	if err := pol.Uninstall(env); err != nil {
		t.Fatal(err)
	}
	rep = encl.Attest(8)
	if err := pos.Verify(rep); err == nil {
		t.Fatal("attestation passed after rmmod")
	}
	if err := pol.Uninstall(env); err != nil {
		t.Fatal("double uninstall errored")
	}
	if !pol.AllowsBenignDVFS() {
		t.Fatal("polling must allow benign DVFS")
	}
}

func TestMicrocodeWriteIgnore(t *testing.T) {
	env := newEnv(t, 4)
	_, grid := characterize(t, env)
	msv := grid.MaximalSafeOffsetMV(5)
	mc := &Microcode{MaxSafeOffsetMV: msv}
	if err := mc.Install(env); err != nil {
		t.Fatal(err)
	}
	if err := mc.Install(env); err == nil {
		t.Fatal("double install accepted")
	}
	c := env.Platform.Core(0)

	// A write within the maximal safe state passes.
	benign := msv + 10 // shallower
	if err := env.Platform.WriteOffsetViaMSR(0, benign, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	env.Platform.SettleAll()
	if got := c.OffsetMV(); got > benign+2 || got < benign-2 {
		t.Fatalf("benign offset not applied: %d", got)
	}

	// An unsafe write succeeds (no #GP, like real write-ignore MSRs) but
	// changes nothing.
	if err := env.Platform.WriteOffsetViaMSR(0, msv-100, msr.PlaneCore); err != nil {
		t.Fatalf("write-ignore returned error: %v", err)
	}
	env.Platform.SettleAll()
	if got := c.OffsetMV(); got > benign+2 || got < benign-2 {
		t.Fatalf("unsafe write changed offset to %d", got)
	}
	if mc.Ignored != 1 {
		t.Fatalf("Ignored = %d", mc.Ignored)
	}
	if !mc.AllowsBenignDVFS() || !mc.HardwareLevel() {
		t.Fatal("microcode properties wrong")
	}
	if err := mc.Uninstall(env); err != nil {
		t.Fatal(err)
	}
	// After uninstall the unsafe write lands (machine unprotected again).
	if err := env.Platform.WriteOffsetViaMSR(0, msv-100, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	env.Platform.SettleAll()
	if got := c.OffsetMV(); got > msv-90 {
		t.Fatalf("uninstall did not restore mailbox: offset %d", got)
	}
}

func TestMicrocodeRejectsPositiveLimit(t *testing.T) {
	env := newEnv(t, 4)
	mc := &Microcode{MaxSafeOffsetMV: 5}
	if err := mc.Install(env); err == nil {
		t.Fatal("positive maximal safe accepted")
	}
}

func TestClampMSR(t *testing.T) {
	env := newEnv(t, 5)
	_, grid := characterize(t, env)
	limit := grid.MaximalSafeOffsetMV(5)
	cl := &ClampMSR{LimitMV: limit}
	if err := cl.Install(env); err != nil {
		t.Fatal(err)
	}
	if err := cl.Install(env); err == nil {
		t.Fatal("double install accepted")
	}
	c := env.Platform.Core(0)

	// Unsafe write is clamped to the limit, not rejected (DRAM_MIN_PWR
	// semantics).
	if err := env.Platform.WriteOffsetViaMSR(0, limit-150, msr.PlaneCore); err != nil {
		t.Fatalf("clamped write errored: %v", err)
	}
	env.Platform.SettleAll()
	if got := c.OffsetMV(); got > limit+2 || got < limit-2 {
		t.Fatalf("offset %d, want clamped to %d", got, limit)
	}
	if cl.Clamped != 1 {
		t.Fatalf("Clamped = %d", cl.Clamped)
	}
	// Within-limit write passes unmodified.
	benign := limit + 15
	if err := env.Platform.WriteOffsetViaMSR(0, benign, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	env.Platform.SettleAll()
	if got := c.OffsetMV(); got > benign+2 || got < benign-2 {
		t.Fatalf("benign offset %d, want %d", got, benign)
	}
	if !cl.AllowsBenignDVFS() || !cl.HardwareLevel() {
		t.Fatal("clamp properties wrong")
	}
	if err := cl.Uninstall(env); err != nil {
		t.Fatal(err)
	}
	if err := (&ClampMSR{LimitMV: 1}).Install(env); err == nil {
		t.Fatal("positive limit accepted")
	}
}

func TestClampGuaranteesNoUnsafeStateEver(t *testing.T) {
	// The hardware clamp has zero turnaround: no matter what software
	// writes, the register never holds an unsafe offset.
	env := newEnv(t, 6)
	unsafe, grid := characterize(t, env)
	limit := grid.MaximalSafeOffsetMV(5)
	cl := &ClampMSR{LimitMV: limit}
	if err := cl.Install(env); err != nil {
		t.Fatal(err)
	}
	for off := -5; off >= -350; off -= 15 {
		if err := env.Platform.WriteOffsetViaMSR(1, off, msr.PlaneCore); err != nil {
			t.Fatal(err)
		}
		freq := env.Platform.FreqKHz(1)
		if unsafe.Contains(freq, env.Platform.Core(1).OffsetMV()) {
			t.Fatalf("register in unsafe state at requested %d", off)
		}
	}
}

func TestMinefieldDetectsNaiveUndervolting(t *testing.T) {
	// Without single-stepping, a continuous undervolt faults a trap long
	// before enough payload faults accumulate: the attack is detected.
	env := newEnv(t, 7)
	p := env.Platform
	c := p.Core(1)
	// Drive into the fault window (imul faulting, machine up).
	for off := -1; off >= -400; off-- {
		if err := p.WriteOffsetViaMSR(1, off, msr.PlaneCore); err != nil {
			t.Fatal(err)
		}
		p.SettleAll()
		if c.FaultProbability(cpu.ClassIMul) > 1e-3 && c.CrashProbability() < 1e-9 {
			break
		}
	}
	mf := &Minefield{Density: 3}
	inner, err := victim.NewIMulLoop(c, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mf.Instrument(inner, c)
	if err != nil {
		t.Fatal(err)
	}
	encl, _ := env.Registry.Create("protected", 1)
	err = encl.Run(prog)
	if !errors.Is(err, ErrTrapped) {
		t.Fatalf("expected trap detection, got %v (payload faults %d)", err, inner.Faults)
	}
	if !prog.Detected || prog.Traps == 0 {
		t.Fatal("detection state inconsistent")
	}
	// Density 3: at least ~3 traps per payload step ran before detection.
	if inner.Faults > 3 {
		t.Fatalf("payload collected %d faults before a trap fired", inner.Faults)
	}
}

// faultingOffset is the stepping adversary's calibration: the shallowest
// offset at which core's imul faults with probability above 2% per
// instruction while its control path stays below 1e-9. It leaves that
// offset applied.
func faultingOffset(t *testing.T, p *cpu.Platform, core int) int {
	t.Helper()
	c := p.Core(core)
	for off := -1; off >= -400; off-- {
		if err := p.WriteOffsetViaMSR(core, off, msr.PlaneCore); err != nil {
			t.Fatal(err)
		}
		p.SettleAll()
		if c.FaultProbability(cpu.ClassIMul) > 0.02 && c.CrashProbability() < 1e-9 {
			return off
		}
	}
	t.Fatal("no workable attack offset")
	return 0
}

func TestMinefieldBypassedBySingleStepping(t *testing.T) {
	// The paper's Sec. 4.1 argument: an SGX-Step adversary undervolts only
	// during payload instructions and restores before traps execute, so
	// Minefield never detects. We model the idealized stepping attacker
	// with instant voltage actuation (zero-slew rail) to isolate the
	// architectural argument from regulator physics.
	spec, err := models.SkyLake()
	if err != nil {
		t.Fatal(err)
	}
	p, err := cpu.NewPlatform(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{Platform: p, Kernel: kernel.New(p.Sim, p), Registry: sgx.NewRegistry(p.Sim)}
	c := p.Core(1)

	attackOffset := faultingOffset(t, p, 1)
	restore := func() {
		_ = p.WriteOffsetViaMSR(1, 0, msr.PlaneCore)
		p.SettleAll()
	}
	undervolt := func() {
		_ = p.WriteOffsetViaMSR(1, attackOffset, msr.PlaneCore)
		p.SettleAll()
	}
	restore()

	mf := &Minefield{Density: 3}
	inner, err := victim.NewIMulLoop(c, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mf.Instrument(inner, c)
	if err != nil {
		t.Fatal(err)
	}
	_ = env // env documents the full-machine setup; stepping drives prog directly

	stepper := sgx.NewStepper(p.Sim)
	// Attacker callback: undervolt exactly when the *next* step is
	// payload, restore otherwise.
	if prog.NextIsTrap() {
		restore()
	} else {
		undervolt()
	}
	err = stepper.Run(prog, func(int) error {
		if prog.NextIsTrap() {
			restore()
		} else {
			undervolt()
		}
		return nil
	})
	if errors.Is(err, ErrTrapped) {
		t.Fatal("single-stepping adversary still tripped a trap")
	}
	if err != nil {
		t.Fatal(err)
	}
	if inner.Faults == 0 {
		t.Fatal("stepping attack induced no payload faults — bypass demonstration failed")
	}
}

// TestPollingSurvivesSingleStepping is E2's "survives stepping: yes" for
// polling. The SGX-Step adversary that bypasses Minefield undervolts and
// lets the rail settle before every enclave step (2,000 of them, ~10 us of
// AEX each). Undefended it faults the payload; under the guard, which
// never depends on enclave execution, every settle window contains a poll
// that restores the register, and the payload sees no fault.
func TestPollingSurvivesSingleStepping(t *testing.T) {
	stepped := func(guarded bool) (faults int, pol *Polling) {
		env := newEnv(t, 77)
		p := env.Platform
		attackOffset := faultingOffset(t, p, 1)
		if err := p.WriteOffsetViaMSR(1, 0, msr.PlaneCore); err != nil {
			t.Fatal(err)
		}
		p.SettleAll()
		if guarded {
			unsafe, _ := characterize(t, env)
			var err error
			if pol, err = NewPolling(unsafe, p.Spec.BusMHz, core.DefaultGuardConfig()); err != nil {
				t.Fatal(err)
			}
			if err := pol.Install(env); err != nil {
				t.Fatal(err)
			}
		}
		inner, err := victim.NewIMulLoop(p.Core(1), 2_000)
		if err != nil {
			t.Fatal(err)
		}
		undervolt := func() {
			_ = p.WriteOffsetViaMSR(1, attackOffset, msr.PlaneCore)
			p.SettleAll()
		}
		undervolt()
		if err := sgx.NewStepper(p.Sim).Run(inner, func(int) error { undervolt(); return nil }); err != nil {
			t.Fatal(err)
		}
		return inner.Faults, pol
	}
	if faults, _ := stepped(false); faults == 0 {
		t.Fatal("the stepping adversary faults nothing on an undefended machine")
	}
	faults, pol := stepped(true)
	if faults != 0 {
		t.Fatalf("stepping adversary induced %d payload faults under the guard (%d interventions)", faults, pol.Guard.Interventions)
	}
	if pol.Guard.Interventions == 0 {
		t.Fatal("the adversary's writes never reached the guard")
	}
}

func TestMinefieldValidation(t *testing.T) {
	env := newEnv(t, 9)
	mf := &Minefield{Density: 0}
	inner, _ := victim.NewIMulLoop(env.Platform.Core(0), 10)
	if _, err := mf.Instrument(inner, env.Platform.Core(0)); err == nil {
		t.Fatal("zero density accepted")
	}
	mf.Density = 2
	if _, err := mf.Instrument(nil, env.Platform.Core(0)); err == nil {
		t.Fatal("nil program accepted")
	}
	if _, err := mf.Instrument(inner, nil); err == nil {
		t.Fatal("nil core accepted")
	}
}

func TestCountermeasureMatrixProperties(t *testing.T) {
	// Experiment E2's static columns: who allows benign DVFS, who can sink
	// to hardware.
	env := newEnv(t, 10)
	unsafe, grid := characterize(t, env)
	pol, err := NewPolling(unsafe, env.Platform.Spec.BusMHz, core.DefaultGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	msv := grid.MaximalSafeOffsetMV(5)
	all := []Countermeasure{
		None{},
		&AccessControl{},
		pol,
		&Microcode{MaxSafeOffsetMV: msv},
		&ClampMSR{LimitMV: msv},
	}
	wantBenign := []bool{true, false, true, true, true}
	wantHW := []bool{false, false, false, true, true}
	for i, cm := range all {
		if cm.AllowsBenignDVFS() != wantBenign[i] {
			t.Errorf("%s: benign DVFS = %v", cm.Name(), cm.AllowsBenignDVFS())
		}
		if cm.HardwareLevel() != wantHW[i] {
			t.Errorf("%s: hardware level = %v", cm.Name(), cm.HardwareLevel())
		}
	}
}

func TestGuardStopsLiveAttackEndToEnd(t *testing.T) {
	// Polling defense vs a live undervolting attacker with victim load.
	env := newEnv(t, 11)
	unsafe, _ := characterize(t, env)
	pol, err := NewPolling(unsafe, env.Platform.Spec.BusMHz, core.DefaultGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := pol.Install(env); err != nil {
		t.Fatal(err)
	}
	p := env.Platform
	freq := p.FreqKHz(1)
	attackOffset := unsafe.OnsetMV[freq] - 50
	attacker := p.Sim.Every(777*sim.Microsecond, func() {
		_ = p.WriteOffsetViaMSR(1, attackOffset, msr.PlaneCore)
	})
	defer attacker.Stop()
	faults := 0
	for i := 0; i < 100; i++ {
		p.Sim.RunFor(333 * sim.Microsecond)
		loop, _ := victim.NewIMulLoop(p.Core(1), 100_000)
		res, err := loop.RunBatch()
		if err != nil {
			t.Fatalf("crash under defense: %v", err)
		}
		faults += res.Faults
	}
	if faults != 0 {
		t.Fatalf("defense leaked %d faults", faults)
	}
	if pol.Guard.Interventions == 0 {
		t.Fatal("defense never intervened")
	}
}

func TestZeroSteppingGivesUnboundedRecoveryWindow(t *testing.T) {
	// The paper's Sec. 4.1 second stepping primitive: zero-stepping gives
	// the adversary "unbounded time between injection of DVFS fault and
	// occurrence of trap deflections". With the realistic slow regulator
	// (0.5 mV/us), a single-stepping attacker could NOT restore the rail
	// between a faulted payload step and the next trap (~10 us later) —
	// the trap would fault and detect the attack. Zero-stepping provides
	// the arbitrarily long dwell that lets the rail recover first.
	spec, err := models.SkyLake()
	if err != nil {
		t.Fatal(err)
	}
	p, err := cpu.NewPlatform(spec, 66)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Core(1)
	attackOffset := 0
	for off := -1; off >= -400; off-- {
		if err := p.WriteOffsetViaMSR(1, off, msr.PlaneCore); err != nil {
			t.Fatal(err)
		}
		p.SettleAll()
		if c.FaultProbability(cpu.ClassIMul) > 0.05 && c.CrashProbability() < 1e-9 {
			attackOffset = off
			break
		}
	}
	if err := p.WriteOffsetViaMSR(1, 0, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()

	mf := &Minefield{Density: 3}
	inner, err := victim.NewIMulLoop(c, 800)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mf.Instrument(inner, c)
	if err != nil {
		t.Fatal(err)
	}
	stepper := sgx.NewStepper(p.Sim)
	// Rail travel for |attackOffset| at 0.5 mV/us plus command latency.
	dwell := sim.Duration(float64(-attackOffset)/0.5)*sim.Microsecond + 40*sim.Microsecond
	railLow := false
	arm := func() {
		if prog.NextIsTrap() {
			if railLow {
				_ = p.WriteOffsetViaMSR(1, 0, msr.PlaneCore)
				stepper.ZeroStep(dwell) // unbounded attacker time: rail recovers
				railLow = false
			}
			return
		}
		if !railLow {
			_ = p.WriteOffsetViaMSR(1, attackOffset, msr.PlaneCore)
			stepper.ZeroStep(dwell) // rail descends before the payload step
			railLow = true
		}
	}
	arm()
	err = stepper.Run(prog, func(int) error { arm(); return nil })
	if errors.Is(err, ErrTrapped) {
		t.Fatal("zero-stepping adversary still tripped a trap")
	}
	if err != nil {
		t.Fatal(err)
	}
	if inner.Faults == 0 {
		t.Fatal("no payload faults — zero-stepping bypass failed")
	}
	if stepper.ZeroSteps == 0 {
		t.Fatal("test exercised no zero-stepping")
	}
}
