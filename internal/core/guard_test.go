package core

import (
	"errors"
	"testing"

	"plugvolt/internal/cpu"
	"plugvolt/internal/kernel"
	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
	"plugvolt/internal/telemetry/span"
	"plugvolt/internal/victim"
)

// guardRig characterizes a Sky Lake machine, builds the guard and a kernel,
// and returns everything needed for live experiments.
func guardRig(t *testing.T, seed int64) (*cpu.Platform, *kernel.Kernel, *Guard, *UnsafeSet) {
	t.Helper()
	p := newPlatform(t, "skylake", seed)
	unsafe := sweepGrid(t, "skylake", seed, quickSweepConfig()).UnsafeSet()
	k := kernel.New(p.Sim, p)
	guard, err := NewGuard(unsafe, p.Spec.BusMHz, DefaultGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p, k, guard, unsafe
}

func TestNewGuardValidation(t *testing.T) {
	u := &UnsafeSet{FloorMV: -300}
	if _, err := NewGuard(nil, 100, DefaultGuardConfig()); err == nil {
		t.Fatal("nil unsafe set accepted")
	}
	if _, err := NewGuard(u, 0, DefaultGuardConfig()); err == nil {
		t.Fatal("zero bus clock accepted")
	}
	bad := DefaultGuardConfig()
	bad.PollPeriod = 0
	if _, err := NewGuard(u, 100, bad); err == nil {
		t.Fatal("zero poll period accepted")
	}
	bad = DefaultGuardConfig()
	bad.SafeOffsetMV = 10
	if _, err := NewGuard(u, 100, bad); err == nil {
		t.Fatal("positive safe offset accepted")
	}
}

func TestGuardModuleLifecycle(t *testing.T) {
	_, k, guard, _ := guardRig(t, 21)
	if guard.Running() {
		t.Fatal("guard running before load")
	}
	if err := k.Load(guard.Module()); err != nil {
		t.Fatal(err)
	}
	if !guard.Running() || !k.Loaded(ModuleName) {
		t.Fatal("guard not running after load")
	}
	if err := k.Unload(ModuleName); err != nil {
		t.Fatal(err)
	}
	if guard.Running() {
		t.Fatal("guard running after unload")
	}
}

func TestGuardModuleBadPinnedCore(t *testing.T) {
	_, k, _, unsafe := guardRig(t, 21)
	cfg := DefaultGuardConfig()
	cfg.PinnedCore = 99
	g, err := NewGuard(unsafe, 100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Load(g.Module()); err == nil {
		t.Fatal("guard loaded on nonexistent core")
	}
}

func TestGuardForcesUnsafeStateBack(t *testing.T) {
	p, k, guard, unsafe := guardRig(t, 22)
	if err := k.Load(guard.Module()); err != nil {
		t.Fatal(err)
	}
	victimCore := 1
	// Adversary: pin a mid frequency and write a deeply unsafe offset.
	freq := p.FreqKHz(victimCore)
	onset, ok := unsafe.OnsetMV[freq]
	if !ok {
		t.Fatalf("no onset at %d kHz", freq)
	}
	attackOffset := onset - 40
	if err := p.WriteOffsetViaMSR(victimCore, attackOffset, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	if !unsafe.Contains(freq, attackOffset) {
		t.Fatal("attack offset not in unsafe set — test broken")
	}
	// Within one poll period (+ slack) the guard must rewrite 0x150.
	p.Sim.RunFor(2 * sim.Millisecond)
	if guard.Interventions == 0 {
		t.Fatal("guard never intervened")
	}
	if got := p.Core(victimCore).OffsetMV(); got != guard.cfg.SafeOffsetMV {
		t.Fatalf("offset after intervention %d, want %d", got, guard.cfg.SafeOffsetMV)
	}
	if guard.LastIntervention == 0 {
		t.Fatal("intervention time not recorded")
	}
}

func TestGuardLeavesBenignUndervoltAlone(t *testing.T) {
	// The paper's headline advantage over access control: benign, safe
	// undervolting keeps working under the countermeasure.
	p, k, guard, unsafe := guardRig(t, 23)
	if err := k.Load(guard.Module()); err != nil {
		t.Fatal(err)
	}
	victimCore := 1
	freq := p.FreqKHz(victimCore)
	onset := unsafe.OnsetMV[freq]
	benign := onset + 30 // 30 mV shallower than the boundary: safe
	if unsafe.Contains(freq, benign) {
		t.Fatalf("benign offset %d unexpectedly unsafe", benign)
	}
	if err := p.WriteOffsetViaMSR(victimCore, benign, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.Sim.RunFor(10 * sim.Millisecond)
	if guard.Interventions != 0 {
		t.Fatalf("guard intervened %d times on a safe undervolt", guard.Interventions)
	}
	if got := p.Core(victimCore).OffsetMV(); got != benign {
		t.Fatalf("benign offset clobbered: %d", got)
	}
	if guard.Checks == 0 {
		t.Fatal("guard not polling")
	}
}

func TestGuardEliminatesFaultsUnderContinuousAttack(t *testing.T) {
	// End-to-end Sec. 4.3 claim: with the module loaded, the EXECUTE
	// thread observes zero faults even while an attacker keeps rewriting
	// 0x150 to unsafe values.
	p, k, guard, unsafe := guardRig(t, 24)
	if err := k.Load(guard.Module()); err != nil {
		t.Fatal(err)
	}
	victimCore := 1
	freq := p.FreqKHz(victimCore)
	attackOffset := unsafe.OnsetMV[freq] - 60

	totalFaults := 0
	// Attacker rewrites the unsafe offset every 5.3 ms (deliberately not a
	// multiple of the poll period, so detection latency is exercised). The
	// guard reads the *register* within 100 us, long before the regulator
	// (20 us command + 0.5 mV/us slew, i.e. hundreds of us to fault depth)
	// realizes the unsafe voltage — so the rail never dips far enough to
	// fault and the EXECUTE thread stays clean.
	attacker := p.Sim.Every(5300*sim.Microsecond, func() {
		_ = p.WriteOffsetViaMSR(victimCore, attackOffset, msr.PlaneCore)
	})
	defer attacker.Stop()

	// Victim: repeated imul batches sampling the live (slewing) voltage.
	for i := 0; i < 200; i++ {
		p.Sim.RunFor(250 * sim.Microsecond)
		loop, err := victim.NewIMulLoop(p.Core(victimCore), 50_000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := loop.RunBatch()
		if err != nil {
			t.Fatalf("crash under guarded attack: %v", err)
		}
		totalFaults += res.Faults
	}
	if totalFaults != 0 {
		t.Fatalf("guard failed to eliminate faults: %d observed", totalFaults)
	}
	if guard.Interventions == 0 {
		t.Fatal("attack ran but guard never intervened")
	}
}

func TestWithoutGuardSameAttackFaults(t *testing.T) {
	// Control experiment for the test above: identical attack, no module.
	p, _, _, unsafe := guardRig(t, 24)
	victimCore := 1
	freq := p.FreqKHz(victimCore)
	attackOffset := unsafe.OnsetMV[freq] - 60
	if err := p.WriteOffsetViaMSR(victimCore, attackOffset, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	totalFaults, crashed := 0, false
	for i := 0; i < 20; i++ {
		loop, err := victim.NewIMulLoop(p.Core(victimCore), 50_000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := loop.RunBatch()
		if err != nil {
			crashed = true // a crash also shows the unguarded system failing
			break
		}
		totalFaults += res.Faults
	}
	if totalFaults == 0 && !crashed {
		t.Fatal("unguarded attack caused no faults — control experiment broken")
	}
}

func TestGuardSafeOffsetPreservesMaximalSafeUndervolt(t *testing.T) {
	// Deploying the guard with SafeOffsetMV = maximal safe state keeps
	// even the forced state undervolted (flexibility argument of Sec. 5).
	p := newPlatform(t, "skylake", 25)
	grid := sweepGrid(t, "skylake", 25, quickSweepConfig())
	msv := grid.MaximalSafeOffsetMV(5)
	unsafe := grid.UnsafeSet()
	cfg := DefaultGuardConfig()
	cfg.SafeOffsetMV = msv
	guard, err := NewGuard(unsafe, p.Spec.BusMHz, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(p.Sim, p)
	if err := k.Load(guard.Module()); err != nil {
		t.Fatal(err)
	}
	victimCore := 1
	freq := p.FreqKHz(victimCore)
	if err := p.WriteOffsetViaMSR(victimCore, unsafe.OnsetMV[freq]-50, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.Sim.RunFor(3 * sim.Millisecond)
	if got := p.Core(victimCore).OffsetMV(); got > msv+2 || got < msv-2 {
		t.Fatalf("forced offset %d, want maximal safe %d", got, msv)
	}
	if unsafe.Contains(freq, p.Core(victimCore).OffsetMV()) {
		t.Fatal("forced state itself unsafe")
	}
}

func TestGuardOverheadIsTiny(t *testing.T) {
	// The kthread's stolen time over a second of polling must be well
	// under the paper's 0.28% end-to-end figure.
	p, k, guard, _ := guardRig(t, 26)
	if err := k.Load(guard.Module()); err != nil {
		t.Fatal(err)
	}
	k.ResetStolenTime()
	window := 1 * sim.Second
	p.Sim.RunFor(window)
	frac := float64(k.StolenTime(guard.cfg.PinnedCore)) / float64(window)
	if frac <= 0 {
		t.Fatal("no polling cost accounted")
	}
	// Direct cost on the pinned core must stay below 1%; spread across the
	// machine's cores this is the order of the paper's 0.28% result.
	if frac > 0.01 {
		t.Fatalf("direct polling cost %.4f%% too high", frac*100)
	}
}

func TestWorstCaseTurnaround(t *testing.T) {
	_, _, guard, unsafe := guardRig(t, 27)
	ta := guard.WorstCaseTurnaround(10*sim.Microsecond, 5)
	// Must be dominated by the poll period (1 ms) plus VR travel.
	if ta <= guard.cfg.PollPeriod {
		t.Fatalf("turnaround %v not accounting for VR", ta)
	}
	depthMV := float64(guard.cfg.SafeOffsetMV - unsafe.FloorMV)
	if depthMV < 0 {
		depthMV = -depthMV
	}
	want := guard.cfg.PollPeriod + 10*sim.Microsecond + sim.Duration(depthMV/5*float64(sim.Microsecond))
	if ta != want {
		t.Fatalf("turnaround %v, want %v", ta, want)
	}
}

func TestGuardSurvivesCrashedCore(t *testing.T) {
	// Failure injection: when a core machine-checks mid-campaign, the
	// guard's per-core MSR reads keep working for the remaining cores
	// (crashed cores have fresh MSR state after reboot; the guard itself
	// must never wedge or panic while a core is down).
	p, k, guard, unsafe := guardRig(t, 30)
	if err := k.Load(guard.Module()); err != nil {
		t.Fatal(err)
	}
	// Crash core 2 via catastrophic undervolt executed directly (bypassing
	// the register so the guard cannot prevent it — raw rail injection).
	c2 := p.Core(2)
	c2.VR.SetTarget(300) // far below Vth territory
	p.SettleAll()
	_, err := c2.RunBatch(cpu.ClassIMul, 1_000_000)
	if err == nil {
		t.Fatal("precondition: core 2 did not crash")
	}
	checksBefore := guard.Checks
	p.Sim.RunFor(5 * sim.Millisecond)
	if guard.Checks <= checksBefore {
		t.Fatal("guard stopped polling after a core crash")
	}
	// And it still protects the healthy cores.
	freq := p.FreqKHz(1)
	if err := p.WriteOffsetViaMSR(1, unsafe.OnsetMV[freq]-50, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.Sim.RunFor(2 * sim.Millisecond)
	if got := p.Core(1).OffsetMV(); got != guard.cfg.SafeOffsetMV {
		t.Fatalf("healthy core not protected while core 2 down: offset %d", got)
	}
}

func TestGuardModuleReloadAfterReboot(t *testing.T) {
	// Failure injection: a reboot wipes hardware state; reloading the
	// module must restart protection cleanly.
	p, k, guard, unsafe := guardRig(t, 31)
	if err := k.Load(guard.Module()); err != nil {
		t.Fatal(err)
	}
	p.Core(3).VR.SetTarget(300)
	p.SettleAll()
	if _, err := p.Core(3).RunBatch(cpu.ClassIMul, 1_000_000); !errors.Is(err, cpu.ErrCrashed) {
		t.Fatal("precondition: no crash")
	}
	// Reboot: module does not survive (fresh kernel); unload + reload.
	p.Reboot()
	if err := k.Unload(ModuleName); err != nil {
		t.Fatal(err)
	}
	guard2, err := NewGuard(unsafe, p.Spec.BusMHz, DefaultGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Load(guard2.Module()); err != nil {
		t.Fatal(err)
	}
	freq := p.FreqKHz(1)
	if err := p.WriteOffsetViaMSR(1, unsafe.OnsetMV[freq]-50, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.Sim.RunFor(2 * sim.Millisecond)
	if guard2.Interventions == 0 {
		t.Fatal("reloaded guard not protecting")
	}
}

func TestPerCoreGuardDeployment(t *testing.T) {
	p, k, _, unsafe := guardRig(t, 33)
	cfg := DefaultGuardConfig()
	cfg.PerCoreThreads = true
	guard, err := NewGuard(unsafe, p.Spec.BusMHz, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Load(guard.Module()); err != nil {
		t.Fatal(err)
	}
	if !guard.Running() {
		t.Fatal("per-core guard not running")
	}
	// Protection works identically.
	freq := p.FreqKHz(2)
	if err := p.WriteOffsetViaMSR(2, unsafe.OnsetMV[freq]-50, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.Sim.RunFor(2 * sim.Millisecond)
	if guard.Interventions == 0 {
		t.Fatal("per-core guard never intervened")
	}
	if got := p.Core(2).OffsetMV(); got != 0 {
		t.Fatalf("offset not restored: %d", got)
	}
	// Overhead is spread evenly: every core pays, none pays the
	// single-thread deployment's 4x bill.
	k.ResetStolenTime()
	p.Sim.RunFor(100 * sim.Millisecond)
	var min, max sim.Duration
	for c := 0; c < p.NumCores(); c++ {
		s := k.StolenTime(c)
		if s <= 0 {
			t.Fatalf("core %d pays nothing", c)
		}
		if c == 0 || s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max > min*2 {
		t.Fatalf("uneven spread: min %v max %v", min, max)
	}
	if err := k.Unload(ModuleName); err != nil {
		t.Fatal(err)
	}
	if guard.Running() {
		t.Fatal("per-core guard running after unload")
	}
	p.Sim.RunFor(5 * sim.Millisecond)
	checks := guard.Checks
	p.Sim.RunFor(5 * sim.Millisecond)
	if guard.Checks != checks {
		t.Fatal("per-core threads still polling after unload")
	}
}

func TestPerCoreGuardVsSingleThreadOverheadShape(t *testing.T) {
	// Ablation: same total polling work, different distribution.
	run := func(perCore bool) (pinned, total sim.Duration) {
		p, k, _, unsafe := guardRig(t, 34)
		cfg := DefaultGuardConfig()
		cfg.PerCoreThreads = perCore
		guard, err := NewGuard(unsafe, p.Spec.BusMHz, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Load(guard.Module()); err != nil {
			t.Fatal(err)
		}
		k.ResetStolenTime()
		p.Sim.RunFor(200 * sim.Millisecond)
		for c := 0; c < p.NumCores(); c++ {
			total += k.StolenTime(c)
		}
		return k.StolenTime(0), total
	}
	pinnedSingle, totalSingle := run(false)
	pinnedPer, totalPer := run(true)
	// The single-thread deployment concentrates everything on core 0.
	if pinnedSingle != totalSingle {
		t.Fatalf("single-thread cost leaked off the pinned core: %v of %v", pinnedSingle, totalSingle)
	}
	// Per-core deployment relieves the pinned core, but not by the naive
	// 4x: each core now pays its own kthread wakeup (300 ns/tick), which
	// dominates the two 50 ns register reads. Measured: ~1.75x relief and
	// ~2.3x total work — the wakeup cost, not the MSR access, is the
	// polling module's real price. Assert the measured shape.
	if pinnedPer >= pinnedSingle {
		t.Fatalf("per-core did not relieve the pinned core: %v vs %v", pinnedPer, pinnedSingle)
	}
	if totalPer <= totalSingle || totalPer > totalSingle*4 {
		t.Fatalf("per-core total implausible: %v vs single %v", totalPer, totalSingle)
	}
}

// TestGuardPollZeroAlloc is the tentpole's allocation contract: a
// steady-state safe poll must not allocate — with telemetry off, and with
// full tracing on once the span buffer has reached its drop-newest steady
// state (a long experiment's normal condition). Uses a small span cap so
// warm-up is cheap; the LUT membership, the preallocated per-core poll
// attrs, the kernel's (core, addr) attr cache and the by-value span Scope
// together make the whole path allocation-free.
func TestGuardPollZeroAlloc(t *testing.T) {
	assertZero := func(name string, g *Guard, kt *kernel.KThread) {
		t.Helper()
		// Warm caches (msr attr maps, span seqs, histogram series).
		for i := 0; i < 200; i++ {
			g.pollOne(kt, 0)
		}
		if allocs := testing.AllocsPerRun(500, func() { g.pollOne(kt, 0) }); allocs != 0 {
			t.Errorf("%s: pollOne allocates %.1f per poll, want 0", name, allocs)
		}
	}

	t.Run("telemetry-off", func(t *testing.T) {
		_, k, guard, _ := guardRig(t, 33)
		if err := k.Load(guard.Module()); err != nil {
			t.Fatal(err)
		}
		assertZero("telemetry-off", guard, guard.thread)
	})

	t.Run("tracing-on", func(t *testing.T) {
		p := newPlatform(t, "skylake", 33)
		grid := sweepGrid(t, "skylake", 33, quickSweepConfig())
		k := kernel.New(p.Sim, p)
		tel := &telemetry.Set{
			Reg:     telemetry.NewRegistry(p.Sim.Now),
			Journal: telemetry.NewJournal(p.Sim.Now, 64),
			Trace:   span.NewTracer(span.Clock(p.Sim.Now), 33, 256),
		}
		tel.Trace.Keep()
		k.SetTelemetry(tel)
		cfg := DefaultGuardConfig()
		cfg.Telemetry = tel
		guard, err := NewGuard(grid.UnsafeSet(), p.Spec.BusMHz, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Load(guard.Module()); err != nil {
			t.Fatal(err)
		}
		assertZero("tracing-on", guard, guard.thread)
		if tel.Trace.Dropped() == 0 {
			t.Fatal("span buffer never reached drop-newest steady state; warm-up too short")
		}
		if guard.Interventions != 0 {
			t.Fatal("safe operating point triggered interventions; test measures the wrong path")
		}
	})
}
