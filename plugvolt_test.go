package plugvolt_test

import (
	"errors"
	"reflect"
	"testing"

	"plugvolt"
	"plugvolt/internal/core"
	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
)

func TestNewSystemModels(t *testing.T) {
	for _, m := range plugvolt.Models() {
		sys, err := plugvolt.NewSystem(m, 1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if sys.Platform == nil || sys.Kernel == nil || sys.Registry == nil || sys.CPUFreq == nil {
			t.Fatalf("%s: incomplete system", m)
		}
		if err := sys.Env().Validate(); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
	if _, err := plugvolt.NewSystem("itanium", 1); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestSweepConfigs(t *testing.T) {
	paper := plugvolt.PaperSweep()
	if paper.Iterations != 1_000_000 || paper.OffsetStepMV != -1 || paper.OffsetEndMV != -300 {
		t.Fatalf("paper sweep drifted from Algorithm 2: %+v", paper)
	}
	quick := plugvolt.QuickSweep()
	if quick.OffsetStepMV != -5 || quick.Iterations != 200_000 {
		t.Fatalf("quick sweep: %+v", quick)
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	sys, err := plugvolt.NewSystem("skylake", 5)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sys.Characterize(plugvolt.QuickSweep())
	if err != nil {
		t.Fatal(err)
	}
	guard, err := sys.DeployGuard(grid)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Kernel.Loaded(core.ModuleName) {
		t.Fatal("guard module not resident after DeployGuard")
	}
	res, err := plugvolt.NewV0LTpwn().Run(sys.Env(), guard.Name())
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded {
		t.Fatalf("attack beat the facade-deployed guard: %s", res)
	}
	sys.RunFor(1 * sim.Millisecond)
	if err := guard.Uninstall(sys.Env()); err != nil {
		t.Fatal(err)
	}
}

func TestDeployGuardValidation(t *testing.T) {
	sys, err := plugvolt.NewSystem("skylake", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DeployGuard(nil); err == nil {
		t.Fatal("nil grid accepted")
	}
	if _, err := sys.Defenses(nil); err == nil {
		t.Fatal("nil grid accepted by Defenses")
	}
	grid, err := sys.Characterize(plugvolt.QuickSweep())
	if err != nil {
		t.Fatal(err)
	}
	bad := plugvolt.DefaultGuardConfig()
	bad.PollPeriod = 0
	if _, err := sys.DeployGuardConfig(grid, bad); err == nil {
		t.Fatal("bad guard config accepted")
	}
}

func TestDefensesLineup(t *testing.T) {
	sys, err := plugvolt.NewSystem("skylake", 6)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sys.Characterize(plugvolt.QuickSweep())
	if err != nil {
		t.Fatal(err)
	}
	defs, err := sys.Defenses(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 5 {
		t.Fatalf("lineup size %d", len(defs))
	}
	// All installable and uninstallable on the same env, one at a time.
	for _, cm := range defs {
		if err := cm.Install(sys.Env()); err != nil {
			t.Fatalf("%s install: %v", cm.Name(), err)
		}
		if err := cm.Uninstall(sys.Env()); err != nil {
			t.Fatalf("%s uninstall: %v", cm.Name(), err)
		}
	}
}

func TestCharacterizeInvalidConfig(t *testing.T) {
	sys, err := plugvolt.NewSystem("skylake", 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := plugvolt.QuickSweep()
	cfg.Iterations = -1
	if _, err := sys.Characterize(cfg); err == nil {
		t.Fatal("invalid sweep accepted")
	}
	var sentinel error
	_ = errors.Is(err, sentinel) // document: errors are plain, not typed
}

// platformState is what a characterization on the system's own platform
// would disturb: the sim clock, the reboot count, and each core's offset,
// PLL ratio and raw MSR 0x150.
type platformState struct {
	now     sim.Time
	reboots int
	offsets []int
	ratios  []uint8
	mailbox []uint64
}

func snapshotPlatform(sys *plugvolt.System) platformState {
	p := sys.Platform
	st := platformState{now: p.Sim.Now(), reboots: p.Reboots}
	for i, c := range p.Cores() {
		st.offsets = append(st.offsets, c.OffsetMV())
		st.ratios = append(st.ratios, c.Ratio())
		st.mailbox = append(st.mailbox, p.MSRFile(i).Peek(msr.OCMailbox))
	}
	return st
}

// checkCharacterizeLeavesPlatform characterizes an undervolted, running
// system with the given strategy and requires its platform unchanged.
func checkCharacterizeLeavesPlatform(t *testing.T, strategy string) {
	t.Helper()
	sys, err := plugvolt.NewSystem("skylake", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Platform.WriteOffsetViaMSR(1, -20, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(1 * sim.Millisecond)
	before := snapshotPlatform(sys)
	cfg := plugvolt.QuickSweep()
	cfg.Strategy = strategy
	grid, err := sys.Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Reboots == 0 {
		t.Fatal("sweep crashed no row; the reboot count proves nothing")
	}
	if after := snapshotPlatform(sys); !reflect.DeepEqual(before, after) {
		t.Fatalf("%s characterization changed s.Platform:\nbefore %+v\nafter  %+v", strategy, before, after)
	}
}

func TestCharacterizeSweepLeavesPlatformUntouched(t *testing.T) {
	checkCharacterizeLeavesPlatform(t, core.StrategySweep)
}

func TestCharacterizeBisectLeavesPlatformUntouched(t *testing.T) {
	checkCharacterizeLeavesPlatform(t, core.StrategyBisect)
}

func TestAttestationCarriesHTStatus(t *testing.T) {
	// 4C/8T parts attest hyperthreading enabled; the 4C/4T desktop does not.
	ht, err := plugvolt.NewSystem("kabylaker", 1)
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := ht.Registry.Create("x", 0)
	if !e1.Attest(1).HyperThreadingEnabled {
		t.Fatal("kabylaker attestation missing HT flag")
	}
	noHT, err := plugvolt.NewSystem("skylake", 1)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := noHT.Registry.Create("x", 0)
	if e2.Attest(1).HyperThreadingEnabled {
		t.Fatal("skylake attestation claims HT")
	}
}
