package plugvolt_test

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"plugvolt"
	"plugvolt/internal/attack"
	"plugvolt/internal/core"
	"plugvolt/internal/defense"
	"plugvolt/internal/msr"
	"plugvolt/internal/pstate"
	"plugvolt/internal/sim"
)

// characterize boots a model at seed and runs the standard quick sweep on
// workers workers (0 means GOMAXPROCS).
func characterize(t *testing.T, model string, seed int64, workers int) (*plugvolt.System, *plugvolt.Grid) {
	t.Helper()
	sys, err := plugvolt.NewSystem(model, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := plugvolt.QuickSweep()
	cfg.Workers = workers
	grid, err := sys.Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, grid
}

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
	sys, grid := characterize(t, "skylake", 5, 0)
	guard, err := sys.DeployGuard(grid)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Kernel.Loaded(core.ModuleName) {
		t.Fatal("guard module not resident after DeployGuard")
	}
	res, err := attack.DefaultV0LTpwn().Run(sys.Env(), guard.Name())
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
	sys, grid := characterize(t, "skylake", 5, 0)
	if _, err := sys.DeployGuard(nil); err == nil {
		t.Fatal("nil grid accepted")
	}
	if _, err := sys.Defenses(nil); err == nil {
		t.Fatal("nil grid accepted by Defenses")
	}
	bad := plugvolt.DefaultGuardConfig()
	bad.PollPeriod = 0
	if _, err := sys.DeployGuardConfig(grid, bad); err == nil {
		t.Fatal("bad guard config accepted")
	}
}

func TestDefensesLineup(t *testing.T) {
	sys, grid := characterize(t, "skylake", 6, 0)
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

// TestBenignUndervoltThroughEachDefense is E2's "Benign DVFS OK" column
// measured live: with an enclave resident, a benign process writes a safe
// undervolt through each deployed defense. It lands, at the offset it lands
// at undefended, under every defense except SA-00289's access control,
// which raises #GP and leaves the register at 0. Each outcome must match
// the defense's self-declared AllowsBenignDVFS and the column of
// artifacts/e2_defense_matrix.txt.
func TestBenignUndervoltThroughEachDefense(t *testing.T) {
	sys, grid := characterize(t, "kabylaker", 7, 0)
	// 25 mV shallower than the universal boundary: inside every defense's
	// allowance (the guard's margin and the hardware clamp's band).
	benign := grid.MaximalSafeOffsetMV(25)
	if benign >= 0 {
		t.Fatalf("no benign undervolt to request (%d mV)", benign)
	}
	defs, err := sys.Defenses(grid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Registry.Create("tee-service", 3); err != nil {
		t.Fatal(err)
	}
	artifact := e2BenignColumn(t)
	undefended := 0
	for _, cm := range defs {
		if err := cm.Install(sys.Env()); err != nil {
			t.Fatal(err)
		}
		writeErr := sys.Platform.WriteOffsetViaMSR(0, benign, msr.PlaneCore)
		sys.RunFor(5 * sim.Millisecond)
		applied := sys.Platform.Core(0).OffsetMV()
		if err := sys.Platform.WriteOffsetViaMSR(0, 0, msr.PlaneCore); err != nil && writeErr == nil {
			t.Fatalf("%s: reset write failed: %v", cm.Name(), err)
		}
		sys.RunFor(2 * sim.Millisecond)
		if err := cm.Uninstall(sys.Env()); err != nil {
			t.Fatal(err)
		}

		var gp *msr.GPFault
		switch _, lockdown := cm.(*defense.AccessControl); {
		case lockdown:
			if !errors.As(writeErr, &gp) || applied != 0 {
				t.Errorf("%s: benign write gave (%v, %d mV), want #GP and 0 mV", cm.Name(), writeErr, applied)
			}
		case writeErr != nil:
			t.Errorf("%s: benign %d mV write rejected: %v", cm.Name(), benign, writeErr)
		case cm.Name() == "none":
			undefended = applied
		case applied != undefended || applied == 0:
			t.Errorf("%s: benign %d mV write landed at %d mV, undefended %d mV", cm.Name(), benign, applied, undefended)
		}
		landed := writeErr == nil && applied != 0
		if landed != cm.AllowsBenignDVFS() {
			t.Errorf("%s: benign write landed=%v, AllowsBenignDVFS()=%v", cm.Name(), landed, cm.AllowsBenignDVFS())
		}
		row, ok := artifact.lookup(cm.Name())
		if !ok {
			t.Errorf("%s: no row in artifacts/e2_defense_matrix.txt", cm.Name())
		} else if want := row == "yes"; landed != want {
			t.Errorf("%s: benign write landed=%v, artifact says %q", cm.Name(), landed, row)
		}
	}
}

// e2Column maps artifact row names to one column's cell.
type e2Column map[string]string

// lookup finds the row whose name is the defense's name or its prefix
// ("clamp MSR" for "clamp MSR (MSR_VOLTAGE_OFFSET_LIMIT)").
func (c e2Column) lookup(name string) (string, bool) {
	for row, cell := range c {
		if name == row || strings.HasPrefix(name, row+" ") {
			return cell, true
		}
	}
	return "", false
}

// e2BenignColumn reads the "Benign DVFS OK" column of the committed E2
// table: fixed-width columns of 32, 16, 18, 20 and 16 characters.
func e2BenignColumn(t *testing.T) e2Column {
	t.Helper()
	data, err := os.ReadFile("artifacts/e2_defense_matrix.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 2 || strings.TrimSpace(lines[0][50:68]) != "Benign DVFS OK" {
		t.Fatalf("unexpected E2 table header %q", lines[0])
	}
	col := e2Column{}
	for _, l := range lines[1:] {
		col[strings.TrimSpace(l[:32])] = strings.TrimSpace(l[50:68])
	}
	return col
}

// TestOndemandDrivesGuardedCometLake is E2's "Benign DVFS OK" for polling
// under a governor-driven load, not only at a pinned frequency: the
// ondemand governor chases a bursty load through Comet Lake's P-states,
// from its lowest ratios to turbo, while the guard polls, and the guard
// never intervenes.
func TestOndemandDrivesGuardedCometLake(t *testing.T) {
	sys, grid := characterize(t, "cometlake", 11, 0)
	guard, err := sys.DeployGuard(grid)
	if err != nil {
		t.Fatal(err)
	}
	load := 0.0
	mgr, err := pstate.NewManager(sys.Platform.Sim, sys.Platform, func(int) float64 { return load })
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetGovernor(0, pstate.GovOndemand); err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	defer mgr.Stop()
	table := sys.Platform.FreqTableKHz()
	visited := map[int]bool{}
	for _, ph := range []struct {
		load     float64
		atLeast  int // lowest acceptable frequency after the phase, kHz
		atMost   int // highest acceptable frequency, kHz
		describe string
	}{
		{0.05, table[0], table[len(table)/4], "idle"},
		{0.95, table[len(table)-1], table[len(table)-1], "burst"},
		{0.55, table[len(table)/4], table[3*len(table)/4], "steady"},
		{0.02, table[0], table[len(table)/4], "idle"},
		{1.00, table[len(table)-1], table[len(table)-1], "burst"},
	} {
		load = ph.load
		sys.RunFor(60 * sim.Millisecond)
		sys.Platform.SettleAll()
		f := sys.Platform.FreqKHz(0)
		visited[f] = true
		if f < ph.atLeast || f > ph.atMost {
			t.Errorf("%s at load %.2f: core 0 at %d kHz, want %d..%d", ph.describe, ph.load, f, ph.atLeast, ph.atMost)
		}
		if guard.Guard.Interventions != 0 {
			t.Fatalf("%s at load %.2f (%d kHz): guard intervened %d times on benign governor activity",
				ph.describe, ph.load, f, guard.Guard.Interventions)
		}
	}
	if len(visited) < 3 || mgr.Transitions < 4 {
		t.Errorf("governor visited %d frequencies in %d transitions, want a sweep", len(visited), mgr.Transitions)
	}
	if guard.Guard.Checks == 0 {
		t.Fatal("guard never polled")
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
		raw, _ := p.MSRFile(i).Read(msr.OCMailbox)
		st.mailbox = append(st.mailbox, raw)
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
