package pstate

import (
	"testing"

	"plugvolt/internal/cpu"
	"plugvolt/internal/models"
	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
)

// testRig builds a Sky Lake platform with a pstate manager attached.
func testRig(t *testing.T, load LoadFn) (*cpu.Platform, *Manager) {
	t.Helper()
	spec, err := models.SkyLake()
	if err != nil {
		t.Fatal(err)
	}
	p, err := cpu.NewPlatform(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(p.Sim, p, load)
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

func TestNewManagerDefaults(t *testing.T) {
	p, m := testRig(t, nil)
	for i := 0; i < p.NumCores(); i++ {
		pol, err := m.Policy(i)
		if err != nil {
			t.Fatal(err)
		}
		if pol.Governor != GovPerformance {
			t.Errorf("core %d default governor %q", i, pol.Governor)
		}
		if pol.MinKHz != 800_000 || pol.MaxKHz != 3_600_000 {
			t.Errorf("core %d bounds %d..%d", i, pol.MinKHz, pol.MaxKHz)
		}
	}
	if _, err := m.Policy(99); err == nil {
		t.Error("policy for bogus core")
	}
}

func TestPerformanceGovernorPinsMax(t *testing.T) {
	p, m := testRig(t, nil)
	if err := m.SetGovernor(0, GovPerformance); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	if got := p.FreqKHz(0); got != 3_600_000 {
		t.Fatalf("performance governor freq %d", got)
	}
}

func TestPowersaveGovernorPinsMin(t *testing.T) {
	p, m := testRig(t, nil)
	if err := m.SetGovernor(0, GovPowersave); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	if got := p.FreqKHz(0); got != 800_000 {
		t.Fatalf("powersave governor freq %d", got)
	}
}

func TestUserspaceGovernorSetSpeed(t *testing.T) {
	p, m := testRig(t, nil)
	if err := m.SetSpeed(0, 2_000_000); err == nil {
		t.Fatal("SetSpeed under non-userspace governor accepted")
	}
	if err := m.SetGovernor(0, GovUserspace); err != nil {
		t.Fatal(err)
	}
	if err := m.SetSpeed(0, 2_000_000); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	if got := p.FreqKHz(0); got != 2_000_000 {
		t.Fatalf("userspace speed %d", got)
	}
	// Off-grid request snaps to nearest table entry.
	if err := m.SetSpeed(0, 2_040_000); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	if got := p.FreqKHz(0); got != 2_000_000 {
		t.Fatalf("off-grid snapped to %d", got)
	}
}

func TestUnknownGovernorRejected(t *testing.T) {
	_, m := testRig(t, nil)
	if err := m.SetGovernor(0, "turbo-nitro"); err == nil {
		t.Fatal("unknown governor accepted")
	}
	if err := m.SetGovernor(-1, GovPerformance); err == nil {
		t.Fatal("negative core accepted")
	}
}

func TestOndemandGovernorTracksLoad(t *testing.T) {
	load := 0.0
	p, m := testRig(t, func(core int) float64 { return load })
	if err := m.SetGovernor(0, GovOndemand); err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Stop()

	load = 1.0 // saturated: jump to max
	p.Sim.RunFor(25 * sim.Millisecond)
	p.SettleAll()
	if got := p.FreqKHz(0); got != 3_600_000 {
		t.Fatalf("ondemand under full load: %d", got)
	}

	load = 0.0 // idle: fall to min
	p.Sim.RunFor(25 * sim.Millisecond)
	p.SettleAll()
	if got := p.FreqKHz(0); got != 800_000 {
		t.Fatalf("ondemand idle: %d", got)
	}

	load = 0.5 // proportional middle
	p.Sim.RunFor(25 * sim.Millisecond)
	p.SettleAll()
	got := p.FreqKHz(0)
	if got < 1_800_000 || got > 2_600_000 {
		t.Fatalf("ondemand at 50%% load: %d", got)
	}
}

func TestConservativeGovernorStepsGradually(t *testing.T) {
	load := 1.0
	p, m := testRig(t, func(core int) float64 { return load })
	if err := m.SetGovernor(0, GovUserspace); err != nil {
		t.Fatal(err)
	}
	if err := m.SetSpeed(0, 800_000); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	if err := m.SetGovernor(0, GovConservative); err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Stop()
	// One sample: exactly one 100 MHz step up.
	p.Sim.RunFor(11 * sim.Millisecond)
	p.SettleAll()
	if got := p.FreqKHz(0); got != 900_000 {
		t.Fatalf("conservative first step: %d", got)
	}
	// Drop load: steps back down.
	load = 0.0
	p.Sim.RunFor(11 * sim.Millisecond)
	p.SettleAll()
	if got := p.FreqKHz(0); got != 800_000 {
		t.Fatalf("conservative step down: %d", got)
	}
	if m.Transitions == 0 {
		t.Fatal("no transitions counted")
	}
}

func TestCPUPowerFrequencySet(t *testing.T) {
	// The Algorithm 2 path: cpupower forces userspace and pins frequency.
	p, m := testRig(t, nil)
	cp := &CPUPower{M: m}
	if err := cp.FrequencySet(1, 1_500_000); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	if got := p.FreqKHz(1); got != 1_500_000 {
		t.Fatalf("cpupower set freq %d", got)
	}
	pol, _ := m.Policy(1)
	if pol.Governor != GovUserspace {
		t.Fatalf("cpupower left governor %q", pol.Governor)
	}
}

func TestSetSpeedBogusCore(t *testing.T) {
	_, m := testRig(t, nil)
	if err := m.SetSpeed(9, 1_000_000); err == nil {
		t.Fatal("bogus core accepted")
	}
}

func TestSchedutilGovernorTracksUtilization(t *testing.T) {
	load := 0.0
	p, m := testRig(t, func(core int) float64 { return load })
	if err := m.SetGovernor(0, GovSchedutil); err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Stop()

	load = 1.0
	p.Sim.RunFor(25 * sim.Millisecond)
	p.SettleAll()
	if got := p.FreqKHz(0); got != 3_600_000 {
		t.Fatalf("schedutil at full util: %d", got)
	}

	load = 0.5 // 1.25 * 3.6 GHz * 0.5 = 2.25 GHz -> nearest 2.2/2.3
	p.Sim.RunFor(25 * sim.Millisecond)
	p.SettleAll()
	if got := p.FreqKHz(0); got < 2_100_000 || got > 2_400_000 {
		t.Fatalf("schedutil at 50%% util: %d", got)
	}

	load = 0.0
	p.Sim.RunFor(25 * sim.Millisecond)
	p.SettleAll()
	if got := p.FreqKHz(0); got != 800_000 {
		t.Fatalf("schedutil idle: %d", got)
	}
}

// TestManagerResetMatchesNew resets a manager whose policies, sample period
// and transition count have all moved and whose ondemand loop is running,
// and requires NewManager's state: every policy back to performance over
// the full table, the default period, zero transitions, no P-state request
// issued, and the loop stopped.
func TestManagerResetMatchesNew(t *testing.T) {
	p, m := testRig(t, func(int) float64 { return 1 })
	if err := m.SetGovernor(0, GovUserspace); err != nil {
		t.Fatal(err)
	}
	if err := m.SetSpeed(0, 1_200_000); err != nil {
		t.Fatal(err)
	}
	if err := m.SetGovernor(2, GovOndemand); err != nil {
		t.Fatal(err)
	}
	m.SamplePeriod = sim.Millisecond
	m.Start()
	p.Sim.RunFor(5 * sim.Millisecond)
	if m.Transitions == 0 {
		t.Fatal("precondition: no transitions")
	}
	writes := 0
	p.MSRFile(0).AddWriteHook(msr.IA32PerfCtl, func(_ *msr.File, _, v uint64) (uint64, error) {
		writes++
		return v, nil
	})
	m.Reset()
	fresh, err := NewManager(p.Sim, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.NumCores(); i++ {
		got, _ := m.Policy(i)
		want, _ := fresh.Policy(i)
		if got != want {
			t.Errorf("core %d: reset policy %+v, new one %+v", i, got, want)
		}
	}
	if m.SamplePeriod != fresh.SamplePeriod || m.Transitions != 0 || writes != 0 {
		t.Errorf("reset: period %v transitions %d, %d P-state writes", m.SamplePeriod, m.Transitions, writes)
	}
	// Core 0 still runs at 1.2 GHz: a live loop would move it to the top.
	if err := m.SetGovernor(0, GovOndemand); err != nil {
		t.Fatal(err)
	}
	p.Sim.RunFor(50 * sim.Millisecond)
	if m.Transitions != 0 {
		t.Errorf("the sampling loop survived the reset: %d transitions", m.Transitions)
	}
}
