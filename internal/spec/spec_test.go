package spec

import (
	"math"
	"testing"

	"plugvolt/internal/core"
	"plugvolt/internal/cpu"
	"plugvolt/internal/kernel"
	"plugvolt/internal/models"
	"plugvolt/internal/sim"
)

func TestTwentyThreeBenchmarks(t *testing.T) {
	all := All()
	if len(all) != 23 {
		t.Fatalf("benchmark count %d, want 23 (Table 2)", len(all))
	}
	fp, ir := 0, 0
	seen := map[string]bool{}
	for _, b := range all {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %s", b.Name)
		}
		seen[b.Name] = true
		switch b.Suite {
		case FPRate:
			fp++
		case IntRate:
			ir++
		default:
			t.Errorf("%s: unknown suite %q", b.Name, b.Suite)
		}
		if b.InstrPerUnit <= 0 || b.RefBaseRate <= 0 || b.RefPeakRate <= 0 {
			t.Errorf("%s: bad parameters", b.Name)
		}
		sum := 0.0
		for _, f := range b.Mix {
			sum += f
		}
		if math.Abs(sum-1.0) > 1e-9 {
			t.Errorf("%s: mix sums to %v", b.Name, sum)
		}
		cpi := b.WeightedCPI()
		if cpi <= 0 || cpi > 1 {
			t.Errorf("%s: weighted CPI %v", b.Name, cpi)
		}
	}
	if fp != 13 || ir != 10 {
		t.Fatalf("suite split %d FP / %d INT, want 13/10", fp, ir)
	}
}

// TestWeightedCPIIsStable: the mix-weighted CPI feeds Table 2's virtual
// clock, so repeated calls must return the same bits for every benchmark.
// Summing in map order returns more than one bit pattern for most of them.
func TestWeightedCPIIsStable(t *testing.T) {
	for _, b := range All() {
		want := math.Float64bits(b.WeightedCPI())
		for i := 0; i < 50; i++ {
			if got := math.Float64bits(b.WeightedCPI()); got != want {
				t.Fatalf("%s: WeightedCPI returned %#x, then %#x", b.Name, want, got)
			}
		}
	}
}

func TestPaperReferenceRates(t *testing.T) {
	// Spot-check normalization constants against Table 2.
	cases := map[string][2]float64{
		"503.bwaves_r":    {628.59, 604.21},
		"519.lbm_r":       {224.08, 176.56},
		"500.perlbench_r": {295.87511, 253.71},
		"557.xz_r":        {387.71, 373.41},
	}
	for name, want := range cases {
		b, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if b.RefBaseRate != want[0] || b.RefPeakRate != want[1] {
			t.Errorf("%s ref rates %v/%v, want %v/%v", name, b.RefBaseRate, b.RefPeakRate, want[0], want[1])
		}
	}
	if _, ok := ByName("599.nonexistent"); ok {
		t.Fatal("found nonexistent benchmark")
	}
}

// table2Rig builds platform + kernel + guard-toggling closure.
func table2Rig(t *testing.T) (*Harness, func(bool) error, *core.Guard) {
	t.Helper()
	spec, err := models.CometLake() // the paper runs Table 2 on Comet Lake
	if err != nil {
		t.Fatal(err)
	}
	p, err := cpu.NewPlatform(spec, 2017)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultCharacterizerConfig()
	cfg.Iterations = 200_000
	cfg.OffsetStartMV = -5
	cfg.OffsetStepMV = -5
	cfg.OffsetEndMV = -350
	sc, err := core.NewShardedCharacterizer(p.Spec, p.Seed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(p.Sim, p)
	guard, err := core.NewGuard(grid.UnsafeSet(), spec.BusMHz, core.DefaultGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHarness(p, k, DefaultHarnessConfig())
	if err != nil {
		t.Fatal(err)
	}
	loadGuard := func(on bool) error {
		loaded := k.Loaded(core.ModuleName)
		switch {
		case on && !loaded:
			return k.Load(guard.Module())
		case !on && loaded:
			return k.Unload(core.ModuleName)
		}
		return nil
	}
	return h, loadGuard, guard
}

func TestHarnessValidation(t *testing.T) {
	spec, _ := models.SkyLake()
	p, _ := cpu.NewPlatform(spec, 1)
	k := kernel.New(p.Sim, p)
	if _, err := NewHarness(nil, k, DefaultHarnessConfig()); err == nil {
		t.Fatal("nil platform accepted")
	}
	bad := DefaultHarnessConfig()
	bad.Copies = 0
	if _, err := NewHarness(p, k, bad); err == nil {
		t.Fatal("zero copies accepted")
	}
	bad = DefaultHarnessConfig()
	bad.Copies = 99
	if _, err := NewHarness(p, k, bad); err == nil {
		t.Fatal("too many copies accepted")
	}
	bad = DefaultHarnessConfig()
	bad.UnitsPerRun = 0
	if _, err := NewHarness(p, k, bad); err == nil {
		t.Fatal("zero units accepted")
	}
	bad = DefaultHarnessConfig()
	bad.NoiseSigmaPct = -1
	if _, err := NewHarness(p, k, bad); err == nil {
		t.Fatal("negative noise accepted")
	}
}

func TestTable2SingleRow(t *testing.T) {
	h, loadGuard, _ := table2Rig(t)
	b, _ := ByName("503.bwaves_r")
	row, err := h.MeasureRow(b, loadGuard)
	if err != nil {
		t.Fatal(err)
	}
	// Rates are near the published normalization.
	if math.Abs(row.BaseWithout-628.59)/628.59 > 0.03 {
		t.Fatalf("base rate %v too far from reference", row.BaseWithout)
	}
	if math.Abs(row.PeakWithout-604.21)/604.21 > 0.03 {
		t.Fatalf("peak rate %v too far from reference", row.PeakWithout)
	}
	// Slowdowns are small (noise + sub-percent overhead).
	if math.Abs(row.BaseSlowdownPct) > 3 || math.Abs(row.PeakSlowdownPct) > 3 {
		t.Fatalf("slowdowns implausible: %+v", row)
	}
}

func TestTable2FullRegeneration(t *testing.T) {
	h, loadGuard, guard := table2Rig(t)
	tab, err := h.MeasureTable(loadGuard, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 23 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	if tab.Model != "Comet Lake" {
		t.Fatalf("model %q", tab.Model)
	}
	// Headline claim: overhead is a fraction of a percent, the order of
	// the paper's 0.28%.
	if tab.MeanAbsPct <= 0 || tab.MeanAbsPct > 1.0 {
		t.Fatalf("mean |slowdown| = %.3f%%, want (0, 1]", tab.MeanAbsPct)
	}
	// Direct kthread cost also sub-percent and nonzero.
	if tab.DirectOverheadPct <= 0 || tab.DirectOverheadPct > 1.0 {
		t.Fatalf("direct overhead %.3f%%", tab.DirectOverheadPct)
	}
	if guard.Checks == 0 {
		t.Fatal("guard never polled during the measurement")
	}
	// The module must end the run unloaded (loadGuard(false) at the end).
	if h.K.Loaded(core.ModuleName) {
		t.Fatal("module left loaded")
	}
}

func TestTable2Deterministic(t *testing.T) {
	h1, lg1, _ := table2Rig(t)
	h2, lg2, _ := table2Rig(t)
	b, _ := ByName("505.mcf_r")
	r1, err := h1.MeasureRow(b, lg1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h2.MeasureRow(b, lg2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.BaseWith != r2.BaseWith || r1.PeakSlowdownPct != r2.PeakSlowdownPct {
		t.Fatalf("Table 2 row not reproducible: %+v vs %+v", r1, r2)
	}
}

func TestStolenTimeActuallySlowsRates(t *testing.T) {
	// With an artificially expensive poll, the slowdown must become
	// clearly visible — the measurement is causal, not cosmetic.
	h, loadGuard, _ := table2Rig(t)
	h.cfg.NoiseSigmaPct = 0 // isolate the causal effect
	h.K.Costs.Rdmsr = 200 * sim.Microsecond
	h.K.Costs.KthreadWake = 500 * sim.Microsecond
	b, _ := ByName("519.lbm_r")
	row, err := h.MeasureRow(b, loadGuard)
	if err != nil {
		t.Fatal(err)
	}
	if row.BaseWith >= row.BaseWithout {
		t.Fatalf("expensive polling did not reduce rate: %+v", row)
	}
	if row.BaseSlowdownPct > -1 {
		t.Fatalf("slowdown %.3f%% too small for 1000x cost inflation", row.BaseSlowdownPct)
	}
}
