package core

import (
	"bytes"
	"sync"
	"testing"

	"plugvolt/internal/cpu"
	"plugvolt/internal/models"
	"plugvolt/internal/sim"
)

func newPlatform(t *testing.T, model string, seed int64) *cpu.Platform {
	t.Helper()
	spec, err := models.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cpu.NewPlatform(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// quickSweepConfig is a coarser, faster variant of the paper's sweep for
// unit tests (5 mV steps, 200k iterations).
func quickSweepConfig() CharacterizerConfig {
	cfg := DefaultCharacterizerConfig()
	cfg.Iterations = 200_000
	cfg.OffsetStartMV = -5
	cfg.OffsetStepMV = -5
	cfg.OffsetEndMV = -350
	return cfg
}

// sweepGrid characterizes a model under seed and returns the grid.
func sweepGrid(t *testing.T, model string, seed int64, cfg CharacterizerConfig) *Grid {
	t.Helper()
	g, err := newShardedCharacterizer(t, model, seed, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCharacterizerValidation(t *testing.T) {
	spec, err := models.ByName("skylake")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(*CharacterizerConfig)
	}{
		{"bogus victim core", func(c *CharacterizerConfig) { c.VictimCore = 99 }},
		{"negative victim core", func(c *CharacterizerConfig) { c.VictimCore = -1 }},
		{"zero iterations", func(c *CharacterizerConfig) { c.Iterations = 0 }},
		{"positive step", func(c *CharacterizerConfig) { c.OffsetStepMV = 1 }},
		{"positive start", func(c *CharacterizerConfig) { c.OffsetStartMV = 5 }},
		{"inverted range", func(c *CharacterizerConfig) { c.OffsetStartMV, c.OffsetEndMV = -100, -1 }},
		{"unknown strategy", func(c *CharacterizerConfig) { c.Strategy = "random" }},
	}
	for _, tc := range cases {
		bad := DefaultCharacterizerConfig()
		tc.edit(&bad)
		if _, err := NewShardedCharacterizer(spec, 1, bad); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestCharacterizationSweepSkyLake(t *testing.T) {
	var progressRows int
	cfg := quickSweepConfig()
	cfg.Progress = func(freqKHz, done, total int) { progressRows = done }
	g := sweepGrid(t, "skylake", 42, cfg)
	if err := g.Validate(); err != nil {
		t.Fatalf("sweep produced invalid grid: %v", err)
	}
	if g.Model != "Sky Lake" || g.Microcode != "0xf0" {
		t.Fatalf("grid identity: %s / %s", g.Model, g.Microcode)
	}
	if progressRows != len(g.FreqsKHz) {
		t.Fatalf("progress rows %d", progressRows)
	}
	if len(g.FreqsKHz) != 29 {
		t.Fatalf("frequency rows %d, want 29 (0.8..3.6 GHz at 0.1)", len(g.FreqsKHz))
	}

	for fi, f := range g.FreqsKHz {
		row := g.Cells[fi]
		// Shallow end must be safe; deep end must not be.
		if row[0] != Safe {
			t.Errorf("%d kHz: -5 mV not safe", f)
		}
		onset, ok := g.OnsetMV(f)
		if !ok {
			t.Errorf("%d kHz: entire sweep safe — no unsafe region found", f)
			continue
		}
		crash, ok := g.CrashMV(f)
		if !ok {
			t.Errorf("%d kHz: no crash within sweep", f)
			continue
		}
		if onset <= crash {
			t.Errorf("%d kHz: onset %d not shallower than crash %d", f, onset, crash)
		}
		// A fault band (unsafe but running) exists: the attacker's window.
		if g.FaultBandWidthMV(f) <= 0 {
			t.Errorf("%d kHz: no fault band", f)
		}
	}

	// Shape claim of Fig. 2: onset magnitude at the top frequency is
	// well below the bottom frequency's.
	onLow, _ := g.OnsetMV(g.FreqsKHz[0])
	onHigh, _ := g.OnsetMV(g.FreqsKHz[len(g.FreqsKHz)-1])
	if onHigh <= onLow+20 {
		t.Errorf("onset did not shrink with frequency: %d mV at fmin, %d mV at fmax", onLow, onHigh)
	}

	// The sweep crossed crash boundaries, so reboots must be recorded.
	if g.Reboots == 0 {
		t.Error("no reboots despite crash cells")
	}

	// Maximal safe state is safe everywhere, per definition.
	msv := g.MaximalSafeOffsetMV(0)
	if msv >= 0 {
		t.Fatalf("maximal safe state %d not an undervolt", msv)
	}
	for _, f := range g.FreqsKHz {
		if cl, ok := g.At(f, msv); !ok || cl != Safe {
			t.Fatalf("maximal safe %d mV not safe at %d kHz (%v)", msv, f, cl)
		}
	}
}

// TestCharacterizationDeterministicReplay runs one engine twice: every row
// of the second Run must start from a platform in its power-on state, not
// from state the first left, so grid and probe economics replay exactly.
func TestCharacterizationDeterministicReplay(t *testing.T) {
	cfg := quickSweepConfig()
	cfg.OffsetEndMV = -200 // shorter for speed
	cfg.Workers = 1
	sc := newShardedCharacterizer(t, "skylake", 77, cfg)
	run := func() ([]byte, SearchStats) {
		g, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		data, err := g.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data, sc.Stats()
	}
	g1, s1 := run()
	g2, s2 := run()
	if !bytes.Equal(g1, g2) {
		t.Fatal("replay on the same engine diverged")
	}
	if s1 != s2 {
		t.Fatalf("replay stats %+v, first run %+v", s2, s1)
	}
}

func TestCharacterizationAllThreeModels(t *testing.T) {
	// The paper characterizes three generations; each must produce a
	// structurally sane grid (Figs. 2, 3, 4).
	if testing.Short() {
		t.Skip("full tri-model sweep in -short mode")
	}
	for _, model := range []string{"skylake", "kabylaker", "cometlake"} {
		model := model
		t.Run(model, func(t *testing.T) {
			g := sweepGrid(t, model, 7, quickSweepConfig())
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			unsafe := g.UnsafeSet()
			if len(unsafe.OnsetMV) != len(g.FreqsKHz) {
				t.Errorf("%s: only %d/%d frequencies have unsafe regions",
					model, len(unsafe.OnsetMV), len(g.FreqsKHz))
			}
			msv := g.MaximalSafeOffsetMV(0)
			if msv >= 0 || msv < -300 {
				t.Errorf("%s: implausible maximal safe state %d mV", model, msv)
			}
		})
	}
}

// TestSweepLeavesPlatformRestored checks Algorithm 2 lines 13-14 on every
// row: after its row, the platform is back at its stock frequency with a
// zero offset and running, crash rows included. A worker's platform is
// checked when the worker hands it back to the factory for its next row,
// and once more after Run for the worker's last row, so every row is
// checked exactly once; and no worker builds more than one platform.
func TestSweepLeavesPlatformRestored(t *testing.T) {
	const seed = 5
	for _, strategy := range []string{StrategySweep, StrategyBisect} {
		cfg := quickSweepConfig()
		cfg.OffsetEndMV = -150
		cfg.Strategy = strategy
		cfg.Workers = 2
		sc := newShardedCharacterizer(t, "skylake", seed, cfg)
		stockKHz := map[int64]int{}
		for _, f := range sc.spec.FreqTableKHz() {
			stockKHz[RowSeed(seed, f)] = newPlatform(t, "skylake", RowSeed(seed, f)).FreqKHz(cfg.VictimCore)
		}
		var mu sync.Mutex
		lastRow := map[*cpu.Platform]int64{} // each platform's latest row seed
		checked := map[int64]int{}           // row seed -> times checked
		check := func(p *cpu.Platform, rowSeed int64) {
			f := rowSeed ^ seed
			p.Sim.RunFor(1 * sim.Millisecond)
			p.SettleAll()
			c := p.Core(cfg.VictimCore)
			if c.OffsetMV() != 0 {
				t.Errorf("%s %d kHz: row left offset %d", strategy, f, c.OffsetMV())
			}
			if got, want := p.FreqKHz(cfg.VictimCore), stockKHz[rowSeed]; got != want {
				t.Errorf("%s %d kHz: row left %d kHz, stock is %d kHz", strategy, f, got, want)
			}
			if _, err := c.RunBatch(cpu.ClassALU, 1); err != nil {
				t.Errorf("%s %d kHz: row left platform crashed: %v", strategy, f, err)
			}
			mu.Lock()
			checked[rowSeed]++
			mu.Unlock()
		}
		inner := sc.Factory
		sc.Factory = func(prev *cpu.Platform, rowSeed int64) (*cpu.Platform, error) {
			if prev != nil {
				mu.Lock()
				prevSeed := lastRow[prev]
				mu.Unlock()
				check(prev, prevSeed)
			}
			p, err := inner(prev, rowSeed)
			if err == nil {
				mu.Lock()
				lastRow[p] = rowSeed
				mu.Unlock()
			}
			return p, err
		}
		g, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(lastRow) > cfg.Workers {
			t.Fatalf("%s: %d row platforms for %d workers", strategy, len(lastRow), cfg.Workers)
		}
		for p, rowSeed := range lastRow {
			check(p, rowSeed)
		}
		for _, f := range g.FreqsKHz {
			if n := checked[RowSeed(seed, f)]; n != 1 {
				t.Errorf("%s %d kHz: row checked %d times, want once", strategy, f, n)
			}
		}
	}
}

func TestPerClassOnsetOrdering(t *testing.T) {
	// Measured version of the paper's claim that imul is the most
	// fault-prone instruction: sweeping the same machine with shallower
	// instruction classes must find deeper (more negative) onsets.
	onsetAt := func(class cpu.Class, freqKHz int) int {
		cfg := quickSweepConfig()
		cfg.Class = class
		g := sweepGrid(t, "skylake", 61, cfg)
		onset, ok := g.OnsetMV(freqKHz)
		if !ok {
			t.Fatalf("class %s: no onset at %d kHz", class, freqKHz)
		}
		return onset
	}
	const freq = 3_200_000
	imul := onsetAt(cpu.ClassIMul, freq)
	aes := onsetAt(cpu.ClassAES, freq)
	fma := onsetAt(cpu.ClassFMA, freq)
	if !(imul > aes && aes > fma) {
		t.Fatalf("onset ordering violated: imul %d, aes %d, fma %d (want imul shallowest)",
			imul, aes, fma)
	}
}

func TestDefaultClassIsIMul(t *testing.T) {
	cfg := DefaultCharacterizerConfig()
	if cfg.Class != cpu.ClassIMul {
		t.Fatalf("default EXECUTE class %q", cfg.Class)
	}
	// Empty class falls back to imul rather than failing.
	cfg = quickSweepConfig()
	cfg.OffsetEndMV = -150
	imul, err := sweepGrid(t, "skylake", 62, cfg).JSON()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Class = ""
	empty, err := sweepGrid(t, "skylake", 62, cfg).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imul, empty) {
		t.Fatal("empty class grid differs from the imul grid")
	}
}
