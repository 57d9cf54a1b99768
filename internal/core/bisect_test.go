package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"plugvolt/internal/cpu"
	"plugvolt/internal/models"
	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
)

// runStrategy sweeps a model with the given strategy and worker count and
// returns the grid JSON plus the engine's probe economics.
func runStrategy(t *testing.T, model, strategy string, workers int, cfg CharacterizerConfig) ([]byte, SearchStats) {
	t.Helper()
	c := cfg
	c.Strategy = strategy
	c.Workers = workers
	sc := newShardedCharacterizer(t, model, 42, c)
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

// TestBisectMatchesSweepAllGoldenSpecs is the tentpole equivalence claim:
// for every golden model spec and for 1/2/8 workers, the bisect strategy's
// grid is byte-identical to the full sweep's, with zero fallback rows and
// strictly fewer measured probes.
func TestBisectMatchesSweepAllGoldenSpecs(t *testing.T) {
	cfg := quickSweepConfig()
	for _, model := range []string{"skylake", "kabylaker", "cometlake"} {
		model := model
		t.Run(model, func(t *testing.T) {
			sweepJSON, sweepStats := runStrategy(t, model, StrategySweep, 1, cfg)
			for _, workers := range []int{1, 2, 8} {
				bisectJSON, bisectStats := runStrategy(t, model, StrategyBisect, workers, cfg)
				if string(sweepJSON) != string(bisectJSON) {
					t.Fatalf("workers=%d: bisect grid diverges from sweep", workers)
				}
				if bisectStats.FallbackRows != 0 {
					t.Fatalf("workers=%d: %d unexpected fallback rows", workers, bisectStats.FallbackRows)
				}
				if bisectStats.Probes >= sweepStats.Probes {
					t.Fatalf("workers=%d: bisect spent %d probes, sweep %d",
						workers, bisectStats.Probes, sweepStats.Probes)
				}
				if workers == 1 {
					t.Logf("sweep %d probes, bisect %d (%.1fx fewer)", sweepStats.Probes,
						bisectStats.Probes, float64(sweepStats.Probes)/float64(bisectStats.Probes))
				}
			}
		})
	}
}

// TestBisectProbeSavingsPaperConfig asserts the acceptance bar on the
// Fig. 2 configuration (paper-resolution offset axis, 1 mV steps): the
// bisect strategy must spend at least 10x fewer measured sim probes than
// the full sweep while producing the identical grid.
func TestBisectProbeSavingsPaperConfig(t *testing.T) {
	cfg := DefaultCharacterizerConfig()
	sweepJSON, sweepStats := runStrategy(t, "skylake", StrategySweep, 8, cfg)
	bisectJSON, bisectStats := runStrategy(t, "skylake", StrategyBisect, 8, cfg)
	if string(sweepJSON) != string(bisectJSON) {
		t.Fatal("bisect grid diverges from sweep on the Fig. 2 configuration")
	}
	if bisectStats.FallbackRows != 0 {
		t.Fatalf("%d unexpected fallback rows", bisectStats.FallbackRows)
	}
	// Probe counts are deterministic simulation counts, so they are pinned
	// exactly: any change is a change to the search schedule.
	if sweepStats.Probes != 6089 || bisectStats.Probes != 284 {
		t.Fatalf("sweep %d probes, bisect %d probes; want exactly 6089 and 284",
			sweepStats.Probes, bisectStats.Probes)
	}
}

// TestRowClassificationMonotone is the property bisection relies on: for
// every model spec, every frequency row's measured classification sequence
// is Safe* Fault* Crash* — never a regression to a safer class at a deeper
// offset.
func TestRowClassificationMonotone(t *testing.T) {
	specs, err := models.All()
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickSweepConfig()
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Codename, func(t *testing.T) {
			sc, err := NewShardedCharacterizer(spec, 42, cfg)
			if err != nil {
				t.Fatal(err)
			}
			g, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			for fi, row := range g.Cells {
				for i := 1; i < len(row); i++ {
					if row[i] < row[i-1] {
						t.Fatalf("row %d kHz regresses from %s to %s at %d mV",
							g.FreqsKHz[fi], row[i-1], row[i], g.OffsetsMV[i])
					}
				}
			}
		})
	}
}

// FuzzRowMonotonicity fuzzes the analytic half of the bisect contract:
// for arbitrary seeds and any golden spec, the predicted batch upset
// probabilities must be non-decreasing in undervolt depth on every
// frequency row, and the coupled classification derived from them must
// therefore be monotone. This is the invariant whose violation would send
// bisect rows to the linear fallback.
func FuzzRowMonotonicity(f *testing.F) {
	f.Add(int64(42), uint8(0), uint8(0))
	f.Add(int64(-7), uint8(1), uint8(3))
	f.Add(int64(1<<40), uint8(2), uint8(7))
	specs, err := models.All()
	if err != nil {
		f.Fatal(err)
	}
	cfg := quickSweepConfig()
	offs := offsetAxis(cfg)
	f.Fuzz(func(t *testing.T, seed int64, specIdx, freqIdx uint8) {
		spec := specs[int(specIdx)%len(specs)]
		freqs := spec.FreqTableKHz()
		freqKHz := freqs[int(freqIdx)%len(freqs)]
		p, err := cpu.FactoryFor(spec)(RowSeed(seed, freqKHz))
		if err != nil {
			t.Fatal(err)
		}
		pr, err := newRowProber(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.cp.FrequencySet(cfg.VictimCore, freqKHz); err != nil {
			t.Fatal(err)
		}
		core := p.Core(cfg.VictimCore)
		uF, uC := pr.probeU(freqKHz)
		prevF, prevC := -1.0, -1.0
		prevCls := Safe
		for _, off := range offs {
			pf, pc := core.PredictProbabilities(pr.class(), off)
			pAnyF := cpu.BatchUpsetProbability(cfg.Iterations, pf)
			pAnyC := cpu.BatchUpsetProbability(cfg.Iterations, pc)
			if pAnyF < prevF || pAnyC < prevC {
				t.Fatalf("seed %d %s %d kHz: predicted upset probability regresses at %d mV",
					seed, spec.Codename, freqKHz, off)
			}
			cls := classifyCoupled(pAnyF, pAnyC, uF, uC)
			if cls < prevCls {
				t.Fatalf("seed %d %s %d kHz: coupled class regresses from %s to %s at %d mV",
					seed, spec.Codename, freqKHz, prevCls, cls, off)
			}
			prevF, prevC, prevCls = pAnyF, pAnyC, cls
		}
	})
}

// TestSearchTelemetryCounters asserts the probe-economics counters land in
// the Prometheus exposition, labelled by strategy and agreeing with the
// engine's own SearchStats.
func TestSearchTelemetryCounters(t *testing.T) {
	cfg := quickSweepConfig()
	cfg.Strategy = StrategyBisect
	cfg.Workers = 2
	tel := telemetry.NewSet(func() sim.Time { return 0 }, 64, 1)
	cfg.Telemetry = tel
	sc := newShardedCharacterizer(t, "skylake", 42, cfg)
	if _, err := sc.Run(); err != nil {
		t.Fatal(err)
	}
	stats := sc.Stats()
	var buf bytes.Buffer
	if err := tel.Registry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp := buf.String()
	for _, want := range []string{
		fmt.Sprintf(`search_probes_total{strategy="bisect"} %d`, stats.Probes),
		fmt.Sprintf(`search_onset_found{strategy="bisect"} %d`, stats.OnsetRows),
		fmt.Sprintf(`search_fallback_rows_total{strategy="bisect"} %d`, stats.FallbackRows),
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	if stats.OnsetRows == 0 {
		t.Error("no onset rows found on skylake")
	}
}

// hookedFactory wraps a platform factory so every built platform gets an
// OC-mailbox write hook on the victim core that rewrites voltage-offset
// commands per rewrite: interference the bisect strategy must detect.
func hookedFactory(base cpu.PlatformFactory, victim int, rewrite func(offsetMV int) (int, bool)) cpu.PlatformFactory {
	return func(seed int64) (*cpu.Platform, error) {
		p, err := base(seed)
		if err != nil {
			return nil, err
		}
		p.MSRFile(victim).AddWriteHook(msr.OCMailbox, func(_ *msr.File, _, proposed uint64) (uint64, error) {
			d := msr.DecodeVoltageOffset(proposed)
			if !d.Busy || !d.Write || d.Plane != msr.PlaneCore {
				return proposed, nil
			}
			mv := int(msr.UnitsToMV(d.OffsetUnits))
			if nv, ok := rewrite(mv); ok {
				return msr.EncodeVoltageOffset(nv, msr.PlaneCore), nil
			}
			return proposed, nil
		})
		return p, nil
	}
}

// TestBisectFallbackOnBrokenMonotonicity breaks the measured-vs-predicted
// contract with MSR write hooks that intercept mailbox commands, and
// asserts (a) the bisect strategy detects the contradiction at a probed
// cell and falls back to the linear scan, and (b) the fallback grid is
// byte-identical to what the sweep strategy measures under the same hook.
// The hooks here interfere on bands that overlap the verified boundary
// probes — the detection contract bisection actually offers (interference
// confined to never-probed interior cells is invisible to any O(log N)
// scheme by construction).
func TestBisectFallbackOnBrokenMonotonicity(t *testing.T) {
	cfg := quickSweepConfig()
	cases := []struct {
		name    string
		rewrite func(offsetMV int) (int, bool)
	}{
		// Clamp everything deeper than -60 mV to -60 mV: every predicted
		// onset vanishes, so the onset-region probes measure Safe where
		// Fault/Crash was predicted.
		{"deep writes clamped safe", func(mv int) (int, bool) {
			if mv < -60 {
				return -60, true
			}
			return 0, false
		}},
		// Rewrite the -100..-200 mV band to -80 mV: rows whose fault or
		// crash boundary lands in the band measure differently than
		// predicted exactly at the boundary probes.
		{"onset band displaced", func(mv int) (int, bool) {
			if mv <= -100 && mv >= -200 {
				return -80, true
			}
			return 0, false
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(strategy string) ([]byte, SearchStats) {
				c := cfg
				c.Strategy = strategy
				c.Workers = 4
				sc := newShardedCharacterizer(t, "skylake", 42, c)
				sc.Factory = hookedFactory(sc.Factory, cfg.VictimCore, tc.rewrite)
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
			sweepJSON, _ := runStrategy(t, "skylake", StrategySweep, 1, cfg)
			hookedSweepJSON, _ := run(StrategySweep)
			if string(sweepJSON) == string(hookedSweepJSON) {
				t.Fatal("hook had no observable effect; the case proves nothing")
			}
			hookedBisectJSON, stats := run(StrategyBisect)
			if stats.FallbackRows == 0 {
				t.Fatal("bisect never fell back despite broken monotonicity")
			}
			if string(hookedBisectJSON) != string(hookedSweepJSON) {
				t.Fatal("fallback grid diverges from the hooked sweep grid")
			}
			t.Logf("%d/%d rows fell back", stats.FallbackRows, stats.Rows)
		})
	}
}
