package core

import (
	"math"
	"sync"
	"testing"

	"plugvolt/internal/cpu"
	"plugvolt/internal/models"
	"plugvolt/internal/msr"
)

// TestOracleMatchesSimEveryCell differentially checks the analytic oracle
// against the simulator on every cell of every row of every spec (the
// quick axis, plus the paper axis on Sky Lake): programming a cell and
// settling it must land on PredictPoint's (GHz, V) bit for bit, the live
// Eq. 1 probabilities there must equal PredictProbabilities bit for bit,
// and the shared row table must hold their batch lifts. The row tables
// are first filled partly by a sweep at another seed, so the check also
// covers entries computed on other row platforms. This bit-exact key is
// what lets measurePoint classify from the table.
func TestOracleMatchesSimEveryCell(t *testing.T) {
	specs := allSpecs(t)
	type axis struct {
		spec *models.Spec
		cfg  CharacterizerConfig
	}
	var axes []axis
	for _, spec := range specs {
		axes = append(axes, axis{spec, quickSweepConfig()})
	}
	axes = append(axes, axis{specs[0], DefaultCharacterizerConfig()})
	for _, a := range axes {
		spec, cfg := a.spec, a.cfg
		if _, ok := (tableRun{seed: 7, strategy: StrategySweep, cfg: cfg}).on(t, spec); !ok {
			t.FailNow()
		}
		offs := offsetAxis(cfg)
		cells := 0
		for _, freqKHz := range spec.FreqTableKHz() {
			p, err := cpu.NewPlatform(spec, RowSeed(42, freqKHz))
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
			table := pr.rowTable(offs)
			row := table.upTo(core, len(offs))
			for i, off := range offs {
				wantGHz, wantV := core.PredictPoint(off)
				wantF, wantC := core.PredictProbabilities(pr.class(), off)
				if err := p.WriteOffsetViaMSR(cfg.VictimCore, off, msr.PlaneCore); err != nil {
					t.Fatal(err)
				}
				if err := p.SettleCommanded(cfg.VictimCore); err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					what      string
					got, want float64
				}{
					{"live GHz vs PredictPoint", core.FreqGHz(), wantGHz},
					{"live V vs PredictPoint", core.VoltageV(), wantV},
					{"live fault probability vs PredictProbabilities", core.FaultProbability(pr.class()), wantF},
					{"live crash probability vs PredictProbabilities", core.CrashProbability(), wantC},
					{"table GHz", table.key.freqGHz, wantGHz},
					{"table V", row[i].voltV, wantV},
					{"table batch fault probability", row[i].pAnyF, cpu.BatchUpsetProbability(cfg.Iterations, wantF)},
					{"table batch crash probability", row[i].pAnyC, cpu.BatchUpsetProbability(cfg.Iterations, wantC)},
				} {
					if math.Float64bits(c.got) != math.Float64bits(c.want) {
						t.Fatalf("%s %d kHz %d mV (%d iterations): %s: %v != %v",
							spec.Codename, freqKHz, off, cfg.Iterations, c.what, c.got, c.want)
					}
				}
				cells++
			}
		}
		t.Logf("%s, %d offsets: %d cells agree", spec.Codename, len(offs), cells)
	}
}

// tableRun is one characterization in the shared-table tests.
type tableRun struct {
	seed     int64
	strategy string
	workers  int
	cfg      CharacterizerConfig
	hook     func(base cpu.PlatformFactory, victim int) cpu.PlatformFactory // nil: no interference
}

// tableOutcome is what a run must reproduce on a fresh spec: the grid
// bytes and the search economics (probes and fallback rows), so a stale or
// foreign table entry shows even where a fallback repairs the grid.
type tableOutcome struct {
	grid  string
	stats SearchStats
}

// on characterizes spec with r. It reports failures with t.Error, so
// goroutines may call it; ok is false on failure.
func (r tableRun) on(t *testing.T, spec *models.Spec) (out tableOutcome, ok bool) {
	c := r.cfg
	c.Strategy, c.Workers = r.strategy, r.workers
	sc, err := NewShardedCharacterizer(spec, r.seed, c)
	if err != nil {
		t.Error(err)
		return out, false
	}
	if r.hook != nil {
		sc.Factory = r.hook(sc.Factory, c.VictimCore)
	}
	g, err := sc.Run()
	if err != nil {
		t.Error(err)
		return out, false
	}
	data, err := g.JSON()
	if err != nil {
		t.Error(err)
		return out, false
	}
	return tableOutcome{string(data), sc.Stats()}, true
}

// onFreshSpec is r's reference outcome: a spec no other run has touched.
func (r tableRun) onFreshSpec(t *testing.T, model string) tableOutcome {
	t.Helper()
	spec, err := models.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := r.on(t, spec)
	if !ok {
		t.FailNow()
	}
	return out
}

// TestSharedRowTablesConcurrent characterizes one Spec from 8 goroutines
// at once — different seeds, both strategies, 1 and 4 workers — so sweep
// rows extend table prefixes one cell at a time while bisect rows extend
// them to the end and other rows read them. Every outcome must equal its
// reference from a fresh spec.
func TestSharedRowTablesConcurrent(t *testing.T) {
	var runs []tableRun
	for g := 0; g < 8; g++ {
		runs = append(runs, tableRun{
			seed:     int64(100 + g),
			strategy: []string{StrategySweep, StrategyBisect}[g%2],
			workers:  []int{1, 4}[g/2%2],
			cfg:      quickSweepConfig(),
		})
	}
	want := make([]tableOutcome, len(runs))
	for i, r := range runs {
		want[i] = r.onFreshSpec(t, "cometlake")
	}
	shared, err := models.CometLake()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func(i int, r tableRun) {
			defer wg.Done()
			if got, ok := r.on(t, shared); ok && got != want[i] {
				t.Errorf("seed %d %s workers %d: shared-spec outcome differs from the fresh-spec one",
					r.seed, r.strategy, r.workers)
			}
		}(i, r)
	}
	wg.Wait()
}

// TestSharedRowTablesIsolateInterference runs a characterization under
// interference and a clean one on one Spec, in both orders and with every
// pairing of strategies. Each must reproduce its fresh-spec outcome: a
// hooked probe's live reading never reaches a table, and a hooked probe
// never reads a table entry for a point it did not reach. The first hook
// rewrites mailbox offsets; the second re-commands the core to its lowest
// ratio on every deep mailbox write, so the probe settles off its table's
// row.
func TestSharedRowTablesIsolateInterference(t *testing.T) {
	clampDeep := func(base cpu.PlatformFactory, victim int) cpu.PlatformFactory {
		return hookedFactory(base, victim, func(mv int) (int, bool) {
			if mv < -60 {
				return -60, true
			}
			return 0, false
		})
	}
	dropRatio := func(base cpu.PlatformFactory, victim int) cpu.PlatformFactory {
		return func(prev *cpu.Platform, seed int64) (*cpu.Platform, error) {
			p, err := base(prev, seed)
			if err != nil {
				return nil, err
			}
			p.MSRFile(victim).AddWriteHook(msr.OCMailbox, func(f *msr.File, _, proposed uint64) (uint64, error) {
				if d := msr.DecodeVoltageOffset(proposed); d.Busy && d.Write && msr.UnitsToMV(d.OffsetUnits) <= -100 {
					return proposed, f.Write(msr.IA32PerfCtl, uint64(p.Spec.MinRatio)<<8)
				}
				return proposed, nil
			})
			return p, nil
		}
	}
	for hi, hook := range []func(cpu.PlatformFactory, int) cpu.PlatformFactory{clampDeep, dropRatio} {
		var clean, hooked [2]tableRun
		var wantClean, wantHooked [2]tableOutcome
		for i, strategy := range []string{StrategySweep, StrategyBisect} {
			clean[i] = tableRun{seed: 42, strategy: strategy, workers: 2, cfg: quickSweepConfig()}
			hooked[i] = clean[i]
			hooked[i].hook = hook
			wantClean[i], wantHooked[i] = clean[i].onFreshSpec(t, "skylake"), hooked[i].onFreshSpec(t, "skylake")
			if wantClean[i].grid == wantHooked[i].grid {
				t.Fatalf("hook %d had no observable effect; the test proves nothing", hi)
			}
		}
		for hs := range hooked {
			for cs := range clean {
				for _, hookedFirst := range []bool{true, false} {
					spec, err := models.SkyLake()
					if err != nil {
						t.Fatal(err)
					}
					check := func(which string, r tableRun, want tableOutcome) {
						if got, _ := r.on(t, spec); got != want {
							t.Errorf("hook %d, hooked %s and clean %s on one spec, hooked first %v: the %s run differs from its fresh-spec outcome",
								hi, hooked[hs].strategy, clean[cs].strategy, hookedFirst, which)
						}
					}
					if hookedFirst {
						check("hooked", hooked[hs], wantHooked[hs])
						check("clean", clean[cs], wantClean[cs])
					} else {
						check("clean", clean[cs], wantClean[cs])
						check("hooked", hooked[hs], wantHooked[hs])
					}
				}
			}
		}
	}
}

// TestSharedRowTablesConfigMix runs configurations that differ in one key
// field each — axis resolution and batch length, class, batch length
// alone, offsets alone at the same axis length — one after another on one
// Spec. Each outcome must equal its fresh-spec reference, so no two of
// them may share a table.
func TestSharedRowTablesConfigMix(t *testing.T) {
	quick := quickSweepConfig()
	aes := quick
	aes.Class = cpu.ClassAES
	longBatch := quick
	longBatch.Iterations = 1_000_000
	shifted := quick
	shifted.OffsetStartMV, shifted.OffsetEndMV = -3, -348
	if len(offsetAxis(shifted)) != len(offsetAxis(quick)) {
		t.Fatal("shifted axis must keep the quick axis length")
	}
	configs := []CharacterizerConfig{quick, DefaultCharacterizerConfig(), aes, longBatch, shifted}
	spec, err := models.SkyLake()
	if err != nil {
		t.Fatal(err)
	}
	for ci, cfg := range configs {
		for _, strategy := range []string{StrategySweep, StrategyBisect} {
			r := tableRun{seed: 42, strategy: strategy, workers: 2, cfg: cfg}
			if got, _ := r.on(t, spec); got != r.onFreshSpec(t, "skylake") {
				t.Errorf("config %d, %s: shared-spec outcome differs from the fresh-spec one", ci, strategy)
			}
		}
	}
}

// TestSharedRowTablesCalibrateDrops re-calibrates a used Spec at a new
// guard-band margin. Its outcomes must equal a fresh spec's at that
// margin, not the stale margin's tables.
func TestSharedRowTablesCalibrateDrops(t *testing.T) {
	spec, err := models.SkyLake()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := models.SkyLake()
	if err != nil {
		t.Fatal(err)
	}
	fresh.MarginPS += 20
	if err := fresh.Calibrate(); err != nil {
		t.Fatal(err)
	}
	var runs []tableRun
	var stale []tableOutcome
	for _, strategy := range []string{StrategySweep, StrategyBisect} {
		r := tableRun{seed: 42, strategy: strategy, workers: 2, cfg: quickSweepConfig()}
		out, _ := r.on(t, spec)
		runs, stale = append(runs, r), append(stale, out)
	}
	spec.MarginPS += 20
	if err := spec.Calibrate(); err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		got, _ := r.on(t, spec)
		want, _ := r.on(t, fresh)
		if want.grid == stale[i].grid {
			t.Fatal("the new margin does not change the grid; the test proves nothing")
		}
		if got != want {
			t.Errorf("%s: re-calibrated spec's outcome differs from a fresh spec's at the new margin", r.strategy)
		}
	}
}
