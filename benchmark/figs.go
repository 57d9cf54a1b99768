package main

import (
	"bytes"
	"fmt"
	"time"

	"plugvolt"
	"plugvolt/internal/core"
	"plugvolt/internal/cpu"
	"plugvolt/internal/models"
	"plugvolt/internal/rng"
)

// figsSeeds is how many machine seeds characterize-paper derives from the
// workload seed; every op characterizes all of them.
const figsSeeds = 4

// characterize-paper is Figs. 2-4 at the paper's resolution (1 mV steps,
// one million imuls per point, all three models), once with the sweep
// strategy and once with bisect. It is the only workload where the core
// characterizer, search, cpu.PredictProbabilities and timing do all the
// work. Sweep and bisect run side by side, so a bisect-only change moves
// figs_bisect_ms and must leave figs_sweep_ms alone.
type figsRun struct {
	models []string
	specs  []*models.Spec
	seeds  [figsSeeds]int64
	ops    int
}

func setupFigs(env runEnv) (instance, error) {
	f := &figsRun{}
	for i := range f.seeds {
		f.seeds[i] = rng.IndexSeed(env.seed, i)
	}
	f.models = plugvolt.Models()
	for _, name := range f.models {
		spec, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		// Booting one machine builds the model's derived tables, which
		// every sweep row then shares.
		if _, err := cpu.NewPlatform(spec, env.seed); err != nil {
			return nil, err
		}
		f.specs = append(f.specs, spec)
	}
	return f, nil
}

func (f *figsRun) reference() error { return nil }

// op characterizes every model at every machine seed with both strategies.
// Which strategy goes first alternates from seed to seed and from op to op.
// The bisect grid must equal the sweep grid byte for byte, with no row
// falling back to the linear sweep.
func (f *figsRun) op(tr *tracer, rec *recorder) (string, error) {
	out := map[string][]byte{}
	var probes [2]int
	fallback := 0
	for i, seed := range f.seeds {
		order := []string{core.StrategySweep, core.StrategyBisect}
		if (f.ops+i)%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		grids := map[string][][]byte{}
		for _, strategy := range order {
			start := time.Now()
			for m, spec := range f.specs {
				var js []byte
				var st core.SearchStats
				err := tr.do("core.grid_"+strategy+"."+f.models[m], func() error {
					cfg := plugvolt.PaperSweep()
					cfg.Strategy = strategy
					sc, err := core.NewShardedCharacterizer(spec, seed, cfg)
					if err != nil {
						return err
					}
					grid, err := sc.Run()
					if err != nil {
						return err
					}
					st = sc.Stats()
					js, err = grid.JSON()
					return err
				})
				if err != nil {
					return "", err
				}
				grids[strategy] = append(grids[strategy], js)
				if strategy == core.StrategySweep {
					probes[0] += st.Probes
				} else {
					probes[1] += st.Probes
				}
				fallback += st.FallbackRows
			}
			rec.add("figs_"+strategy+"_ms", ms(time.Since(start)))
		}
		for m, name := range f.models {
			if !bytes.Equal(grids[core.StrategySweep][m], grids[core.StrategyBisect][m]) {
				return "", fmt.Errorf("characterize-paper: %s seed %d: bisect grid differs from sweep: %w", name, seed, errMismatch)
			}
			out[fmt.Sprintf("%s/%d", name, seed)] = grids[core.StrategySweep][m]
		}
	}
	f.ops++
	rec.add("core.probes_sweep", float64(probes[0])/figsSeeds)
	rec.add("core.probes_bisect", float64(probes[1])/figsSeeds)
	rec.add("core.fallback_rows", float64(fallback))
	if fallback != 0 {
		return "", fmt.Errorf("characterize-paper: %d bisect rows fell back to the sweep", fallback)
	}
	out["probes"] = []byte(fmt.Sprint(probes))
	return digestOf(out), nil
}

func (f *figsRun) layers(tp *tracePass) (map[string]float64, error) {
	tr := tp.tr
	vals := map[string]float64{}
	for _, name := range f.models {
		for _, strategy := range []string{core.StrategySweep, core.StrategyBisect} {
			vals["core.grid_"+strategy+"_ms."+name] = medianOf(tr.named("core.grid_"+strategy+"."+name), time.Millisecond)
		}
	}
	// Probe counts are per machine seed; an op covers figsSeeds of them.
	perSeed := func(strategy string) float64 {
		return float64(sumOf(tr.withPrefix("core.grid_"+strategy+"."))) / float64((tr.op+1)*figsSeeds)
	}
	if n := tp.rec.median("core.probes_sweep"); n > 0 {
		vals["core.ns_per_probe_sweep"] = perSeed(core.StrategySweep) / n
	}
	if n := tp.rec.median("core.probes_bisect"); n > 0 {
		vals["core.ns_per_probe_bisect"] = perSeed(core.StrategyBisect) / n
	}
	if b := tp.timed.median("figs_bisect_ms"); b > 0 {
		vals["core.bisect_speedup"] = tp.timed.median("figs_sweep_ms") / b
	}
	return vals, nil
}
