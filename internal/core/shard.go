package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"plugvolt/internal/cpu"
	"plugvolt/internal/models"
	"plugvolt/internal/msr"
	"plugvolt/internal/search"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
)

// RowSeed derives the private RNG seed for one frequency row of a sharded
// sweep: seed ^ freqKHz. Every row's stochastic realization (jitter coin
// flips, fault masks, crash points) is a pure function of the experiment
// seed and the row frequency — never of which worker swept the row or in
// what order — which is what makes the parallel sweep bit-for-bit equal to
// the single-worker one.
func RowSeed(seed int64, freqKHz int) int64 { return seed ^ int64(freqKHz) }

// ShardedCharacterizer runs Algorithm 2 with the frequency axis partitioned
// across N workers. Frequency rows are independent by construction (each
// row starts from offset 0 and stops at its own crash onset), so the sweep
// is embarrassingly parallel; the engine preserves determinism by running
// every row on a platform stack (simulator, cores, MSR files, PLLs,
// regulators, cpufreq) in its power-on state for RowSeed — each worker
// resets one private platform to the seed of every row it takes — and by
// merging finished rows — grid cells, counters, journal events and spans
// alike — by frequency index, not completion order. A reset platform is a
// new one in everything observable, so the schedule-dependent sequence of
// rows a worker's platform carries never reaches a grid.
type ShardedCharacterizer struct {
	// Factory supplies each row's platform. A worker calls it at the start
	// of every row, bisect fallbacks included, with the platform its
	// previous row ran on (nil for its first row); the default
	// cpu.FactoryFor(spec) resets that platform to the row seed and builds
	// one only for a worker's first row. It is called concurrently from
	// every worker and must be safe for concurrent use. Tests wrap it to
	// hook, inspect or fail every row. A failed call leaves the worker
	// without a platform, so its next row starts from nil.
	Factory cpu.PlatformFactory

	spec *models.Spec
	seed int64
	cfg  CharacterizerConfig
	// stats holds the most recent Run's probe economics, written only by
	// the merge loop (see Stats).
	stats SearchStats
}

// NewShardedCharacterizer validates the sweep config against the spec.
func NewShardedCharacterizer(spec *models.Spec, seed int64, cfg CharacterizerConfig) (*ShardedCharacterizer, error) {
	if spec == nil {
		return nil, errors.New("core: nil spec")
	}
	if err := validateConfig(cfg, spec.Cores); err != nil {
		return nil, err
	}
	return &ShardedCharacterizer{
		Factory: cpu.FactoryFor(spec),
		spec:    spec,
		seed:    seed,
		cfg:     cfg,
	}, nil
}

// workers resolves the shard count: cfg.Workers, defaulting to GOMAXPROCS,
// capped at the row count (extra workers would only idle).
func (sc *ShardedCharacterizer) workers(rows int) int {
	w := sc.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > rows {
		w = rows
	}
	return w
}

// rowResult carries one finished frequency row from a worker to the merge
// loop.
type rowResult struct {
	fi      int
	row     []Classification
	reboots int
	err     error
	// virtual is the row platform's elapsed virtual time; stats carries the
	// row's search economics. Both feed telemetry only — the merged grid
	// never depends on them.
	virtual sim.Duration
	stats   rowStats
}

// Run executes the sharded sweep and returns the merged grid. The result,
// and everything it publishes to cfg.Telemetry, is byte-identical across
// worker counts and schedules for a given (spec, seed, config); see RowSeed
// for why.
func (sc *ShardedCharacterizer) Run() (*Grid, error) {
	freqs := sc.spec.FreqTableKHz()
	offs := offsetAxis(sc.cfg)
	g := &Grid{
		Model:      sc.spec.Codename,
		Microcode:  sc.spec.Microcode,
		Seed:       sc.seed,
		Iterations: sc.cfg.Iterations,
		FreqsKHz:   freqs,
		OffsetsMV:  offs,
		Cells:      make([][]Classification, len(freqs)),
	}

	// One slab backs every row. Workers write disjoint [fi*len(offs),
	// (fi+1)*len(offs)) windows, so sharing the backing array is race-free
	// and the whole grid costs one allocation instead of one per row.
	cells := make([]Classification, len(freqs)*len(offs))

	jobs := make(chan int)
	results := make(chan rowResult)
	var wg sync.WaitGroup
	for range sc.workers(len(freqs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The worker's prober carries its platform and cpufreq stack
			// from row to row.
			c := &rowProber{cfg: sc.cfg}
			for fi := range jobs {
				r := sc.classifyRow(c, cells[fi*len(offs):(fi+1)*len(offs):(fi+1)*len(offs)], freqs[fi], offs)
				r.fi = fi
				results <- r
			}
		}()
	}
	go func() {
		for fi := range freqs {
			jobs <- fi
		}
		close(jobs)
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// The merge loop is the only consumer of results, so progress callbacks
	// are serialized here in completion order: rows may finish out of
	// order, but callbacks never run concurrently and done counts
	// completions monotonically.
	rows := make([]rowResult, len(freqs))
	done := 0
	for r := range results {
		rows[r.fi] = r
		if r.err != nil {
			continue
		}
		done++
		if sc.cfg.Progress != nil {
			sc.cfg.Progress(freqs[r.fi], done, len(freqs))
		}
	}

	// Everything else is published after the last row, in frequency-index
	// order, so counters, journal events and spans depend on the rows
	// alone. A failed run reports the failing row with the lowest frequency
	// index, so the error is independent of the worker count too.
	obs := newSweepObserver(sc.cfg.Telemetry, sc.strategy())
	sc.stats = SearchStats{Strategy: sc.strategy()}
	var failErr error
	for fi, r := range rows {
		if r.err != nil {
			if failErr == nil {
				failErr = fmt.Errorf("core: shard at %d kHz: %w", freqs[fi], r.err)
			}
			continue
		}
		mergeRow(g, r)
		obs.row(freqs[fi], r)
		sc.stats.Rows++
		sc.stats.Probes += r.stats.probes
		if r.stats.fallback {
			sc.stats.FallbackRows++
		}
		if rowHasOnset(r.row) {
			sc.stats.OnsetRows++
		}
	}
	obs.finish()
	if failErr != nil {
		return nil, failErr
	}
	return g, nil
}

// sweepObserver publishes sharded-sweep telemetry from the merge loop. A
// nil telemetry set yields an observer whose instruments are all nil-safe
// no-ops.
type sweepObserver struct {
	tel     *telemetry.Set
	rowsC   *telemetry.Counter
	rebootC *telemetry.Counter
	cellsC  [3]*telemetry.Counter // indexed by Classification
	rate    *telemetry.Gauge

	probesC   *telemetry.Counter
	onsetC    *telemetry.Counter
	fallbackC *telemetry.Counter

	rows         int
	totalVirtual sim.Duration
}

func newSweepObserver(tel *telemetry.Set, strategy string) *sweepObserver {
	o := &sweepObserver{tel: tel}
	if tel == nil {
		return o
	}
	reg := tel.Registry()
	o.rowsC = reg.Counter("characterize_rows_total", "completed frequency rows", nil)
	o.rebootC = reg.Counter("characterize_reboots_total", "crash recoveries during the sweep", nil)
	lbl := telemetry.Labels{"strategy": strategy}
	o.probesC = reg.Counter("search_probes_total",
		"measured sim probes spent classifying frequency rows", lbl)
	o.onsetC = reg.Counter("search_onset_found",
		"frequency rows where an unsafe onset was located", lbl)
	o.fallbackC = reg.Counter("search_fallback_rows_total",
		"bisect rows that fell back to a verified linear sweep", lbl)
	for _, cls := range []Classification{Safe, Fault, Crash} {
		o.cellsC[cls] = reg.Counter("characterize_cells_total",
			"classified (frequency, offset) grid points",
			telemetry.Labels{"class": cls.String()})
	}
	o.rate = reg.Gauge("characterize_rows_per_virtual_second",
		"sweep throughput: rows per virtual second of row-platform time", nil)
	return o
}

// row records one merged frequency row.
func (o *sweepObserver) row(freqKHz int, r rowResult) {
	o.rows++
	o.totalVirtual += r.virtual
	if o.tel == nil {
		return
	}
	var perClass [3]int
	for _, c := range r.row {
		if int(c) < len(perClass) {
			perClass[c]++
		}
	}
	o.rowsC.Inc()
	o.rebootC.Add(float64(r.reboots))
	o.probesC.Add(float64(r.stats.probes))
	if perClass[Fault]+perClass[Crash] > 0 {
		o.onsetC.Inc()
	}
	if r.stats.fallback {
		o.fallbackC.Inc()
	}
	for cls, n := range perClass {
		o.cellsC[cls].Add(float64(n))
	}
	o.tel.Events().Emit("characterize_row", map[string]any{
		"freq_khz": freqKHz, "cells": len(r.row),
		"safe": perClass[Safe], "fault": perClass[Fault], "crash": perClass[Crash],
		"reboots": r.reboots, "virtual_ps": int64(r.virtual),
	})
	// One causal span per merged row. The track is per-frequency (not
	// per-worker) and the duration is the row platform's own virtual time,
	// so the exported trace is byte-identical for any worker count.
	o.tel.Spans().Complete(fmt.Sprintf("characterize/%d", freqKHz), "row",
		0, r.virtual, map[string]any{
			"freq_khz": freqKHz, "cells": len(r.row),
			"safe": perClass[Safe], "fault": perClass[Fault], "crash": perClass[Crash],
			"reboots": r.reboots,
		})
}

// finish publishes the end-of-sweep aggregates.
func (o *sweepObserver) finish() {
	if o.tel == nil || o.totalVirtual == 0 {
		return
	}
	o.rate.Set(float64(o.rows) / telemetry.Seconds(o.totalVirtual))
}

// rowHasOnset reports whether a row contains any non-Safe cell.
func rowHasOnset(row []Classification) bool {
	for _, c := range row {
		if c != Safe {
			return true
		}
	}
	return false
}

// mergeRow lands one finished row in the grid. Placement is by frequency
// index and the reboot count is a sum, so the merged grid is independent of
// arrival order.
func mergeRow(g *Grid, r rowResult) {
	g.Cells[r.fi] = r.row
	g.Reboots += r.reboots
}

// classifyRow characterizes one frequency row with the configured strategy
// on the worker's prober. A bisect row whose measured probes contradict its
// prediction is rerun as a sweep on the platform reset to the row seed (the
// half-probed one may hold partial mailbox state or a crash), so its cells
// are the sweep strategy's by construction; its probe count includes the
// abandoned bisect probes.
func (sc *ShardedCharacterizer) classifyRow(c *rowProber, row []Classification, freqKHz int, offs []int) rowResult {
	if sc.cfg.Strategy != StrategyBisect {
		return sc.runRow(c, row, freqKHz, offs, (*rowProber).sweepRowInto)
	}
	r := sc.runRow(c, row, freqKHz, offs, (*rowProber).bisectRowInto)
	if !errors.Is(r.err, search.ErrNonMonotone) {
		return r
	}
	fb := sc.runRow(c, row, freqKHz, offs, (*rowProber).sweepRowInto)
	fb.stats = rowStats{probes: r.stats.probes + fb.stats.probes, fallback: true}
	return fb
}

// runRow runs Algorithm 2's per-row protocol on the worker's platform,
// reset to the row seed: record the stock operating point (lines 6-7),
// classify the row into the caller's buffer, and restore the stock
// frequency and zero offset (lines 13-14). The restore is part of the row's
// virtual time, which the characterize_row span and metrics report, and
// the platform is left restored until Factory resets it for the worker's
// next row.
func (sc *ShardedCharacterizer) runRow(c *rowProber, row []Classification, freqKHz int, offs []int,
	classify func(*rowProber, []Classification, int, []int) error) rowResult {
	if err := c.start(sc.Factory, RowSeed(sc.seed, freqKHz)); err != nil {
		return rowResult{err: err}
	}
	p := c.p
	origStatus, err := p.MSRFile(sc.cfg.VictimCore).Read(msr.IA32PerfStatus)
	if err != nil {
		return rowResult{err: err}
	}
	origRatio, _ := msr.DecodePerfStatus(origStatus)
	err = classify(c, row, freqKHz, offs)
	if err == nil {
		err = c.restore(msr.RatioToKHz(origRatio, p.Spec.BusMHz))
	}
	r := rowResult{row: row, err: err, stats: rowStats{probes: c.probes}}
	if err == nil {
		r.reboots, r.virtual = p.Reboots, sim.Duration(p.Sim.Now())
	}
	return r
}
