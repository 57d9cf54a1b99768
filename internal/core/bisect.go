package core

import (
	"fmt"

	"plugvolt/internal/cpu"
	"plugvolt/internal/search"
)

// rowStats carries one row's search economics from a worker to the merge
// loop (telemetry and SearchStats only — the grid never depends on it).
type rowStats struct {
	// probes counts measured sim probes spent on the row (bisect probes
	// plus, on fallback, the full linear re-sweep).
	probes int
	// fallback reports that the bisect strategy abandoned the row to a
	// verified linear sweep after a monotonicity check failed.
	fallback bool
}

// SearchStats aggregates the probe economics of the most recent Run.
type SearchStats struct {
	// Strategy is the resolved sweep strategy ("sweep" or "bisect").
	Strategy string
	// Rows counts merged frequency rows; Probes counts measured sim probes
	// across all of them (the sweep-vs-bisect comparison axis).
	Rows, Probes int
	// FallbackRows counts bisect rows that fell back to a linear sweep.
	FallbackRows int
	// OnsetRows counts rows with at least one non-Safe cell.
	OnsetRows int
}

// Stats returns the probe economics of the most recent Run. Valid after
// Run returns; zero before.
func (sc *ShardedCharacterizer) Stats() SearchStats { return sc.stats }

// strategy resolves the configured sweep strategy, defaulting to sweep.
func (sc *ShardedCharacterizer) strategy() string {
	if sc.cfg.Strategy == "" {
		return StrategySweep
	}
	return sc.cfg.Strategy
}

// bisectRowInto classifies one frequency row with O(log N) measured probes
// instead of the sweep's O(N):
//
//  1. pin the row frequency through cpupower, exactly as the sweep does;
//  2. predict every cell's batch upset probabilities analytically
//     (cpu.Core.PredictProbabilities — no sim events) and require them to
//     be non-decreasing with depth;
//  3. bisect for the measured fault onset inside the predicted non-crash
//     prefix, cross-checking every measured probe against its predicted
//     class;
//  4. verify the crash boundary: the deepest predicted non-crash cell must
//     measure non-Crash and the first predicted crash cell must measure
//     Crash — that one probe pays the same single reboot the sweep's first
//     crash cell does, keeping Grid.Reboots identical;
//  5. fill the row Safe / Fault / Crash from the verified onsets.
//
// Any contradiction — a predicted probability regression or a measured
// probe that disagrees with its prediction (an MSR hook or defense
// intercepting writes, say) — aborts with an error wrapping
// search.ErrNonMonotone so the caller can fall back to the linear sweep.
// Interference is thereby detectable exactly at probed cells; between
// probes the row's shape rests on the verified monotone model, which is
// the contract that makes O(log N) possible at all.
func (c *rowProber) bisectRowInto(row []Classification, freqKHz int, offs []int) error {
	// Line 9: set core frequency through cpupower.
	if err := c.cp.FrequencySet(c.cfg.VictimCore, freqKHz); err != nil {
		return fmt.Errorf("core: cpupower at %d kHz: %w", freqKHz, err)
	}
	n := len(offs)
	if n == 0 {
		return nil
	}
	core := c.p.Core(c.cfg.VictimCore)
	uF, uC := c.probeU(freqKHz)
	pAnyF := make([]float64, n)
	pAnyC := make([]float64, n)
	for i, off := range offs {
		pf, pc := core.PredictProbabilities(c.class(), off)
		pAnyF[i] = cpu.BatchUpsetProbability(c.cfg.Iterations, pf)
		pAnyC[i] = cpu.BatchUpsetProbability(c.cfg.Iterations, pc)
		if i > 0 && (pAnyF[i] < pAnyF[i-1] || pAnyC[i] < pAnyC[i-1]) {
			return fmt.Errorf("core: predicted upset probability regresses at %d mV: %w",
				off, search.ErrNonMonotone)
		}
	}
	predict := func(i int) Classification { return classifyCoupled(pAnyF[i], pAnyC[i], uF, uC) }
	// First predicted Crash cell; the monotone probabilities and fixed
	// thresholds make the predicted row Safe* Fault* Crash* by construction.
	predC := n
	for i := 0; i < n; i++ {
		if predict(i) == Crash {
			predC = i
			break
		}
	}
	// Measured probes, memoized (the boundary cells can be hit both by the
	// bisection and the explicit verification) and each cross-checked
	// against its prediction.
	cache := make(map[int]Classification, 16)
	measure := func(i int) (Classification, error) {
		if cls, ok := cache[i]; ok {
			return cls, nil
		}
		cls, err := c.measurePoint(freqKHz, offs[i])
		if err != nil {
			return cls, err
		}
		cache[i] = cls
		if want := predict(i); cls != want {
			return cls, fmt.Errorf("core: cell %d mV measured %s, predicted %s: %w",
				offs[i], cls, want, search.ErrNonMonotone)
		}
		return cls, nil
	}
	// Measured fault-onset bisection over the predicted non-crash prefix.
	// Probes stay out of the crash region, so no reboot happens mid-search.
	onset, _, err := search.BisectFirst(predC, func(i int) (bool, error) {
		cls, err := measure(i)
		return cls != Safe, err
	})
	if err != nil {
		return err
	}
	// Crash-boundary verification (step 4).
	if predC > 0 {
		if _, err := measure(predC - 1); err != nil {
			return err
		}
	}
	if predC < n {
		if _, err := measure(predC); err != nil {
			return err // includes "measured non-Crash": prediction mismatch
		}
		// The verified crash reboots the platform, exactly once per
		// crashing row — the same count the sweep accumulates.
		c.p.Reboot()
		if err := c.resetCPUPower(); err != nil {
			return err
		}
	}
	for i := range row {
		switch {
		case i >= predC:
			row[i] = Crash
		case i >= onset:
			row[i] = Fault
		default:
			row[i] = Safe
		}
	}
	return nil
}
