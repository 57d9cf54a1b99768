package core

import (
	"sync"
	"sync/atomic"

	"plugvolt/internal/cpu"
)

// rowKey names one shared prediction row within a Spec: the row's
// commanded frequency as cpu.Core.PredictPoint reports it, the EXECUTE
// class, the batch length and the offset axis. Everything else a cell's
// Eq. 1 evaluation reads belongs to the Spec that holds the table.
type rowKey struct {
	freqGHz          float64
	class            cpu.Class
	iterations       int
	start, end, step int
}

// predictedCell is one cell's analytic prediction: the settled rail
// voltage and the batch fault and crash probabilities there.
type predictedCell struct {
	voltV        float64
	pAnyF, pAnyC float64
}

// rowTable is one frequency row's predicted batch upset probabilities,
// shared through the Spec by every characterizer of that model — both
// strategies, every seed, shard worker and fleet machine — so each cell's
// Eq. 1 evaluation runs once per Spec rather than once per probe or
// prediction. It holds predictions only (cpu.Core.PredictPoint and
// PredictProbabilities); a live, possibly interfered reading is never
// written into it.
//
// Cells are computed left to right, up to the deepest index any caller
// has asked for. Extending the prefix takes mu; readers load n and take no
// lock. Every cell below n, and regress once n reaches the row's end, was
// written before the store of n that published it and is never written
// again.
type rowTable struct {
	key   rowKey
	offs  []int
	cells []predictedCell
	// regress is the first cell whose predicted probabilities fall below
	// its predecessor's, len(offs) on a monotone row. Read it only once
	// upTo has returned the whole row.
	regress int
	n       atomic.Int64
	mu      sync.Mutex
}

// rowTable returns the shared prediction table of the victim core's
// commanded row on the configured axis offs.
func (c *rowProber) rowTable(offs []int) *rowTable {
	ghz, _ := c.p.Core(c.cfg.VictimCore).PredictPoint(offs[0])
	key := rowKey{freqGHz: ghz, class: c.class(), iterations: c.cfg.Iterations,
		start: c.cfg.OffsetStartMV, end: c.cfg.OffsetEndMV, step: c.cfg.OffsetStepMV}
	return c.p.Spec.Memo(key, func() any {
		return &rowTable{
			key:     key,
			offs:    append([]int(nil), offs...),
			cells:   make([]predictedCell, len(offs)),
			regress: len(offs),
		}
	}).(*rowTable)
}

// upTo returns the row's first k cells, computing the missing ones from
// core's predictions. core must be commanded to the table's row frequency.
func (t *rowTable) upTo(core *cpu.Core, k int) []predictedCell {
	if int(t.n.Load()) >= k {
		return t.cells[:k]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := int(t.n.Load()); i < k; i++ {
		_, v := core.PredictPoint(t.offs[i])
		pf, pc := core.PredictProbabilities(t.key.class, t.offs[i])
		cell := predictedCell{
			voltV: v,
			pAnyF: cpu.BatchUpsetProbability(t.key.iterations, pf),
			pAnyC: cpu.BatchUpsetProbability(t.key.iterations, pc),
		}
		if i > 0 && t.regress == len(t.offs) &&
			(cell.pAnyF < t.cells[i-1].pAnyF || cell.pAnyC < t.cells[i-1].pAnyC) {
			t.regress = i
		}
		t.cells[i] = cell
		t.n.Store(int64(i + 1))
	}
	return t.cells[:k]
}
