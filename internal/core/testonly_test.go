package core

import (
	"encoding/json"
	"sort"
	"testing"

	"plugvolt/internal/cpu"
	"plugvolt/internal/models"
)

// newRowProber readies a prober on p outside a shard worker, with the
// cpufreq stack a worker's first row gets.
func newRowProber(p *cpu.Platform, cfg CharacterizerConfig) (*rowProber, error) {
	c := &rowProber{p: p, cfg: cfg}
	if err := c.resetCPUPower(); err != nil {
		return nil, err
	}
	return c, nil
}

// allSpecs returns the three evaluated models in paper order.
func allSpecs(tb testing.TB) []*models.Spec {
	tb.Helper()
	var specs []*models.Spec
	for _, name := range []string{"skylake", "kabylaker", "cometlake"} {
		s, err := models.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// Grid and unsafe-set queries only tests use: the guard reads its compiled
// LUT, and the report and CLIs read onsets through OnsetMV and CrashMV.

// offsetIndex locates offsetMV on the descending offset axis.
func (g *Grid) offsetIndex(offsetMV int) (int, bool) {
	// Offsets descend: use binary search on the negated values.
	i := sort.Search(len(g.OffsetsMV), func(i int) bool { return g.OffsetsMV[i] <= offsetMV })
	if i < len(g.OffsetsMV) && g.OffsetsMV[i] == offsetMV {
		return i, true
	}
	return 0, false
}

// At classifies a swept grid point; ok=false when the point is outside the
// sweep (positive offsets and offsets shallower than the first column are
// Safe by construction and reported as such with ok=true).
func (g *Grid) At(freqKHz, offsetMV int) (Classification, bool) {
	fi, ok := g.freqIndex(freqKHz)
	if !ok {
		return Safe, false
	}
	if offsetMV > g.OffsetsMV[0] {
		// Shallower than the sweep start (incl. zero/overvolt): safe zone.
		return Safe, true
	}
	if offsetMV < g.OffsetsMV[len(g.OffsetsMV)-1] {
		// Deeper than the sweep floor: at least as bad as the floor.
		return g.Cells[fi][len(g.OffsetsMV)-1], true
	}
	oi, ok := g.offsetIndex(offsetMV)
	if !ok {
		return Safe, false
	}
	return g.Cells[fi][oi], true
}

// FaultBandWidthMV returns the width (mV) of the fault-but-no-crash band at
// freqKHz — the exploitable window attackers live in.
func (g *Grid) FaultBandWidthMV(freqKHz int) int {
	onset, ok := g.OnsetMV(freqKHz)
	if !ok {
		return 0
	}
	crash, ok := g.CrashMV(freqKHz)
	if !ok {
		// Faults but never crashed within the sweep: band extends to floor.
		return onset - g.OffsetsMV[len(g.OffsetsMV)-1]
	}
	return onset - crash
}

// SafetyMarginMV returns how far (mV) the state is from the unsafe
// boundary; positive = safe headroom, <=0 = inside the unsafe region.
func (u *UnsafeSet) SafetyMarginMV(freqKHz, offsetMV int) int {
	b, ok := u.boundaryFor(freqKHz)
	if !ok {
		return offsetMV - u.FloorMV
	}
	return offsetMV - b
}

// JSON serializes the set.
func (u *UnsafeSet) JSON() ([]byte, error) { return json.MarshalIndent(u, "", " ") }

// UnsafeSetFromJSON parses a serialized set.
func UnsafeSetFromJSON(data []byte) (*UnsafeSet, error) {
	var u UnsafeSet
	if err := json.Unmarshal(data, &u); err != nil {
		return nil, err
	}
	u.precomputeFallback()
	return &u, nil
}

// Running reports whether any polling kthread is live.
func (g *Guard) Running() bool { return g.thread != nil || len(g.threads) > 0 }
