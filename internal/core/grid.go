// Package core implements the paper's contribution: empirical safe/unsafe
// state characterization of a system (Sec. 4.2, Algorithm 2), the unsafe-set
// representation the countermeasure consults, the maximal-safe-state notion
// of Sec. 5, and the polling kernel module of Sec. 4.3 (Algorithm 3).
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// Classification of one (frequency, offset) grid point.
type Classification uint8

// Grid-point classes. Crash marks both observed crashes and deeper offsets
// at the same frequency that the sweep never reaches (the paper stops a
// frequency's sweep at the first crash; monotonicity of Eq. 1 in voltage
// justifies labelling everything deeper as at-least-crash).
const (
	Safe Classification = iota
	Fault
	Crash
)

func (c Classification) String() string {
	switch c {
	case Safe:
		return "safe"
	case Fault:
		return "fault"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Grid is the full characterization result for one machine: the paper's
// Figs. 2/3/4 in data form.
type Grid struct {
	Model     string `json:"model"`
	Microcode string `json:"microcode"`
	Seed      int64  `json:"seed"`
	// Iterations is the EXECUTE-thread loop length per grid point.
	Iterations int `json:"iterations"`
	// FreqsKHz are the swept frequencies, ascending.
	FreqsKHz []int `json:"freqs_khz"`
	// OffsetsMV are the swept offsets, from -1 downward (e.g. -1..-300).
	OffsetsMV []int `json:"offsets_mv"`
	// Cells[f][o] classifies (FreqsKHz[f], OffsetsMV[o]).
	Cells [][]Classification `json:"cells"`
	// Reboots is the number of crash recoveries the sweep needed.
	Reboots int `json:"reboots"`
}

// Validate checks structural consistency.
func (g *Grid) Validate() error {
	if len(g.FreqsKHz) == 0 || len(g.OffsetsMV) == 0 {
		return errors.New("core: empty grid axes")
	}
	if !sort.IntsAreSorted(g.FreqsKHz) {
		return errors.New("core: frequencies not ascending")
	}
	for i := 1; i < len(g.OffsetsMV); i++ {
		if g.OffsetsMV[i] >= g.OffsetsMV[i-1] {
			return errors.New("core: offsets not strictly descending")
		}
	}
	if g.OffsetsMV[0] >= 0 {
		return errors.New("core: offsets must be negative (undervolt sweep)")
	}
	if len(g.Cells) != len(g.FreqsKHz) {
		return fmt.Errorf("core: %d cell rows for %d frequencies", len(g.Cells), len(g.FreqsKHz))
	}
	for i, row := range g.Cells {
		if len(row) != len(g.OffsetsMV) {
			return fmt.Errorf("core: row %d has %d cells, want %d", i, len(row), len(g.OffsetsMV))
		}
	}
	return nil
}

// freqIndex locates freqKHz exactly; ok=false if unswept.
func (g *Grid) freqIndex(freqKHz int) (int, bool) {
	i := sort.SearchInts(g.FreqsKHz, freqKHz)
	if i < len(g.FreqsKHz) && g.FreqsKHz[i] == freqKHz {
		return i, true
	}
	return 0, false
}

// OnsetMV returns the first (shallowest) offset at which freqKHz leaves the
// safe region; ok=false if the whole sweep stayed safe at that frequency.
func (g *Grid) OnsetMV(freqKHz int) (int, bool) {
	fi, found := g.freqIndex(freqKHz)
	if !found {
		return 0, false
	}
	for oi, cl := range g.Cells[fi] {
		if cl != Safe {
			return g.OffsetsMV[oi], true
		}
	}
	return 0, false
}

// CrashMV returns the first offset at which freqKHz crashes.
func (g *Grid) CrashMV(freqKHz int) (int, bool) {
	fi, found := g.freqIndex(freqKHz)
	if !found {
		return 0, false
	}
	for oi, cl := range g.Cells[fi] {
		if cl == Crash {
			return g.OffsetsMV[oi], true
		}
	}
	return 0, false
}

// MaximalSafeOffsetMV computes the paper's maximal safe state: the deepest
// swept offset that is Safe at *every* swept frequency, shifted shallower
// by an optional guard band in mV. Returns 0 if even the shallowest swept
// offset is unsafe somewhere (no undervolt is universally safe).
func (g *Grid) MaximalSafeOffsetMV(guardBandMV int) int {
	if guardBandMV < 0 {
		guardBandMV = 0
	}
	allSafe := func(oi int) bool {
		for fi := range g.FreqsKHz {
			if g.Cells[fi][oi] != Safe {
				return false
			}
		}
		return true
	}
	msv := 0
	for oi := range g.OffsetsMV { // shallow -> deep
		if !allSafe(oi) {
			break
		}
		msv = g.OffsetsMV[oi]
	}
	msv += guardBandMV
	if msv > 0 {
		msv = 0
	}
	return msv
}

// UnsafeSet compiles the lookup structure Algorithm 3 polls against.
func (g *Grid) UnsafeSet() *UnsafeSet {
	u := &UnsafeSet{
		Model:    g.Model,
		FreqsKHz: append([]int(nil), g.FreqsKHz...),
		OnsetMV:  make(map[int]int, len(g.FreqsKHz)),
		FloorMV:  g.OffsetsMV[len(g.OffsetsMV)-1],
	}
	for _, f := range g.FreqsKHz {
		if onset, ok := g.OnsetMV(f); ok {
			u.OnsetMV[f] = onset
		}
	}
	return u
}

// MarshalJSON round-trips through a shadow type to keep the exported shape
// stable; Grid itself is plain data so the default marshalling is fine.
func (g *Grid) JSON() ([]byte, error) { return json.MarshalIndent(g, "", " ") }

// GridFromJSON parses and validates a serialized grid.
func GridFromJSON(data []byte) (*Grid, error) {
	var g Grid
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// UnsafeSet is the compiled safe/unsafe boundary: for each characterized
// frequency, the shallowest offset that is no longer safe. Membership is
// "offset at or below the boundary". Frequencies between characterized
// points resolve to the more conservative (shallower) neighbouring
// boundary, so interpolation can only over-protect, never under-protect.
// The guard polls the RatioLUT that Compile builds from the set, so its
// lookups, off-grid scan included, run once per ratio at deployment and
// never on the poll path.
type UnsafeSet struct {
	Model    string      `json:"model"`
	FreqsKHz []int       `json:"freqs_khz"`
	OnsetMV  map[int]int `json:"onset_mv"`
	// FloorMV is the deepest swept offset (context for consumers).
	FloorMV int `json:"floor_mv"`
}

// boundaryFor resolves the onset boundary for an arbitrary frequency.
// ok=false means no frequency in the set faults (nothing to protect).
func (u *UnsafeSet) boundaryFor(freqKHz int) (int, bool) {
	if len(u.OnsetMV) == 0 {
		return 0, false
	}
	if onset, ok := u.OnsetMV[freqKHz]; ok {
		return onset, true
	}
	// Off-grid frequency: take the shallower (more conservative) of the
	// two neighbours that have boundaries.
	i := sort.SearchInts(u.FreqsKHz, freqKHz)
	best := 0
	found := false
	consider := func(idx int) {
		if idx < 0 || idx >= len(u.FreqsKHz) {
			return
		}
		if onset, ok := u.OnsetMV[u.FreqsKHz[idx]]; ok {
			if !found || onset > best {
				best = onset
				found = true
			}
		}
	}
	consider(i - 1)
	consider(i)
	if !found {
		// Neighbours entirely safe; fall back to the global shallowest
		// boundary for conservatism.
		for _, onset := range u.OnsetMV {
			if !found || onset > best {
				best = onset
				found = true
			}
		}
	}
	return best, found
}

// Contains reports whether (freqKHz, offsetMV) is an unsafe system state.
func (u *UnsafeSet) Contains(freqKHz, offsetMV int) bool {
	b, ok := u.boundaryFor(freqKHz)
	if !ok {
		return false
	}
	return offsetMV <= b
}
