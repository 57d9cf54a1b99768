package pstate

import (
	"errors"
	"fmt"
	"sort"

	"plugvolt/internal/sim"
)

// CState describes one idle state (the paper's Sec. 1 background: "a core
// is said to be in a C-state when it is idle, wherein several components of
// the core are switched to reduced power supply").
type CState struct {
	// Name follows Intel convention (C0 = executing).
	Name string
	// Index orders states by depth (0 = running).
	Index int
	// ExitLatency is the wakeup cost.
	ExitLatency sim.Duration
	// TargetResidency is the minimum idle span for which entering pays off.
	TargetResidency sim.Duration
	// PowerFactor scales the core's C0 power while resident (1.0 = C0).
	PowerFactor float64
}

// DefaultCStates returns an Intel-typical ladder (POLL omitted).
func DefaultCStates() []CState {
	return []CState{
		{Name: "C0", Index: 0, ExitLatency: 0, TargetResidency: 0, PowerFactor: 1.00},
		{Name: "C1", Index: 1, ExitLatency: 2 * sim.Microsecond, TargetResidency: 2 * sim.Microsecond, PowerFactor: 0.55},
		{Name: "C1E", Index: 2, ExitLatency: 10 * sim.Microsecond, TargetResidency: 20 * sim.Microsecond, PowerFactor: 0.35},
		{Name: "C6", Index: 3, ExitLatency: 133 * sim.Microsecond, TargetResidency: 600 * sim.Microsecond, PowerFactor: 0.05},
	}
}

// coreIdle tracks one core's idle status.
type coreIdle struct {
	state     int // index into states
	enteredAt sim.Time
	residency map[string]sim.Duration
	entries   map[string]uint64
}

// IdleGovernor is a menu-style cpuidle governor: given a predicted idle
// span it picks the deepest state whose target residency fits.
type IdleGovernor struct {
	simr   *sim.Simulator
	states []CState
	cores  []*coreIdle
	// Wakeups counts Exit calls.
	Wakeups uint64
}

// NewIdleGovernor validates the ladder and builds per-core tracking.
func NewIdleGovernor(s *sim.Simulator, numCores int, states []CState) (*IdleGovernor, error) {
	if numCores <= 0 {
		return nil, errors.New("pstate: need at least one core")
	}
	if len(states) == 0 || states[0].Index != 0 || states[0].ExitLatency != 0 {
		return nil, errors.New("pstate: ladder must start at C0 with zero exit latency")
	}
	for i := 1; i < len(states); i++ {
		prev, cur := states[i-1], states[i]
		if cur.Index != prev.Index+1 {
			return nil, fmt.Errorf("pstate: ladder indices not contiguous at %s", cur.Name)
		}
		if cur.ExitLatency < prev.ExitLatency || cur.TargetResidency < prev.TargetResidency {
			return nil, fmt.Errorf("pstate: deeper state %s cheaper than %s", cur.Name, prev.Name)
		}
		if cur.PowerFactor >= prev.PowerFactor || cur.PowerFactor < 0 {
			return nil, fmt.Errorf("pstate: deeper state %s does not save power", cur.Name)
		}
	}
	g := &IdleGovernor{simr: s, states: states}
	for i := 0; i < numCores; i++ {
		g.cores = append(g.cores, &coreIdle{
			residency: map[string]sim.Duration{},
			entries:   map[string]uint64{},
		})
	}
	return g, nil
}

// Current returns core's resident state.
func (g *IdleGovernor) Current(core int) (CState, error) {
	if core < 0 || core >= len(g.cores) {
		return CState{}, fmt.Errorf("pstate: no core %d", core)
	}
	return g.states[g.cores[core].state], nil
}

// Select returns the state the menu heuristic would choose for a predicted
// idle span, without entering it.
func (g *IdleGovernor) Select(predictedIdle sim.Duration) CState {
	chosen := g.states[0]
	for _, st := range g.states[1:] {
		if st.TargetResidency <= predictedIdle && st.ExitLatency*2 <= predictedIdle {
			chosen = st
		}
	}
	return chosen
}

// Enter puts the core into the state selected for predictedIdle and starts
// residency accounting. Entering from a non-C0 state is an error (the
// kernel always wakes before re-idling).
func (g *IdleGovernor) Enter(core int, predictedIdle sim.Duration) (CState, error) {
	if core < 0 || core >= len(g.cores) {
		return CState{}, fmt.Errorf("pstate: no core %d", core)
	}
	ci := g.cores[core]
	if ci.state != 0 {
		return CState{}, fmt.Errorf("pstate: core %d already idle in %s", core, g.states[ci.state].Name)
	}
	st := g.Select(predictedIdle)
	ci.state = st.Index
	ci.enteredAt = g.simr.Now()
	ci.entries[st.Name]++
	return st, nil
}

// Exit wakes the core, charges the exit latency on the simulator clock and
// returns it. Exiting C0 is a no-op.
func (g *IdleGovernor) Exit(core int) (sim.Duration, error) {
	if core < 0 || core >= len(g.cores) {
		return 0, fmt.Errorf("pstate: no core %d", core)
	}
	ci := g.cores[core]
	if ci.state == 0 {
		return 0, nil
	}
	st := g.states[ci.state]
	ci.residency[st.Name] += g.simr.Now() - ci.enteredAt
	ci.state = 0
	g.Wakeups++
	g.simr.RunFor(st.ExitLatency)
	return st.ExitLatency, nil
}

// Residency returns core's accumulated time per state name.
func (g *IdleGovernor) Residency(core int) map[string]sim.Duration {
	if core < 0 || core >= len(g.cores) {
		return nil
	}
	out := make(map[string]sim.Duration, len(g.cores[core].residency))
	for k, v := range g.cores[core].residency {
		out[k] = v
	}
	return out
}

// Entries returns core's entry counts per state name.
func (g *IdleGovernor) Entries(core int) map[string]uint64 {
	if core < 0 || core >= len(g.cores) {
		return nil
	}
	out := make(map[string]uint64, len(g.cores[core].entries))
	for k, v := range g.cores[core].entries {
		out[k] = v
	}
	return out
}

// PowerFactor returns the resident state's power factor for core — the
// hook the power meter uses to discount idle cores.
func (g *IdleGovernor) PowerFactor(core int) float64 {
	if core < 0 || core >= len(g.cores) {
		return 1
	}
	return g.states[g.cores[core].state].PowerFactor
}

// SortedNames lists state names in depth order (stable output for reports).
func SortedNames(m map[string]sim.Duration) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
