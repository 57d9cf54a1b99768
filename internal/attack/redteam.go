package attack

import (
	"errors"
	"fmt"
	"math"

	"plugvolt/internal/cpu"
	"plugvolt/internal/defense"
	"plugvolt/internal/search"
	"plugvolt/internal/sim"
	"plugvolt/internal/victim"
)

// RedTeam is the adaptive glitch-search campaign: instead of replaying a
// published attack's fixed undervolt schedule, it runs seeded simulated
// annealing over (frequency, offset, dwell, phase) against the live,
// defended machine, hunting the *minimal* faulting glitch. It is the
// harshest workload the guard faces — every probe is a fresh operating
// point chosen by an optimizer that adapts to whatever the defense let
// through — and it reports probes-to-first-fault, the attacker-side metric
// of how much protection the defense actually buys.
type RedTeam struct {
	// VictimCore runs the imul victim loop.
	VictimCore int
	// Seed drives the annealer's splitmix64 stream: a fixed seed replays
	// the exact probe sequence bit for bit.
	Seed int64
	// Steps is the annealing probe budget.
	Steps int
	// BatchSize is the victim imul loop length per probe.
	BatchSize int
	// OffsetStartMV/OffsetStepMV/OffsetCells define the offset axis
	// (OffsetStartMV + i*OffsetStepMV for i in [0, OffsetCells)).
	OffsetStartMV, OffsetStepMV, OffsetCells int
	// Dwells and Phases are the candidate values for the post-batch dwell
	// and the write-to-batch phase delay axes.
	Dwells, Phases []sim.Duration
}

// Annealer cost shaping: faulting probes cost |offset| (minimal glitch =
// shallowest faulting one); quiet probes cost a base plus their distance
// from the axis floor, pulling the walk deeper; crashes and blocked writes
// cost more than any quiet probe so the walk learns to avoid them.
const (
	redteamQuietBase   = 1000.0
	redteamCrashCost   = 3000.0
	redteamBlockedCost = 5000.0
)

// DefaultRedTeam returns the fleet's red-team attacker configuration.
func DefaultRedTeam(seed int64) *RedTeam {
	return &RedTeam{
		VictimCore:    1,
		Seed:          seed,
		Steps:         120,
		BatchSize:     200_000,
		OffsetStartMV: -20,
		OffsetStepMV:  -5,
		OffsetCells:   60,
		Dwells:        []sim.Duration{50 * sim.Microsecond, 150 * sim.Microsecond, 400 * sim.Microsecond},
		Phases:        []sim.Duration{0, 25 * sim.Microsecond, 100 * sim.Microsecond},
	}
}

// Name identifies the campaign in its results.
func (*RedTeam) Name() string { return "redteam" }

// offsetMV maps an offset-axis index to millivolts.
func (a *RedTeam) offsetMV(i int) int { return a.OffsetStartMV + i*a.OffsetStepMV }

// Run implements Attack. The campaign is bit-for-bit deterministic for a
// fixed (seed, env): all randomness comes from the annealer's seeded
// stream and the platform's own seeded simulator.
func (a *RedTeam) Run(env *defense.Env, defName string) (*Result, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if a.OffsetCells <= 0 || a.OffsetStepMV >= 0 || len(a.Dwells) == 0 || len(a.Phases) == 0 {
		return nil, fmt.Errorf("attack: bad redteam axes (cells=%d step=%d dwells=%d phases=%d)",
			a.OffsetCells, a.OffsetStepMV, len(a.Dwells), len(a.Phases))
	}
	p := env.Platform
	r := &Result{Attack: a.Name(), Defense: defName, Model: p.Spec.Codename}
	tel := newCampaignTel(env, r.Attack, defName, a.VictimCore)
	defer tel.done(r)
	start := p.Sim.Now()
	defer func() { r.Duration = p.Sim.Now() - start }()

	freqs := p.FreqTableKHz()
	axes := []search.Axis{
		{Name: "freq", Size: len(freqs)},
		{Name: "offset", Size: a.OffsetCells},
		{Name: "dwell", Size: len(a.Dwells)},
		{Name: "phase", Size: len(a.Phases)},
	}
	floorMV := math.Abs(float64(a.offsetMV(a.OffsetCells - 1)))

	cfg := search.DefaultAnnealConfig(a.Seed, a.Steps)
	cfg.OnProbe = func(probe int, state []int, cost float64, faulted, accepted bool) {
		if tel.spans == nil {
			return
		}
		// One search-trace span per probe, parented under the campaign
		// span, so the optimizer's walk is causally inspectable.
		sp := tel.spans.Start("attack", "search_probe", map[string]any{
			"probe": probe, "freq_khz": freqs[state[0]],
			"offset_mv": a.offsetMV(state[1]),
			"dwell_us":  int64(a.Dwells[state[2]] / sim.Microsecond),
			"phase_us":  int64(a.Phases[state[3]] / sim.Microsecond),
			"faulted":   faulted, "accepted": accepted,
		})
		sp.SetAttr("cost", cost)
		sp.End()
	}

	eval := func(_ int, state []int) (float64, bool, error) {
		freqKHz := freqs[state[0]]
		off := a.offsetMV(state[1])
		dwell := a.Dwells[state[2]]
		phase := a.Phases[state[3]]
		if err := pinFrequency(env, a.VictimCore, freqKHz); err != nil {
			return 0, false, err
		}
		if !writeOffset(env, r, tel, a.VictimCore, off) {
			// Rejected by access control; dwell and move on.
			p.Sim.RunFor(dwell)
			return redteamBlockedCost, false, nil
		}
		p.Sim.RunFor(phase)
		loop, err := victim.NewIMulLoop(p.Core(a.VictimCore), a.BatchSize)
		if err != nil {
			return 0, false, err
		}
		res, err := loop.RunBatch()
		if err != nil {
			if errors.Is(err, cpu.ErrCrashed) {
				r.Crashes++
				tel.crash(r, off)
				p.Reboot()
				p.Sim.RunFor(dwell)
				return redteamCrashCost, false, nil
			}
			return 0, false, err
		}
		p.Sim.RunFor(dwell)
		r.Attempts++
		if res.Faults > 0 {
			r.FaultsObserved += res.Faults
			// tel.fault fires the flight-recorder incident trigger: a fault
			// the guard failed to close is frozen into a bundle here.
			tel.fault(r, res.Faults, off)
			return math.Abs(float64(off)), true, nil
		}
		return redteamQuietBase + floorMV - math.Abs(float64(off)), false, nil
	}

	res, err := search.Anneal(axes, cfg, eval)
	if err != nil {
		return nil, err
	}
	r.ProbesToFirstFault = res.FirstFaultProbe
	r.Succeeded = res.FirstFaultProbe > 0
	if res.Best != nil {
		r.Notes = fmt.Sprintf(
			"minimal faulting glitch: %d mV at %d kHz (dwell %v, phase %v); first fault at probe %d of %d",
			a.offsetMV(res.Best[1]), freqs[res.Best[0]],
			a.Dwells[res.Best[2]], a.Phases[res.Best[3]],
			res.FirstFaultProbe, res.Probes)
	} else {
		r.Notes = fmt.Sprintf("annealing budget of %d probes exhausted without a fault", res.Probes)
	}
	return r, nil
}
