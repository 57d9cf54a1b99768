// Package attack implements the three published DVFS fault attacks the
// paper's countermeasure is evaluated against:
//
//   - Plundervolt (Murdock et al., S&P '20): undervolt through MSR 0x150
//     while an SGX enclave signs with RSA-CRT; one faulty signature factors
//     the modulus via Boneh-DeMillo-Lipton;
//   - VoltJockey (Qiu et al., CCS '19): hold a modest undervolt that is
//     safe at the current frequency, then jack the frequency up so the
//     same offset becomes unsafe — the frequency-side of the paper's
//     "causal independence" root cause;
//   - V0LTpwn (Kenjar et al., USENIX Sec '20): push the core into a state
//     where a victim's FMA/AVX-heavy computation silently corrupts,
//     attacking x86 integrity rather than extracting a key.
//
// Every attack runs against a defense.Env so the evaluation matrix (E1/E2)
// is uniform: the same attack code faces each countermeasure.
package attack

import (
	"errors"
	"fmt"

	"plugvolt/internal/cpu"
	"plugvolt/internal/defense"
	"plugvolt/internal/flight"
	"plugvolt/internal/msr"
	"plugvolt/internal/pstate"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
	"plugvolt/internal/telemetry/span"
	"plugvolt/internal/victim"
)

// campaignTel instruments one attack campaign against the env's optional
// telemetry set. Every method is safe when the env carries no telemetry:
// the counters come back nil and degrade to no-ops.
type campaignTel struct {
	set     *telemetry.Set
	writes  *telemetry.Counter
	blocked *telemetry.Counter
	faults  *telemetry.Counter
	crashes *telemetry.Counter
	spans   *span.Tracer
	// campaign is the open span covering the whole Run; attack steps parent
	// under it in the causal trace.
	campaign *span.Active
	// flight is the env's flight recorder (nil disables capture): every
	// observed fault and crash both records into the ring and fires an
	// incident trigger, freezing the pre-fault state into a bundle.
	flight     *flight.Recorder
	victimCore int
}

func newCampaignTel(env *defense.Env, attackName, defName string, victimCore int) *campaignTel {
	reg := env.Telemetry.Registry()
	lbl := telemetry.Labels{"attack": attackName, "defense": defName}
	t := &campaignTel{
		set:        env.Telemetry,
		writes:     reg.Counter("attack_mailbox_writes_total", "OC mailbox writes issued by the campaign", lbl),
		blocked:    reg.Counter("attack_blocked_writes_total", "mailbox writes rejected by the active defense", lbl),
		faults:     reg.Counter("attack_faults_total", "corrupted victim results observed by the campaign", lbl),
		crashes:    reg.Counter("attack_crashes_total", "machine crashes caused by the campaign", lbl),
		spans:      env.Telemetry.Spans(),
		flight:     env.Flight,
		victimCore: victimCore,
	}
	if t.spans != nil {
		t.campaign = t.spans.Start("attack", "campaign_"+attackName,
			map[string]any{"attack": attackName, "defense": defName})
	}
	return t
}

// done closes the campaign span (virtual-clock duration: campaigns consume
// real simulated time). Call via defer from every Run.
func (t *campaignTel) done(r *Result) {
	t.campaign.SetAttr("succeeded", r.Succeeded)
	t.campaign.End()
}

// fault records n observed faults, journals the observation site, and fires
// a flight trigger so the pre-fault MSR/P-state/guard history is frozen into
// an incident bundle.
func (t *campaignTel) fault(r *Result, n, offsetMV int) {
	if n <= 0 {
		return
	}
	t.faults.Add(float64(n))
	t.set.Events().Emit("attack_fault", map[string]any{
		"attack": r.Attack, "defense": r.Defense, "faults": n,
		"offset_mv": offsetMV, "attempts": r.Attempts,
	})
	if t.flight != nil {
		t.flight.Fault(t.victimCore, n, offsetMV)
		t.flight.Trigger(flight.CauseFault, t.victimCore,
			fmt.Sprintf("attack=%s defense=%s offset_mv=%d faults=%d", r.Attack, r.Defense, offsetMV, n))
	}
}

// crash records a campaign-induced machine crash and fires a flight trigger.
func (t *campaignTel) crash(r *Result, offsetMV int) {
	t.crashes.Inc()
	t.set.Events().Emit("attack_crash", map[string]any{
		"attack": r.Attack, "defense": r.Defense,
		"offset_mv": offsetMV, "attempts": r.Attempts,
	})
	if t.flight != nil {
		t.flight.Crash(t.victimCore, offsetMV)
		t.flight.Trigger(flight.CauseCrash, t.victimCore,
			fmt.Sprintf("attack=%s defense=%s offset_mv=%d", r.Attack, r.Defense, offsetMV))
	}
}

// Result records one attack campaign.
type Result struct {
	Attack  string
	Defense string
	Model   string

	// Attempts is attack-specific work units (signatures, batches).
	Attempts int
	// MailboxWrites / BlockedWrites count 0x150 writes issued / rejected.
	MailboxWrites, BlockedWrites int
	// FaultsObserved counts corrupted victim results.
	FaultsObserved int
	// Crashes counts machine crashes caused by the campaign.
	Crashes int
	// KeyRecovered reports a successful Plundervolt factorization.
	KeyRecovered bool
	// ProbesToFirstFault is the 1-based probe ordinal at which a
	// search-based campaign (redteam) first faulted the victim; 0 when no
	// probe faulted or the campaign is not search-based.
	ProbesToFirstFault int
	// Succeeded is the attack-specific success criterion.
	Succeeded bool
	// Duration is the virtual time the campaign consumed.
	Duration sim.Duration
	// Notes carries a human-readable outcome summary.
	Notes string
}

// String renders a one-line summary.
func (r *Result) String() string {
	status := "DEFEATED"
	if r.Succeeded {
		status = "SUCCEEDED"
	}
	return fmt.Sprintf("%-12s vs %-28s: %s (attempts=%d writes=%d blocked=%d faults=%d crashes=%d)",
		r.Attack, r.Defense, status, r.Attempts, r.MailboxWrites, r.BlockedWrites,
		r.FaultsObserved, r.Crashes)
}

// Attack is a runnable DVFS fault-attack campaign. Each campaign names its
// own results (Result.Attack).
type Attack interface {
	Run(env *defense.Env, defName string) (*Result, error)
}

// pinFrequency uses the cpufreq stack to pin a core, as a privileged
// attacker would with cpupower.
func pinFrequency(env *defense.Env, coreIdx, khz int) error {
	mgr, err := pstate.NewManager(env.Platform.Sim, env.Platform, nil)
	if err != nil {
		return err
	}
	cp := &pstate.CPUPower{M: mgr}
	if err := cp.FrequencySet(coreIdx, khz); err != nil {
		return err
	}
	env.Platform.SettleAll()
	return nil
}

// writeOffset issues the Algorithm 1 mailbox write, tracking block/accept.
// With tracing attached the write runs inside an "attack_write" span, so the
// register-level mailbox_write outcome is causally attributed to the attack
// step (and transitively to the campaign) rather than to the guard.
func writeOffset(env *defense.Env, r *Result, t *campaignTel, coreIdx, offsetMV int) bool {
	r.MailboxWrites++
	t.writes.Inc()
	var sp *span.Active
	if t.spans != nil {
		sp = t.spans.Start("attack", "attack_write", map[string]any{
			"core": coreIdx, "offset_mv": offsetMV,
		})
	}
	err := env.Platform.WriteOffsetViaMSR(coreIdx, offsetMV, msr.PlaneCore)
	sp.SetAttr("blocked", err != nil)
	sp.End()
	if err != nil {
		r.BlockedWrites++
		t.blocked.Inc()
		return false
	}
	return true
}

// Plundervolt is the RSA-CRT key-extraction campaign.
type Plundervolt struct {
	// VictimCore hosts the enclave and signer.
	VictimCore int
	// PinKHz pins the victim frequency (0 = leave at boot frequency).
	PinKHz int
	// StartMV/StepMV/FloorMV drive the undervolt search (negative space).
	StartMV, StepMV, FloorMV int
	// SignsPerStep is the number of signatures collected per offset.
	SignsPerStep int
	// LingerSigns extends the signature budget at the first offset where a
	// faulty signature appears: the sweet spot for Boneh-DeMillo-Lipton is
	// the narrow band where ~one multiplication per signature faults, and
	// the published attack lingers there rather than undervolting further
	// (deeper offsets corrupt both CRT halves and defeat the gcd).
	LingerSigns int
	// KeyBits sizes the deterministic RSA key.
	KeyBits int
	// Seed drives key generation and fault placement.
	Seed int64
	// DwellPerSign is the virtual time between signatures (the victim
	// service's request cadence), during which defenses get to act.
	DwellPerSign sim.Duration
}

// DefaultPlundervolt mirrors the published attack parameters scaled to the
// simulation (search from -50 mV in 5 mV steps, 20 signatures per step).
func DefaultPlundervolt(seed int64) *Plundervolt {
	return &Plundervolt{
		VictimCore:   1,
		StartMV:      -50,
		StepMV:       -2,
		FloorMV:      -350,
		SignsPerStep: 20,
		LingerSigns:  500,
		KeyBits:      512,
		Seed:         seed,
		DwellPerSign: 200 * sim.Microsecond,
	}
}

// Name identifies the campaign in its results.
func (*Plundervolt) Name() string { return "plundervolt" }

// Run implements Attack.
func (a *Plundervolt) Run(env *defense.Env, defName string) (*Result, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	p := env.Platform
	r := &Result{Attack: a.Name(), Defense: defName, Model: p.Spec.Codename}
	tel := newCampaignTel(env, r.Attack, defName, a.VictimCore)
	defer tel.done(r)
	start := p.Sim.Now()
	defer func() { r.Duration = p.Sim.Now() - start }()

	key, err := victim.GenerateRSAKey(a.KeyBits, a.Seed)
	if err != nil {
		return nil, err
	}
	enclave, err := env.Registry.Create("rsa-signer", a.VictimCore)
	if err != nil {
		return nil, err
	}
	defer enclave.Destroy()

	if a.PinKHz != 0 {
		if err := pinFrequency(env, a.VictimCore, a.PinKHz); err != nil {
			return nil, err
		}
	}
	signer, err := victim.NewCRTSigner(key, p.Core(a.VictimCore), a.Seed+1)
	if err != nil {
		return nil, err
	}
	digest := key.HashToInt([]byte("plundervolt target message"))

	for off := a.StartMV; off >= a.FloorMV; off += a.StepMV {
		if !writeOffset(env, r, tel, a.VictimCore, off) {
			continue // blocked (access control); deeper writes block too
		}
		// Let the regulator move (and defenses react).
		p.Sim.RunFor(600 * sim.Microsecond)
		budget := a.SignsPerStep
		for i := 0; i < budget; i++ {
			r.Attempts++
			sig, faulted, err := signer.Sign(digest)
			p.Sim.RunFor(a.DwellPerSign)
			if err != nil {
				if errors.Is(err, cpu.ErrCrashed) {
					r.Crashes++
					tel.crash(r, off)
					p.Reboot()
					r.Notes = "crashed before exploitable fault"
					return r, nil
				}
				return nil, err
			}
			if !faulted {
				continue
			}
			r.FaultsObserved++
			tel.fault(r, 1, off)
			// Faults started: this is the exploitable band. Linger here.
			if budget < a.LingerSigns {
				budget = a.LingerSigns
			}
			if f, ok := victim.RecoverFactor(key.N, key.E, digest, sig); ok && victim.FactorsN(key.N, f) {
				r.KeyRecovered = true
				r.Succeeded = true
				r.Notes = fmt.Sprintf("factored N at offset %d mV after %d signatures", off, r.Attempts)
				return r, nil
			}
		}
	}
	r.Notes = "undervolt search exhausted without key recovery"
	return r, nil
}

// VoltJockey is the frequency-manipulation campaign: program an offset that
// is safe at the preparation frequency, then raise the frequency so the
// pair becomes unsafe.
type VoltJockey struct {
	VictimCore int
	// PrepKHz is the low preparation frequency; TargetKHz the strike
	// frequency (0 = model min/max).
	PrepKHz, TargetKHz int
	// OffsetMV is the held undervolt (0 = derive: 30 mV below the strike
	// frequency's expected safe margin by probing).
	OffsetMV int
	// BatchesAtTarget is how many victim imul batches run at the strike
	// frequency.
	BatchesAtTarget int
	// BatchSize is the imul loop length per batch.
	BatchSize int
	// Dwell is the virtual time between batches.
	Dwell sim.Duration
}

// DefaultVoltJockey configures the strike at the model's turbo frequency.
func DefaultVoltJockey() *VoltJockey {
	return &VoltJockey{
		VictimCore:      1,
		BatchesAtTarget: 50,
		BatchSize:       200_000,
		Dwell:           150 * sim.Microsecond,
	}
}

// Name identifies the campaign in its results.
func (*VoltJockey) Name() string { return "voltjockey" }

// Run implements Attack.
func (a *VoltJockey) Run(env *defense.Env, defName string) (*Result, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	p := env.Platform
	r := &Result{Attack: a.Name(), Defense: defName, Model: p.Spec.Codename}
	tel := newCampaignTel(env, r.Attack, defName, a.VictimCore)
	defer tel.done(r)
	start := p.Sim.Now()
	defer func() { r.Duration = p.Sim.Now() - start }()

	prep := a.PrepKHz
	if prep == 0 {
		prep = p.FreqTableKHz()[0]
	}
	target := a.TargetKHz
	if target == 0 {
		tbl := p.FreqTableKHz()
		target = tbl[len(tbl)-1]
	}

	// Phase 1: at the low prep frequency, program the held undervolt.
	if err := pinFrequency(env, a.VictimCore, prep); err != nil {
		return nil, err
	}
	offset := a.OffsetMV
	if offset == 0 {
		// Attacker calibration: deep enough to fault at `target`, shallow
		// enough to hold at `prep`. Search on the attacker's own replica
		// is emulated by probing live with small strikes.
		offset = a.calibrate(env, r, tel, prep, target)
		if offset == 0 {
			r.Notes = "calibration found no workable offset"
			return r, nil
		}
	}
	if !writeOffset(env, r, tel, a.VictimCore, offset) {
		r.Notes = "mailbox write blocked during preparation"
		return r, nil
	}
	p.Sim.RunFor(1 * sim.Millisecond) // regulator settles; defenses may act

	// Phase 2: strike — jump to the target frequency and run the victim.
	if err := pinFrequency(env, a.VictimCore, target); err != nil {
		return nil, err
	}
	for i := 0; i < a.BatchesAtTarget; i++ {
		r.Attempts++
		loop, err := victim.NewIMulLoop(p.Core(a.VictimCore), a.BatchSize)
		if err != nil {
			return nil, err
		}
		res, err := loop.RunBatch()
		if err != nil {
			if errors.Is(err, cpu.ErrCrashed) {
				r.Crashes++
				tel.crash(r, offset)
				p.Reboot()
				r.Notes = "crashed at strike frequency"
				return r, nil
			}
			return nil, err
		}
		r.FaultsObserved += res.Faults
		tel.fault(r, res.Faults, offset)
		p.Sim.RunFor(a.Dwell)
		// Re-arm: defenses may have reset the offset mid-strike.
		if p.Core(a.VictimCore).OffsetMV() != offset {
			if !writeOffset(env, r, tel, a.VictimCore, offset) {
				break
			}
		}
	}
	r.Succeeded = r.FaultsObserved > 0
	if r.Succeeded {
		r.Notes = fmt.Sprintf("frequency strike induced %d faults at offset %d mV", r.FaultsObserved, offset)
	} else {
		r.Notes = "strike produced no faults"
	}
	return r, nil
}

// calibrate finds a held offset: safe (no faults, no crash) at prep, yet
// faulting at target. Returns 0 if none found.
func (a *VoltJockey) calibrate(env *defense.Env, r *Result, tel *campaignTel, prepKHz, targetKHz int) int {
	p := env.Platform
	for off := -40; off >= -340; off -= 10 {
		// Probe at the target frequency with a short strike.
		if err := pinFrequency(env, a.VictimCore, targetKHz); err != nil {
			return 0
		}
		if !writeOffset(env, r, tel, a.VictimCore, off) {
			return 0
		}
		p.Sim.RunFor(800 * sim.Microsecond)
		loop, err := victim.NewIMulLoop(p.Core(a.VictimCore), 100_000)
		if err != nil {
			return 0
		}
		res, err := loop.RunBatch()
		crashed := errors.Is(err, cpu.ErrCrashed)
		if crashed {
			r.Crashes++
			tel.crash(r, off)
			p.Reboot()
		}
		// Restore safe state between probes.
		writeOffset(env, r, tel, a.VictimCore, 0)
		if err := pinFrequency(env, a.VictimCore, prepKHz); err != nil {
			return 0
		}
		p.Sim.RunFor(800 * sim.Microsecond)
		if crashed {
			continue // too deep even to strike; shallower already failed
		}
		if res.Faults == 0 {
			continue // not deep enough
		}
		// Verify it holds quietly at prep frequency.
		if !writeOffset(env, r, tel, a.VictimCore, off) {
			return 0
		}
		p.Sim.RunFor(800 * sim.Microsecond)
		loop2, err := victim.NewIMulLoop(p.Core(a.VictimCore), 100_000)
		if err != nil {
			return 0
		}
		res2, err := loop2.RunBatch()
		if err == nil && res2.Faults == 0 {
			return off // found: quiet at prep, faults at target
		}
		if errors.Is(err, cpu.ErrCrashed) {
			r.Crashes++
			tel.crash(r, off)
			p.Reboot()
		}
		writeOffset(env, r, tel, a.VictimCore, 0)
		p.Sim.RunFor(800 * sim.Microsecond)
	}
	return 0
}

// V0LTpwn is the integrity-corruption campaign against an FMA-heavy victim
// computation.
type V0LTpwn struct {
	VictimCore int
	// PinKHz pins the victim core (0 = base frequency).
	PinKHz int
	// StartMV/StepMV/FloorMV drive the undervolt search.
	StartMV, StepMV, FloorMV int
	// OpsPerStep is the number of FMA operations per probe.
	OpsPerStep int
	// TargetFaults is the success threshold (corrupted results needed to
	// flip the victim's decision, per the published attack's bit-flip
	// requirement).
	TargetFaults int
	Dwell        sim.Duration
}

// DefaultV0LTpwn mirrors the published search strategy.
func DefaultV0LTpwn() *V0LTpwn {
	return &V0LTpwn{
		VictimCore:   1,
		StartMV:      -50,
		StepMV:       -5,
		FloorMV:      -350,
		OpsPerStep:   500_000,
		TargetFaults: 1,
		Dwell:        200 * sim.Microsecond,
	}
}

// Name identifies the campaign in its results.
func (*V0LTpwn) Name() string { return "v0ltpwn" }

// Run implements Attack.
func (a *V0LTpwn) Run(env *defense.Env, defName string) (*Result, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	p := env.Platform
	r := &Result{Attack: a.Name(), Defense: defName, Model: p.Spec.Codename}
	tel := newCampaignTel(env, r.Attack, defName, a.VictimCore)
	defer tel.done(r)
	start := p.Sim.Now()
	defer func() { r.Duration = p.Sim.Now() - start }()

	pin := a.PinKHz
	if pin == 0 {
		pin = int(p.Spec.BaseRatio) * p.Spec.BusMHz * 1000
	}
	if err := pinFrequency(env, a.VictimCore, pin); err != nil {
		return nil, err
	}
	c := p.Core(a.VictimCore)
	for off := a.StartMV; off >= a.FloorMV; off += a.StepMV {
		if !writeOffset(env, r, tel, a.VictimCore, off) {
			continue
		}
		p.Sim.RunFor(600 * sim.Microsecond)
		r.Attempts++
		res, err := c.RunBatch(cpu.ClassFMA, a.OpsPerStep)
		if err != nil {
			if errors.Is(err, cpu.ErrCrashed) {
				r.Crashes++
				tel.crash(r, off)
				p.Reboot()
				r.Notes = "crashed before reaching target fault count"
				return r, nil
			}
			return nil, err
		}
		r.FaultsObserved += res.Faults
		tel.fault(r, res.Faults, off)
		p.Sim.RunFor(a.Dwell)
		if r.FaultsObserved >= a.TargetFaults {
			r.Succeeded = true
			r.Notes = fmt.Sprintf("corrupted %d FMA results at offset %d mV", r.FaultsObserved, off)
			return r, nil
		}
	}
	r.Notes = "search exhausted without corrupting the victim"
	return r, nil
}
