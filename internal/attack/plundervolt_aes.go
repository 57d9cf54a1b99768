package attack

import (
	"bytes"
	"errors"
	"fmt"

	"plugvolt/internal/cpu"
	"plugvolt/internal/defense"
	"plugvolt/internal/sim"
	"plugvolt/internal/victim"
)

// PlundervoltAES is the AES-NI variant of the Plundervolt campaign: the
// enclave encrypts with a secret AES-128 key; the adversary undervolts
// until round faults appear, harvests round-9 faulty ciphertexts, and runs
// the Piret-Quisquater differential fault analysis to recover the key.
type PlundervoltAES struct {
	VictimCore int
	// StartMV/StepMV/FloorMV drive the undervolt search.
	StartMV, StepMV, FloorMV int
	// BlocksPerStep is the number of encryptions probed per offset while
	// hunting for the working fault rate.
	BlocksPerStep int
	// PairsWanted is the round-9 pair harvest target; CollectBudget the
	// max encryptions spent harvesting at the chosen offset.
	PairsWanted, CollectBudget int
	// Seed keys the victim deterministically.
	Seed int64
	// DwellPerBatch paces the campaign in virtual time.
	DwellPerBatch sim.Duration
}

// DefaultPlundervoltAES mirrors the published attack shape.
func DefaultPlundervoltAES(seed int64) *PlundervoltAES {
	return &PlundervoltAES{
		VictimCore:    1,
		StartMV:       -50,
		StepMV:        -2,
		FloorMV:       -350,
		BlocksPerStep: 30_000,
		PairsWanted:   48,
		CollectBudget: 1_500_000,
		Seed:          seed,
		DwellPerBatch: 150 * sim.Microsecond,
	}
}

// Name implements Attack.
func (*PlundervoltAES) Name() string { return "plundervolt-aes" }

// Run implements Attack.
func (a *PlundervoltAES) Run(env *defense.Env, defName string) (*Result, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	p := env.Platform
	r := &Result{Attack: a.Name(), Defense: defName, Model: p.Spec.Codename}
	tel := newCampaignTel(env, r.Attack, defName, a.VictimCore)
	defer tel.done(r)
	start := p.Sim.Now()
	defer func() { r.Duration = p.Sim.Now() - start }()

	// Victim enclave holds a secret AES key.
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte((a.Seed >> (uint(i) % 8 * 8)) ^ int64(i*0x3b+1))
	}
	enclave, err := env.Registry.Create("aes-service", a.VictimCore)
	if err != nil {
		return nil, err
	}
	defer enclave.Destroy()
	aes, err := victim.NewAES128(key, a.Seed+3)
	if err != nil {
		return nil, err
	}
	pt := []byte("plundervolt--aes")
	c := p.Core(a.VictimCore)

	// Phase 1: deepen the offset until encryptions start faulting.
	workingOffset := 0
	for off := a.StartMV; off >= a.FloorMV && workingOffset == 0; off += a.StepMV {
		if !writeOffset(env, r, tel, a.VictimCore, off) {
			continue
		}
		p.Sim.RunFor(600 * sim.Microsecond)
		faulted := 0
		for b := 0; b < a.BlocksPerStep; b++ {
			r.Attempts++
			_, round, err := aes.EncryptOn(c, pt)
			if err != nil {
				if errors.Is(err, cpu.ErrCrashed) {
					r.Crashes++
					tel.crash(r, off)
					p.Reboot()
					r.Notes = "crashed before harvesting enough pairs"
					return r, nil
				}
				return nil, err
			}
			if round >= 0 {
				faulted++
				r.FaultsObserved++
			}
		}
		tel.fault(r, faulted, off)
		p.Sim.RunFor(a.DwellPerBatch)
		// Want a workable rate: ~1e-3 faulted blocks makes round-9 pairs
		// land about once per 10k encryptions while the control path still
		// has ~2.7 sigma more slack than the AES path (low crash risk).
		if faulted >= a.BlocksPerStep/1000 {
			workingOffset = off
		}
	}
	if workingOffset == 0 {
		r.Notes = "no offset produced AES faults (defense held)"
		return r, nil
	}

	// Phase 2: harvest round-9 pairs and run the DFA.
	pairs, harvested, err := aes.CollectRound9Pairs(c, pt, a.PairsWanted, a.CollectBudget)
	r.Attempts += harvested
	if err != nil {
		if errors.Is(err, cpu.ErrCrashed) {
			r.Crashes++
			tel.crash(r, workingOffset)
			p.Reboot()
			r.Notes = "crashed during pair harvest"
			return r, nil
		}
		r.Notes = fmt.Sprintf("harvest fell short: %v", err)
		return r, nil
	}
	r.FaultsObserved += len(pairs)
	tel.fault(r, len(pairs), workingOffset)
	recovered, err := victim.DFARecoverMasterKey(pairs, pt, 0)
	if err != nil {
		r.Notes = fmt.Sprintf("DFA failed: %v", err)
		return r, nil
	}
	if bytes.Equal(recovered[:], key) {
		r.KeyRecovered = true
		r.Succeeded = true
		r.Notes = fmt.Sprintf("AES-128 key recovered by DFA at offset %d mV from %d round-9 pairs in %d encryptions",
			workingOffset, len(pairs), harvested)
	} else {
		r.Notes = "DFA produced a wrong key (model anomaly)"
	}
	return r, nil
}
