// Package sgx models the Intel SGX features the paper's threat model
// revolves around: enclaves, remote attestation reports carrying
// platform-feature flags, and the SGX-Step-style single-/zero-stepping
// adversary.
//
// The paper's two attestation-relevant claims are modelled directly:
//
//   - Intel's SA-00289 countermeasure adds the *OC-mailbox disabled* status
//     to attestation reports, so a client can refuse enclaves on machines
//     with DVFS enabled — at the cost of locking benign software out of
//     undervolting.
//   - The paper instead proposes adding the *countermeasure kernel module
//     loaded* status to the report, leaving the mailbox usable. Reports
//     here carry both flags, and VerifyPolicy lets a client demand either.
//
// Single-stepping matters because the Minefield-style deflection defense
// assumes the adversary cannot isolate one enclave instruction; SGX-Step
// showed they can. Stepper gives the attack code a callback between every
// victim instruction, and ZeroStep models unbounded attacker dwell time at
// a fixed instruction boundary.
package sgx

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"plugvolt/internal/sim"
)

// Program is a steppable victim computation (an enclave's trusted code).
// Implementations live in internal/victim; the interface is structural so
// victim does not import sgx.
type Program interface {
	// Step executes the next instruction; done reports completion.
	Step() (done bool, err error)
}

// Features is the platform state surfaced to attestation.
type Features struct {
	// OCMDisabled reports Intel's SA-00289 lockdown: the overclocking
	// mailbox is fused off while SGX is in use.
	OCMDisabled bool
	// HyperThreadingEnabled is included because contemporary attestation
	// already reports it (the paper cites this as precedent).
	HyperThreadingEnabled bool
	// GuardModuleLoaded queries the live load state of the paper's
	// polling-countermeasure kernel module. Nil means "not reported".
	GuardModuleLoaded func() bool
}

// Registry tracks enclaves on one platform.
type Registry struct {
	simr     *sim.Simulator
	Features Features

	enclaves map[uint64]*Enclave
	nextID   uint64
}

// NewRegistry builds an empty enclave registry.
func NewRegistry(s *sim.Simulator) *Registry {
	return &Registry{simr: s, enclaves: map[uint64]*Enclave{}}
}

// Enclave is one initialized enclave.
type Enclave struct {
	id          uint64
	name        string
	measurement [32]byte
	reg         *Registry
	destroyed   bool
}

// Create initializes an enclave. The measurement commits to the enclave's
// identity (ECREATE/EINIT of its code).
func (r *Registry) Create(name string) (*Enclave, error) {
	if name == "" {
		return nil, errors.New("sgx: enclave needs a name")
	}
	r.nextID++
	e := &Enclave{
		id:          r.nextID,
		name:        name,
		measurement: sha256.Sum256([]byte("enclave:" + name)),
		reg:         r,
	}
	r.enclaves[e.id] = e
	return e, nil
}

// Destroy tears the enclave down (EREMOVE).
func (e *Enclave) Destroy() {
	if e.destroyed {
		return
	}
	e.destroyed = true
	delete(e.reg.enclaves, e.id)
}

// MeasurementHex returns the MRENCLAVE-equivalent as hex.
func (e *Enclave) MeasurementHex() string { return hex.EncodeToString(e.measurement[:]) }

// AnyRunning reports whether any enclave exists — the condition under which
// SA-00289 locks the mailbox.
func (r *Registry) AnyRunning() bool { return len(r.enclaves) > 0 }

// Run executes the enclave's program to completion without adversarial
// interruption (the benign path).
func (e *Enclave) Run(p Program) error {
	if e.destroyed {
		return fmt.Errorf("sgx: enclave %q destroyed", e.name)
	}
	for {
		done, err := p.Step()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// Report is a (simplified) remote-attestation quote.
type Report struct {
	EnclaveID      uint64
	EnclaveName    string
	MeasurementHex string
	Nonce          uint64
	IssuedAt       sim.Time

	// Platform feature flags, per the paper's Sec. 4.1 discussion.
	OCMDisabled           bool
	HyperThreadingEnabled bool
	GuardModuleLoaded     bool
	GuardModuleReported   bool // whether the platform reports the flag at all
}

// Attest produces an attestation report binding the enclave identity to the
// platform's live feature flags.
func (e *Enclave) Attest(nonce uint64) Report {
	rep := Report{
		EnclaveID:             e.id,
		EnclaveName:           e.name,
		MeasurementHex:        e.MeasurementHex(),
		Nonce:                 nonce,
		IssuedAt:              e.reg.simr.Now(),
		OCMDisabled:           e.reg.Features.OCMDisabled,
		HyperThreadingEnabled: e.reg.Features.HyperThreadingEnabled,
	}
	if e.reg.Features.GuardModuleLoaded != nil {
		rep.GuardModuleReported = true
		rep.GuardModuleLoaded = e.reg.Features.GuardModuleLoaded()
	}
	return rep
}

// VerifyPolicy is the client-side acceptance policy for reports.
type VerifyPolicy struct {
	ExpectedMeasurementHex string
	// RequireOCMDisabled is Intel's SA-00289 policy.
	RequireOCMDisabled bool
	// RequireGuardModule is the paper's proposed policy: accept DVFS-enabled
	// platforms as long as the polling countermeasure is resident.
	RequireGuardModule bool
}

// Verify applies the policy; a nil return means the client accepts.
func (p VerifyPolicy) Verify(r Report) error {
	if p.ExpectedMeasurementHex != "" && r.MeasurementHex != p.ExpectedMeasurementHex {
		return fmt.Errorf("sgx: measurement mismatch (got %s)", r.MeasurementHex[:8])
	}
	if p.RequireOCMDisabled && !r.OCMDisabled {
		return errors.New("sgx: policy requires OC mailbox disabled")
	}
	if p.RequireGuardModule {
		if !r.GuardModuleReported {
			return errors.New("sgx: platform does not report guard-module state")
		}
		if !r.GuardModuleLoaded {
			return errors.New("sgx: policy requires countermeasure kernel module loaded")
		}
	}
	return nil
}

// Stepper is the SGX-Step adversary: it drives a Program one instruction at
// a time using APIC-timer interrupts, running attacker code between steps.
type Stepper struct {
	simr *sim.Simulator
	// AEXCost is the virtual time per asynchronous enclave exit + resume
	// (interrupt, attacker handler, ERESUME). SGX-Step reports ~10 us per
	// single-stepped instruction.
	AEXCost sim.Duration
	// Steps counts single-stepped instructions.
	Steps uint64
	// ZeroSteps counts zero-step dwells.
	ZeroSteps uint64
}

// NewStepper builds a stepper with the published SGX-Step cost.
func NewStepper(s *sim.Simulator) *Stepper {
	return &Stepper{simr: s, AEXCost: 10 * sim.Microsecond}
}

// Run single-steps the program. between is invoked after every instruction
// with the zero-based index of the *next* instruction; returning an error
// aborts stepping. The victim cannot detect or prevent the interruption —
// that is the SGX-Step result the paper leans on.
func (st *Stepper) Run(p Program, between func(next int) error) error {
	for i := 0; ; i++ {
		done, err := p.Step()
		st.Steps++
		st.simr.RunFor(st.AEXCost)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if between != nil {
			if err := between(i + 1); err != nil {
				return err
			}
		}
	}
}

// ZeroStep holds the enclave at its current instruction boundary for d of
// virtual time without retiring anything — the attacker's unbounded dwell
// between injecting a fault and the next victim instruction (used to defeat
// trap-based deflection).
func (st *Stepper) ZeroStep(d sim.Duration) {
	st.ZeroSteps++
	st.simr.RunFor(d)
}
