package sgx

import (
	"errors"
	"testing"

	"plugvolt/internal/sim"
)

// countProgram is a trivial steppable program for registry tests.
type countProgram struct {
	n, i  int
	fail  int // step index to error at, -1 = never
	trace []int
}

func (p *countProgram) Step() (bool, error) {
	if p.fail >= 0 && p.i == p.fail {
		return false, errors.New("boom")
	}
	p.trace = append(p.trace, p.i)
	p.i++
	return p.i >= p.n, nil
}

func TestRegistryLifecycle(t *testing.T) {
	s := sim.New(1)
	r := NewRegistry(s)
	if r.AnyRunning() {
		t.Fatal("fresh registry has enclaves")
	}
	e1, err := r.Create("signer")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := r.Create("sealer")
	if err != nil {
		t.Fatal(err)
	}
	if !r.AnyRunning() || r.Count() != 2 {
		t.Fatalf("count = %d", r.Count())
	}
	if e1.ID() == e2.ID() {
		t.Fatal("duplicate enclave IDs")
	}
	if e1.Name() != "signer" {
		t.Fatal("enclave metadata wrong")
	}
	e1.Destroy()
	e1.Destroy() // idempotent
	if r.Count() != 1 {
		t.Fatalf("count after destroy = %d", r.Count())
	}
	if _, err := r.Create(""); err == nil {
		t.Fatal("anonymous enclave accepted")
	}
}

func TestMeasurementIsIdentityBound(t *testing.T) {
	s := sim.New(1)
	r := NewRegistry(s)
	a, _ := r.Create("app")
	b, _ := r.Create("app")
	c, _ := r.Create("other")
	if a.MeasurementHex() != b.MeasurementHex() {
		t.Fatal("same code, different measurement")
	}
	if a.MeasurementHex() == c.MeasurementHex() {
		t.Fatal("different code, same measurement")
	}
	if len(a.MeasurementHex()) != 64 {
		t.Fatal("measurement not 32 bytes hex")
	}
}

func TestEnclaveRunToCompletion(t *testing.T) {
	s := sim.New(1)
	r := NewRegistry(s)
	e, _ := r.Create("worker")
	p := &countProgram{n: 5, fail: -1}
	if err := e.Run(p); err != nil {
		t.Fatal(err)
	}
	if len(p.trace) != 5 {
		t.Fatalf("ran %d steps", len(p.trace))
	}
	bad := &countProgram{n: 5, fail: 2}
	if err := e.Run(bad); err == nil {
		t.Fatal("program error swallowed")
	}
	e.Destroy()
	if err := e.Run(&countProgram{n: 1, fail: -1}); err == nil {
		t.Fatal("destroyed enclave ran")
	}
}

func TestAttestationReportFlags(t *testing.T) {
	s := sim.New(1)
	r := NewRegistry(s)
	guardLoaded := false
	r.Features = Features{
		OCMDisabled:           true,
		HyperThreadingEnabled: true,
		GuardModuleLoaded:     func() bool { return guardLoaded },
	}
	e, _ := r.Create("attested")
	s.RunFor(5 * sim.Millisecond)
	rep := e.Attest(12345)
	if rep.Nonce != 12345 || rep.EnclaveID != e.ID() {
		t.Fatal("report identity fields wrong")
	}
	if rep.IssuedAt != 5*sim.Millisecond {
		t.Fatalf("IssuedAt = %v", rep.IssuedAt)
	}
	if !rep.OCMDisabled || !rep.HyperThreadingEnabled {
		t.Fatal("platform flags not copied")
	}
	if !rep.GuardModuleReported || rep.GuardModuleLoaded {
		t.Fatal("guard flag wrong while unloaded")
	}
	guardLoaded = true
	if rep2 := e.Attest(1); !rep2.GuardModuleLoaded {
		t.Fatal("guard flag not live")
	}
}

func TestAttestationWithoutGuardReporting(t *testing.T) {
	s := sim.New(1)
	r := NewRegistry(s)
	e, _ := r.Create("legacy")
	rep := e.Attest(0)
	if rep.GuardModuleReported {
		t.Fatal("platform without guard hook reported the flag")
	}
}

func TestVerifyPolicies(t *testing.T) {
	s := sim.New(1)
	r := NewRegistry(s)
	loaded := true
	r.Features = Features{GuardModuleLoaded: func() bool { return loaded }}
	e, _ := r.Create("policy")
	rep := e.Attest(1)

	// Measurement pinning.
	if err := (VerifyPolicy{ExpectedMeasurementHex: rep.MeasurementHex}).Verify(rep); err != nil {
		t.Fatalf("matching measurement rejected: %v", err)
	}
	if err := (VerifyPolicy{ExpectedMeasurementHex: "deadbeef"}).Verify(rep); err == nil {
		t.Fatal("wrong measurement accepted")
	}

	// Intel SA-00289 policy: requires OCM disabled, which this platform
	// does not do — the paper's point is this blocks benign DVFS.
	if err := (VerifyPolicy{RequireOCMDisabled: true}).Verify(rep); err == nil {
		t.Fatal("OCM-enabled platform passed SA-00289 policy")
	}

	// The paper's policy: guard module must be loaded; OCM may stay live.
	if err := (VerifyPolicy{RequireGuardModule: true}).Verify(rep); err != nil {
		t.Fatalf("guard-loaded platform rejected: %v", err)
	}
	loaded = false
	rep = e.Attest(2)
	if err := (VerifyPolicy{RequireGuardModule: true}).Verify(rep); err == nil {
		t.Fatal("guard-unloaded platform accepted — adversary could rmmod and pass attestation")
	}

	// Platform not reporting the flag at all must also fail the policy.
	r.Features.GuardModuleLoaded = nil
	rep = e.Attest(3)
	if err := (VerifyPolicy{RequireGuardModule: true}).Verify(rep); err == nil {
		t.Fatal("non-reporting platform accepted")
	}
}

func TestStepperSingleSteps(t *testing.T) {
	s := sim.New(1)
	st := NewStepper(s)
	p := &countProgram{n: 4, fail: -1}
	var between []int
	start := s.Now()
	err := st.Run(p, func(next int) error {
		between = append(between, next)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 steps; between fires after steps 1..3 (not after the final one).
	if st.Steps != 4 {
		t.Fatalf("Steps = %d", st.Steps)
	}
	if len(between) != 3 || between[0] != 1 || between[2] != 3 {
		t.Fatalf("between = %v", between)
	}
	if s.Now()-start != 4*st.AEXCost {
		t.Fatalf("AEX time = %v", s.Now()-start)
	}
}

func TestStepperAbortFromCallback(t *testing.T) {
	s := sim.New(1)
	st := NewStepper(s)
	p := &countProgram{n: 100, fail: -1}
	stop := errors.New("attacker done")
	err := st.Run(p, func(next int) error {
		if next == 5 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v", err)
	}
	if p.i != 5 {
		t.Fatalf("victim advanced to %d", p.i)
	}
}

func TestStepperPropagatesProgramError(t *testing.T) {
	s := sim.New(1)
	st := NewStepper(s)
	p := &countProgram{n: 10, fail: 3}
	if err := st.Run(p, nil); err == nil {
		t.Fatal("program error swallowed")
	}
}

func TestZeroStepDwells(t *testing.T) {
	s := sim.New(1)
	st := NewStepper(s)
	st.ZeroStep(2 * sim.Millisecond)
	if s.Now() != 2*sim.Millisecond {
		t.Fatalf("zero-step advanced %v", s.Now())
	}
	if st.ZeroSteps != 1 {
		t.Fatalf("ZeroSteps = %d", st.ZeroSteps)
	}
}
