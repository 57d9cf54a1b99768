package victim

import (
	"errors"
	"math/big"
	"testing"

	"plugvolt/internal/cpu"
	"plugvolt/internal/models"
	"plugvolt/internal/msr"
)

func newPlatform(t *testing.T, seed int64) *cpu.Platform {
	t.Helper()
	spec, err := models.SkyLake()
	if err != nil {
		t.Fatal(err)
	}
	p, err := cpu.NewPlatform(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// undervoltIntoFaultWindow drives the core to an operating point where imul
// faults but the machine stays up.
func undervoltIntoFaultWindow(t *testing.T, p *cpu.Platform, core int) {
	t.Helper()
	c := p.Core(core)
	for off := -1; off >= -400; off-- {
		if err := p.WriteOffsetViaMSR(core, off, msr.PlaneCore); err != nil {
			t.Fatal(err)
		}
		p.SettleAll()
		if c.FaultProbability(cpu.ClassIMul) > 5e-4 && c.CrashProbability() < 1e-10 {
			return
		}
	}
	t.Fatal("no fault window")
}

func TestIMulLoopCleanRun(t *testing.T) {
	p := newPlatform(t, 1)
	l, err := NewIMulLoop(p.Core(0), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	faults, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if faults != 0 {
		t.Fatalf("%d faults at stock voltage", faults)
	}
	if l.Pos() != l.Len() {
		t.Fatalf("pos %d after full run", l.Pos())
	}
	// Step after completion keeps reporting done.
	done, err := l.Step()
	if err != nil || !done {
		t.Fatal("completed loop not done")
	}
}

func TestIMulLoopDetectsFaults(t *testing.T) {
	p := newPlatform(t, 2)
	undervoltIntoFaultWindow(t, p, 0)
	l, err := NewIMulLoop(p.Core(0), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	faults, err := l.Run()
	if err != nil {
		t.Fatalf("crash inside window: %v", err)
	}
	if faults == 0 {
		t.Fatal("no faults detected in fault window")
	}
}

func TestIMulLoopBatchMatchesStatistics(t *testing.T) {
	p := newPlatform(t, 3)
	undervoltIntoFaultWindow(t, p, 0)
	l, _ := NewIMulLoop(p.Core(0), 1_000_000)
	res, err := l.RunBatch()
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == 0 || l.Faults != res.Faults {
		t.Fatalf("batch faults %d, loop faults %d", res.Faults, l.Faults)
	}
	if l.Pos() != l.Len() {
		t.Fatal("batch did not consume loop")
	}
}

func TestIMulLoopValidation(t *testing.T) {
	p := newPlatform(t, 1)
	if _, err := NewIMulLoop(nil, 10); err == nil {
		t.Fatal("nil core accepted")
	}
	if _, err := NewIMulLoop(p.Core(0), 0); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestGenerateRSAKeyDeterministic(t *testing.T) {
	k1, err := GenerateRSAKey(512, 7)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := GenerateRSAKey(512, 7)
	if err != nil {
		t.Fatal(err)
	}
	if k1.N.Cmp(k2.N) != 0 {
		t.Fatal("same seed produced different keys")
	}
	k3, err := GenerateRSAKey(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	if k1.N.Cmp(k3.N) == 0 {
		t.Fatal("different seeds produced identical keys")
	}
	if _, err := GenerateRSAKey(64, 1); err == nil {
		t.Fatal("tiny modulus accepted")
	}
}

func TestRSAKeyInternalConsistency(t *testing.T) {
	k, err := GenerateRSAKey(512, 11)
	if err != nil {
		t.Fatal(err)
	}
	m := k.HashToInt([]byte("consistency"))
	// Plain (non-CRT) signature verifies.
	sig := new(big.Int).Exp(m, k.D, k.N)
	if !k.Verify(m, sig) {
		t.Fatal("plain RSA signature did not verify")
	}
	// CRT parameters are consistent: Dp = D mod p-1, Qinv*Q = 1 mod p.
	one := big.NewInt(1)
	pm1 := new(big.Int).Sub(k.P, one)
	if new(big.Int).Mod(k.D, pm1).Cmp(k.Dp) != 0 {
		t.Fatal("Dp inconsistent")
	}
	if new(big.Int).Mod(new(big.Int).Mul(k.Qinv, k.Q), k.P).Cmp(one) != 0 {
		t.Fatal("Qinv inconsistent")
	}
	if new(big.Int).Mul(k.P, k.Q).Cmp(k.N) != 0 {
		t.Fatal("N != P*Q")
	}
}

func TestCRTSignerCleanSignatureVerifies(t *testing.T) {
	p := newPlatform(t, 5)
	k, err := GenerateRSAKey(512, 11)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCRTSigner(k, p.Core(0), 99)
	if err != nil {
		t.Fatal(err)
	}
	m := k.HashToInt([]byte("attack at dawn"))
	sig, faulted, err := s.Sign(m)
	if err != nil {
		t.Fatal(err)
	}
	if faulted {
		t.Fatal("fault at stock voltage")
	}
	if !k.Verify(m, sig) {
		t.Fatal("CRT signature did not verify")
	}
	if s.Steps == 0 {
		t.Fatal("no core multiplications recorded")
	}
	if got := s.StepsPerSign(m); got != s.Steps {
		t.Fatalf("StepsPerSign %d != observed %d", got, s.Steps)
	}
}

func TestCRTSignerValidation(t *testing.T) {
	p := newPlatform(t, 5)
	k, _ := GenerateRSAKey(512, 11)
	if _, err := NewCRTSigner(nil, p.Core(0), 1); err == nil {
		t.Fatal("nil key accepted")
	}
	if _, err := NewCRTSigner(k, nil, 1); err == nil {
		t.Fatal("nil core accepted")
	}
}

func TestFaultySignatureEnablesFactorRecovery(t *testing.T) {
	// The Plundervolt end-to-end condition: undervolt, sign until a fault
	// lands in one CRT half, run Boneh-DeMillo-Lipton, factor N.
	p := newPlatform(t, 6)
	undervoltIntoFaultWindow(t, p, 0)
	k, err := GenerateRSAKey(512, 13)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCRTSigner(k, p.Core(0), 17)
	if err != nil {
		t.Fatal(err)
	}
	m := k.HashToInt([]byte("plundervolt"))
	recovered := false
	for attempt := 0; attempt < 400 && !recovered; attempt++ {
		sig, faulted, err := s.Sign(m)
		if err != nil {
			t.Fatalf("crash during signing: %v", err)
		}
		if !faulted {
			continue
		}
		if k.Verify(m, sig) {
			t.Fatal("faulted signature verified — fault model broken")
		}
		if f, ok := RecoverFactor(k.N, k.E, m, sig); ok {
			if !FactorsN(k.N, f) {
				t.Fatalf("recovered non-factor %v", f)
			}
			if f.Cmp(k.P) != 0 && f.Cmp(k.Q) != 0 {
				t.Fatal("recovered factor is neither p nor q")
			}
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("factor not recovered after 400 signing attempts")
	}
}

func TestRecoverFactorRejectsCleanSignature(t *testing.T) {
	p := newPlatform(t, 5)
	k, _ := GenerateRSAKey(512, 11)
	s, _ := NewCRTSigner(k, p.Core(0), 99)
	m := k.HashToInt([]byte("clean"))
	sig, _, err := s.Sign(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := RecoverFactor(k.N, k.E, m, sig); ok {
		t.Fatal("recovered factor from a valid signature")
	}
	if _, ok := RecoverFactor(k.N, k.E, m, nil); ok {
		t.Fatal("recovered factor from nil signature")
	}
}

func TestCrashPropagatesFromLoop(t *testing.T) {
	p := newPlatform(t, 4)
	if err := p.WriteOffsetViaMSR(0, -500, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	l, _ := NewIMulLoop(p.Core(0), 1_000_000)
	_, err := l.Run()
	if !errors.Is(err, cpu.ErrCrashed) {
		t.Fatalf("expected ErrCrashed, got %v", err)
	}
}

func BenchmarkCRTSign512(b *testing.B) {
	spec, _ := models.SkyLake()
	p, _ := cpu.NewPlatform(spec, 1)
	k, _ := GenerateRSAKey(512, 11)
	s, _ := NewCRTSigner(k, p.Core(0), 99)
	m := k.HashToInt([]byte("bench"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = s.Sign(m)
	}
}

func TestVerifyBeforeReleaseBlocksKeyExtraction(t *testing.T) {
	// The classic application-level mitigation: a faulty CRT signature is
	// caught by public-key verification and never released, so the BDL
	// gcd has nothing to work with.
	p := newPlatform(t, 21)
	undervoltIntoFaultWindow(t, p, 0)
	k, err := GenerateRSAKey(512, 23)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCRTSigner(k, p.Core(0), 29)
	if err != nil {
		t.Fatal(err)
	}
	s.VerifyBeforeRelease = true
	m := k.HashToInt([]byte("protected"))
	retried := false
	for i := 0; i < 200; i++ {
		sig, faulted, err := s.Sign(m)
		if errors.Is(err, ErrSignatureUnstable) {
			// Deep in the window the retry budget can run out — that is a
			// DoS, not a leak; acceptable outcome.
			retried = true
			continue
		}
		if err != nil {
			t.Fatalf("crash: %v", err)
		}
		if faulted {
			t.Fatal("protected signer reported a released faulty signature")
		}
		if !k.Verify(m, sig) {
			t.Fatal("protected signer released an invalid signature")
		}
		if s.Retries > 0 {
			retried = true
		}
		if _, ok := RecoverFactor(k.N, k.E, m, sig); ok {
			t.Fatal("released signature leaked a factor")
		}
	}
	if !retried {
		t.Fatal("fault window never triggered a verify-retry — window miscalibrated")
	}
}

func TestVerifyBeforeReleaseUnstableMachine(t *testing.T) {
	// Push the fault probability so high that retries exhaust: the signer
	// degrades to denial of service rather than leaking.
	p := newPlatform(t, 22)
	c := p.Core(0)
	for off := -1; off >= -450; off-- {
		if err := p.WriteOffsetViaMSR(0, off, msr.PlaneCore); err != nil {
			t.Fatal(err)
		}
		p.SettleAll()
		if c.FaultProbability(cpu.ClassIMul) > 0.05 && c.CrashProbability() < 1e-9 {
			break
		}
	}
	k, _ := GenerateRSAKey(512, 23)
	s, _ := NewCRTSigner(k, c, 29)
	s.VerifyBeforeRelease = true
	s.MaxRetries = 3
	m := k.HashToInt([]byte("dos"))
	sawUnstable := false
	for i := 0; i < 50 && !sawUnstable; i++ {
		_, _, err := s.Sign(m)
		if errors.Is(err, ErrSignatureUnstable) {
			sawUnstable = true
		} else if err != nil {
			t.Fatalf("crash: %v", err)
		}
	}
	if !sawUnstable {
		t.Fatal("retry budget never exhausted at 5% per-mul fault rate")
	}
}
