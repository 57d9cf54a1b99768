package victim

import (
	"errors"
	"math/big"
	"testing"

	"plugvolt/internal/cpu"
	"plugvolt/internal/msr"
)

// SignProgram is the CRT signature decomposed into single-instruction
// steps, satisfying the sgx Program interface so enclaves, single-stepping
// adversaries and Minefield instrumentation can all drive a *real* RSA
// signing operation instruction by instruction. Each step runs through
// the signer's coreMul, so a stepped signature computes every product
// live instead of replaying a trajectory.
//
// The schedule is precomputed from the (public) exponent bit patterns —
// square/multiply structure is not secret-dependent beyond the key itself,
// which the stepping adversary does not need.
type SignProgram struct {
	signer *CRTSigner
	m      *big.Int

	// ops is the remaining multiply schedule; state carries the running
	// values between steps.
	ops  []func() error
	pos  int
	sig  *big.Int
	sp   *big.Int
	sq   *big.Int
	work *big.Int
}

// NewSignProgram builds the steppable signature of digest m.
func NewSignProgram(s *CRTSigner, m *big.Int) (*SignProgram, error) {
	if s == nil || m == nil {
		return nil, errors.New("victim: signer and digest required")
	}
	p := &SignProgram{signer: s, m: m}
	p.plan()
	return p, nil
}

// plan builds the step list: square-and-multiply for both CRT halves, then
// the Garner recombination.
func (p *SignProgram) plan() {
	k := p.signer.Key
	half := func(exp, mod *big.Int, out **big.Int) {
		// result is captured per-half and threaded through the closures.
		p.ops = append(p.ops, func() error {
			p.work = big.NewInt(1)
			return nil
		})
		base := new(big.Int).Mod(p.m, mod)
		for i := exp.BitLen() - 1; i >= 0; i-- {
			p.ops = append(p.ops, func() error {
				return p.signer.coreMul(p.work, p.work, p.work, mod)
			})
			if exp.Bit(i) == 1 {
				p.ops = append(p.ops, func() error {
					return p.signer.coreMul(p.work, p.work, base, mod)
				})
			}
		}
		p.ops = append(p.ops, func() error {
			*out = p.work
			return nil
		})
	}
	half(k.Dp, k.P, &p.sp)
	half(k.Dq, k.Q, &p.sq)
	p.ops = append(p.ops, func() error {
		h := new(big.Int).Sub(p.sp, p.sq)
		h.Mod(h, k.P)
		if err := p.signer.coreMul(h, h, k.Qinv, k.P); err != nil {
			return err
		}
		sig := new(big.Int).Mul(h, k.Q)
		sig.Add(sig, p.sq)
		sig.Mod(sig, k.N)
		p.sig = sig
		return nil
	})
}

// Step implements the sgx Program interface.
func (p *SignProgram) Step() (bool, error) {
	if p.pos >= len(p.ops) {
		return true, nil
	}
	if err := p.ops[p.pos](); err != nil {
		return false, err
	}
	p.pos++
	return p.pos >= len(p.ops), nil
}

// Len returns the total step count; Pos the next step index.
func (p *SignProgram) Len() int { return len(p.ops) }

// Pos returns the next step index.
func (p *SignProgram) Pos() int { return p.pos }

// Signature returns the completed signature, or nil before completion.
func (p *SignProgram) Signature() *big.Int { return p.sig }

// StepsPerSign returns the deterministic number of core multiplications a
// Sign call makes for this key (useful for planning single-step attacks).
func (s *CRTSigner) StepsPerSign(m *big.Int) int {
	count := 0
	countExp := func(exp *big.Int) {
		for i := exp.BitLen() - 1; i >= 0; i-- {
			count++ // square
			if exp.Bit(i) == 1 {
				count++ // multiply
			}
		}
	}
	countExp(s.Key.Dp)
	countExp(s.Key.Dq)
	count++ // Garner multiply
	return count
}

func TestSignProgramMatchesDirectSign(t *testing.T) {
	p := newPlatform(t, 31)
	k, err := GenerateRSAKey(512, 33)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCRTSigner(k, p.Core(0), 35)
	if err != nil {
		t.Fatal(err)
	}
	m := k.HashToInt([]byte("steppable"))
	prog, err := NewSignProgram(s, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSignProgram(nil, m); err == nil {
		t.Fatal("nil signer accepted")
	}
	if prog.Len() == 0 || prog.Signature() != nil {
		t.Fatal("bad initial state")
	}
	steps := 0
	for {
		done, err := prog.Step()
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done {
			break
		}
	}
	if steps != prog.Len() || prog.Pos() != prog.Len() {
		t.Fatalf("steps %d of %d", steps, prog.Len())
	}
	sig := prog.Signature()
	if sig == nil || !k.Verify(m, sig) {
		t.Fatal("stepped signature invalid")
	}
	// Identical to the monolithic path (deterministic platform, no faults).
	direct, _, err := s.Sign(m)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Cmp(direct) != 0 {
		t.Fatal("stepped and direct signatures differ")
	}
	// Step after completion keeps reporting done.
	if done, err := prog.Step(); err != nil || !done {
		t.Fatal("completed program not done")
	}
}

func TestSignProgramUnderSingleSteppingAttack(t *testing.T) {
	// The stepping adversary undervolts during exactly one multiply step
	// of a real RSA-CRT signature and recovers a factor from the result —
	// the full Sec. 4.1 threat model against the application layer.
	p := newPlatform(t, 32)
	c := p.Core(0)
	attackOffset := 0
	for off := -1; off >= -400; off-- {
		if err := p.WriteOffsetViaMSR(0, off, msr.PlaneCore); err != nil {
			t.Fatal(err)
		}
		p.SettleAll()
		if c.FaultProbability(cpu.ClassIMul) > 0.4 && c.CrashProbability() < 1e-6 {
			attackOffset = off
			break
		}
	}
	if attackOffset == 0 {
		t.Fatal("no high-rate fault point")
	}
	restore := func() { _ = p.WriteOffsetViaMSR(0, 0, msr.PlaneCore); p.SettleAll() }
	undervolt := func() { _ = p.WriteOffsetViaMSR(0, attackOffset, msr.PlaneCore); p.SettleAll() }
	restore()

	k, _ := GenerateRSAKey(512, 37)
	s, _ := NewCRTSigner(k, c, 39)
	m := k.HashToInt([]byte("stepped-fault"))

	for attempt := 0; attempt < 200; attempt++ {
		prog, err := NewSignProgram(s, m)
		if err != nil {
			t.Fatal(err)
		}
		// Target one multiply inside the first CRT half.
		target := 5 + attempt%40
		for i := 0; ; i++ {
			if i == target {
				undervolt()
			}
			done, err := prog.Step()
			if i == target {
				restore()
			}
			if err != nil {
				t.Fatalf("crash at step %d: %v", i, err)
			}
			if done {
				break
			}
		}
		sig := prog.Signature()
		if k.Verify(m, sig) {
			continue // the targeted step didn't fault this time
		}
		if f, ok := RecoverFactor(k.N, k.E, m, sig); ok && FactorsN(k.N, f) {
			return // key material extracted via stepping
		}
	}
	t.Fatal("stepping attack never produced an exploitable signature")
}
