package victim

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	mrand "math/rand"
)

// RSAKey is an RSA private key with the CRT components a fast signer uses.
type RSAKey struct {
	N, E, D *big.Int
	P, Q    *big.Int
	Dp, Dq  *big.Int // D mod (p-1), D mod (q-1)
	Qinv    *big.Int // q^-1 mod p
	Bits    int
}

// deterministicPrime draws candidates from the seeded source until one
// passes Miller-Rabin. crypto/rand.Prime cannot be used here: since Go 1.20
// it deliberately defeats deterministic readers (MaybeReadByte), and the
// experiments need replayable keys. These keys are for fault-attack
// experiments, not production cryptography.
func deterministicPrime(r *mrand.Rand, bits int) *big.Int {
	buf := make([]byte, (bits+7)/8)
	for {
		r.Read(buf) // math/rand Read never fails and is deterministic
		p := new(big.Int).SetBytes(buf)
		// Trim to exactly `bits`, force the two top bits (full-size
		// modulus after multiplication) and the low bit (odd).
		excess := p.BitLen() - bits
		if excess > 0 {
			p.Rsh(p, uint(excess))
		}
		p.SetBit(p, bits-1, 1)
		p.SetBit(p, bits-2, 1)
		p.SetBit(p, 0, 1)
		if p.ProbablyPrime(40) {
			return p
		}
	}
}

// GenerateRSAKey creates a bits-bit RSA key deterministically from seed.
func GenerateRSAKey(bits int, seed int64) (*RSAKey, error) {
	if bits < 128 {
		return nil, fmt.Errorf("victim: RSA modulus %d bits too small (min 128 for the experiments)", bits)
	}
	rd := mrand.New(mrand.NewSource(seed))
	e := big.NewInt(65537)
	one := big.NewInt(1)
	for attempt := 0; attempt < 64; attempt++ {
		p := deterministicPrime(rd, bits/2)
		q := deterministicPrime(rd, bits/2)
		if p.Cmp(q) == 0 {
			continue
		}
		if p.Cmp(q) < 0 {
			p, q = q, p
		}
		n := new(big.Int).Mul(p, q)
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		phi := new(big.Int).Mul(pm1, qm1)
		if new(big.Int).GCD(nil, nil, e, phi).Cmp(one) != 0 {
			continue
		}
		d := new(big.Int).ModInverse(e, phi)
		key := &RSAKey{
			N: n, E: e, D: d,
			P: p, Q: q,
			Dp:   new(big.Int).Mod(d, pm1),
			Dq:   new(big.Int).Mod(d, qm1),
			Qinv: new(big.Int).ModInverse(q, p),
			Bits: bits,
		}
		return key, nil
	}
	return nil, errors.New("victim: could not generate RSA key")
}

// HashToInt maps a message to the signing representative m = H(msg) mod N
// (full-domain-hash style; enough structure for the fault experiments).
func (k *RSAKey) HashToInt(msg []byte) *big.Int {
	h := sha256.Sum256(msg)
	m := new(big.Int).SetBytes(h[:])
	return m.Mod(m, k.N)
}

// Verify checks sig^E mod N == m.
func (k *RSAKey) Verify(m, sig *big.Int) bool {
	return new(big.Int).Exp(sig, k.E, k.N).Cmp(m) == 0
}

// FaultyCore is the execution surface the CRT signer multiplies on. It is
// the subset of *cpu.Core the signer needs; faults in IMul corrupt the
// corresponding big-integer product.
type FaultyCore interface {
	IMul(a, b uint64) (uint64, bool, error)
}

// CRTSigner signs with the CRT optimization, executing every modular
// multiplication on a (potentially undervolted) core. A single faulty
// multiplication in exactly one CRT half makes gcd(sig^e - m, N) reveal a
// prime factor — the classic Boneh–DeMillo–Lipton condition that
// Plundervolt weaponized against SGX enclaves.
type CRTSigner struct {
	Key  *RSAKey
	Core FaultyCore

	// StepHook, when set, is called before every core multiplication with
	// a running step index. Single-stepping attackers and the Minefield
	// trap instrumentation both hang off this.
	StepHook func(step int)

	// VerifyBeforeRelease enables the classic application-level fault
	// countermeasure (Boneh-DeMillo-Lipton's own recommendation): verify
	// the signature with the public key before releasing it, and retry on
	// mismatch. It stops the *key extraction* (no faulty signature ever
	// leaves the signer) at the cost of a public-key operation per
	// signature — but unlike the paper's countermeasure it does nothing
	// for non-signature victims, and it turns a fault attack into a
	// denial of service (the signer spins while undervolted).
	VerifyBeforeRelease bool
	// MaxRetries bounds the verify-retry loop (default 32); exceeding it
	// returns ErrSignatureUnstable.
	MaxRetries int
	// Retries counts verify-failure retries in the last Sign call.
	Retries int

	// rng drives fault bit placement inside big integers; seeded once so
	// runs replay.
	rng *mrand.Rand

	// mm reduces the non-faulted steps; prod is the big.Int product of the
	// others. sp, sq, h and base are Sign's scratch, so a warmed signer
	// allocates nothing per step.
	mm              modMul
	prod            big.Int
	sp, sq, h, base big.Int

	// Steps counts core multiplications in the last Sign call.
	Steps int
	// FaultedSteps counts multiplications whose product was corrupted.
	FaultedSteps int
}

// NewCRTSigner builds a signer bound to a key and an execution core.
func NewCRTSigner(key *RSAKey, core FaultyCore, seed int64) (*CRTSigner, error) {
	if key == nil {
		return nil, errors.New("victim: nil key")
	}
	if core == nil {
		return nil, errors.New("victim: nil core")
	}
	return &CRTSigner{Key: key, Core: core, rng: mrand.New(mrand.NewSource(seed))}, nil
}

// coreMul sets z = x*y mod mod, executing the multiply on the core; z may
// alias x or y. If the core faults the checksum multiplication, the
// big-integer product is corrupted by a bit flip before reduction —
// faithful to how a timing violation in one multiplier stage corrupts the
// wide result. IMul reports the fault before the product is formed, so a
// clean step reduces through the word-level kernel when its operands allow.
func (s *CRTSigner) coreMul(z, x, y, mod *big.Int) error {
	if s.StepHook != nil {
		s.StepHook(s.Steps)
	}
	s.Steps++
	a := low64(x) | 1
	b := low64(y) | 1
	_, faulted, err := s.Core.IMul(a, b)
	if err != nil {
		return err
	}
	if !faulted && s.mm.mul(z, x, y, mod) {
		return nil
	}
	prod := s.prod.Mul(x, y)
	if faulted {
		s.FaultedSteps++
		bit := s.rng.Intn(max(prod.BitLen(), 1))
		prod.SetBit(prod, bit, prod.Bit(bit)^1)
	}
	z.Mod(prod, mod)
	return nil
}

// expOnCore sets z = base^exp mod mod by square-and-multiply with every
// multiplication routed through coreMul.
func (s *CRTSigner) expOnCore(z, base, exp, mod *big.Int) error {
	b := s.base.Mod(base, mod)
	z.SetInt64(1)
	for i := exp.BitLen() - 1; i >= 0; i-- {
		if err := s.coreMul(z, z, z, mod); err != nil {
			return err
		}
		if exp.Bit(i) == 1 {
			if err := s.coreMul(z, z, b, mod); err != nil {
				return err
			}
		}
	}
	return nil
}

// ErrSignatureUnstable is returned when VerifyBeforeRelease exhausts its
// retry budget — the machine is too faulty to sign on.
var ErrSignatureUnstable = errors.New("victim: signature verification kept failing (machine faulting)")

// Sign produces the CRT signature of digest m. faulted reports whether any
// core multiplication was corrupted during the *released* computation.
// With VerifyBeforeRelease set, a corrupted signature is never released:
// the signer retries until verification passes (or MaxRetries runs out),
// so faulted is always false on success.
func (s *CRTSigner) Sign(m *big.Int) (sig *big.Int, faulted bool, err error) {
	s.Retries = 0
	if !s.VerifyBeforeRelease {
		return s.signOnce(m)
	}
	max := s.MaxRetries
	if max <= 0 {
		max = 32
	}
	for try := 0; try < max; try++ {
		sig, _, err := s.signOnce(m)
		if err != nil {
			return nil, false, err
		}
		if s.Key.Verify(m, sig) {
			return sig, false, nil
		}
		s.Retries++
	}
	return nil, false, ErrSignatureUnstable
}

// signOnce is one unprotected CRT signature.
func (s *CRTSigner) signOnce(m *big.Int) (sig *big.Int, faulted bool, err error) {
	s.Steps = 0
	s.FaultedSteps = 0
	k := s.Key
	if err := s.expOnCore(&s.sp, m, k.Dp, k.P); err != nil {
		return nil, false, err
	}
	if err := s.expOnCore(&s.sq, m, k.Dq, k.Q); err != nil {
		return nil, false, err
	}
	// Garner recombination: sig = sq + q * ((sp - sq) * qinv mod p).
	h := s.h.Sub(&s.sp, &s.sq)
	h.Mod(h, k.P)
	if err := s.coreMul(h, h, k.Qinv, k.P); err != nil {
		return nil, false, err
	}
	sig = new(big.Int).Mul(h, k.Q)
	sig.Add(sig, &s.sq)
	sig.Mod(sig, k.N)
	return sig, s.FaultedSteps > 0, nil
}

// StepsPerSign returns the deterministic number of core multiplications a
// Sign call issues for this key (useful for planning single-step attacks).
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

// RecoverFactor runs the Boneh–DeMillo–Lipton / Lenstra attack: given the
// correct representative m, the public key (N, e) and one faulty CRT
// signature, it returns a nontrivial factor of N, or ok=false if the fault
// pattern does not satisfy the single-half condition.
func RecoverFactor(n, e, m, faultySig *big.Int) (*big.Int, bool) {
	if faultySig == nil || faultySig.Sign() == 0 {
		return nil, false
	}
	// gcd(sig^e - m mod N, N)
	t := new(big.Int).Exp(faultySig, e, n)
	t.Sub(t, m)
	t.Mod(t, n)
	g := new(big.Int).GCD(nil, nil, t, n)
	if g.Cmp(big.NewInt(1)) > 0 && g.Cmp(n) < 0 {
		return g, true
	}
	return nil, false
}

// FactorsN checks that factor divides N nontrivially.
func FactorsN(n, factor *big.Int) bool {
	if factor == nil || factor.Cmp(big.NewInt(1)) <= 0 || factor.Cmp(n) >= 0 {
		return false
	}
	return new(big.Int).Mod(n, factor).Sign() == 0
}

// SignProgram is the CRT signature decomposed into single-instruction
// steps, satisfying the sgx Program interface so enclaves, single-stepping
// adversaries and Minefield instrumentation can all drive a *real* RSA
// signing operation instruction by instruction.
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
