package victim

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
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

// FaultyCore is the execution surface the CRT signer multiplies on: the
// subset of *cpu.Core the signer needs. IMuls(n) runs up to n of the
// signer's multiplications back to back and stops after the first faulted
// one or at a crash; done counts the ones that retired. A fault corrupts
// the corresponding big-integer product.
type FaultyCore interface {
	IMuls(n int) (done int, faulted bool, err error)
}

// CRTSigner signs with the CRT optimization, executing every modular
// multiplication on a (potentially undervolted) core. A single faulty
// multiplication in exactly one CRT half makes gcd(sig^e - m, N) reveal a
// prime factor — the classic Boneh–DeMillo–Lipton condition that
// Plundervolt weaponized against SGX enclaves.
type CRTSigner struct {
	// Key signs. Sign memoizes per key pointer: assign a new *RSAKey
	// rather than mutate the one it points to.
	Key  *RSAKey
	Core FaultyCore

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

	// traj is the fault-free trajectory of the digest last signed under
	// Key (see signOnce).
	traj *trajectory
	// at indexes the next step of the arithmetic in progress, and live is
	// the first step it runs on the core (see step).
	at, live int
	// prod, sp, sq, h and base are the arithmetic's scratch.
	prod, sp, sq, h, base big.Int

	// Steps counts core multiplications in the last Sign call.
	Steps int
	// FaultedSteps counts multiplications whose product was corrupted.
	FaultedSteps int
}

// trajectory is the fault-free run of one signature: its count of core
// multiplications and the signature.
type trajectory struct {
	key   *RSAKey
	m     big.Int
	steps int
	sig   *big.Int
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

// coreMul sets z = x*y mod mod, executing the multiply on the core as a
// one-step run; z may alias x or y.
func (s *CRTSigner) coreMul(z, x, y, mod *big.Int) error {
	s.Steps++
	_, faulted, err := s.Core.IMuls(1)
	if err != nil {
		return err
	}
	s.reduce(z, x, y, mod, faulted)
	return nil
}

// reduce sets z = x*y mod mod. A faulted product has one rng-drawn bit
// flipped before reduction — faithful to how a timing violation in one
// multiplier stage corrupts the wide result.
func (s *CRTSigner) reduce(z, x, y, mod *big.Int, faulted bool) {
	prod := s.prod.Mul(x, y)
	if faulted {
		s.FaultedSteps++
		bit := s.rng.Intn(max(prod.BitLen(), 1))
		prod.SetBit(prod, bit, prod.Bit(bit)^1)
	}
	z.Mod(prod, mod)
}

// step sets z = x*y mod mod as step s.at of the arithmetic in progress; z
// may alias x or y. Steps before s.live already ran on the core: they
// reduce clean, except step s.live-1, which faulted there. Steps from
// s.live on run live through coreMul.
func (s *CRTSigner) step(z, x, y, mod *big.Int) error {
	i := s.at
	s.at++
	if i >= s.live {
		return s.coreMul(z, x, y, mod)
	}
	s.reduce(z, x, y, mod, i == s.live-1)
	return nil
}

// expOnCore sets z = base^exp mod mod by square-and-multiply, one step
// per multiplication.
func (s *CRTSigner) expOnCore(z, base, exp, mod *big.Int) error {
	b := s.base.Mod(base, mod)
	z.SetInt64(1)
	for i := exp.BitLen() - 1; i >= 0; i-- {
		if err := s.step(z, z, z, mod); err != nil {
			return err
		}
		if exp.Bit(i) == 1 {
			if err := s.step(z, z, b, mod); err != nil {
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

// signOnce is one unprotected CRT signature. The core's fault and crash
// draws never read the operands, so until a step faults the signature
// follows the digest's fault-free trajectory: signOnce runs the
// trajectory's steps on the core as one IMuls call, which stops at the
// first faulted step or a crash, and computes nothing. After a faulted
// step it reruns the arithmetic with that step corrupted and the later
// steps live on the core. Steps counts the step a crash hit.
func (s *CRTSigner) signOnce(m *big.Int) (sig *big.Int, faulted bool, err error) {
	s.FaultedSteps = 0
	t := s.trajectory(m)
	done, faulted, err := s.Core.IMuls(t.steps)
	s.Steps = done
	switch {
	case err != nil:
		s.Steps++
		return nil, false, err
	case faulted:
		return s.compute(m, done)
	}
	return new(big.Int).Set(t.sig), false, nil
}

// trajectory returns the fault-free trajectory of digest m under s.Key,
// computing it off the core when the memo holds another key or digest.
func (s *CRTSigner) trajectory(m *big.Int) *trajectory {
	if t := s.traj; t != nil && t.key == s.Key && t.m.Cmp(m) == 0 {
		return t
	}
	t := &trajectory{key: s.Key}
	t.m.Set(m)
	t.sig, _, _ = s.compute(m, math.MaxInt) // no step reaches the core
	t.steps = s.at
	s.traj = t
	return t
}

// compute runs the CRT signature arithmetic with the first live steps
// already executed on the core (see step).
func (s *CRTSigner) compute(m *big.Int, live int) (sig *big.Int, faulted bool, err error) {
	s.at, s.live = 0, live
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
	if err := s.step(h, h, k.Qinv, k.P); err != nil {
		return nil, false, err
	}
	sig = new(big.Int).Mul(h, k.Q)
	sig.Add(sig, &s.sq)
	sig.Mod(sig, k.N)
	return sig, s.FaultedSteps > 0, nil
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
