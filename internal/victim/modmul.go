package victim

import (
	"math/big"
	"math/bits"
)

// maxModMulCtx bounds modMul's context cache. A signer reduces by its
// key's two CRT primes; a key swap refills the cache from empty.
const maxModMulCtx = 4

// modMul computes x·y mod m for the signer's non-faulted steps with a
// word-level Montgomery kernel, allocating nothing once each modulus has a
// context. It is not safe for concurrent use.
type modMul struct {
	ctxs []*montCtx
}

// mul sets z = x·y mod m and reports true. It reports false and leaves z
// untouched when the operands need the big.Int path: m even or not
// positive, or x or y negative or ≥ m. z may alias x or y.
func (k *modMul) mul(z, x, y, m *big.Int) bool {
	if m.Sign() <= 0 || m.Bit(0) == 0 || x.Sign() < 0 || y.Sign() < 0 || x.Cmp(m) >= 0 || y.Cmp(m) >= 0 {
		return false
	}
	k.ctx(m).mulMod(z, x, y)
	return true
}

// ctx returns m's context, building it on first use.
func (k *modMul) ctx(m *big.Int) *montCtx {
	mb := m.Bits()
	for _, c := range k.ctxs {
		if c.is(mb) {
			return c
		}
	}
	if len(k.ctxs) == maxModMulCtx {
		k.ctxs = k.ctxs[:0]
	}
	c := newMontCtx(m)
	k.ctxs = append(k.ctxs, c)
	return c
}

// montCtx is the Montgomery context of one odd modulus m of n words, with
// R = 2^(n·W) for the platform word size W: m0inv = −m⁻¹ mod 2^W and
// rr = R² mod m, plus the scratch that keeps mulMod allocation-free.
type montCtx struct {
	m     []uint
	m0inv uint
	rr    []uint
	x, u  []uint // loaded x, then y·R mod m
	t     []uint // n+1-word REDC accumulator
}

func newMontCtx(m *big.Int) *montCtx {
	n := len(m.Bits())
	c := &montCtx{
		m:  make([]uint, n),
		rr: make([]uint, n),
		x:  make([]uint, n),
		u:  make([]uint, n),
		t:  make([]uint, n+1),
	}
	load(c.m, m.Bits())
	// Newton's iteration for m[0]⁻¹ mod 2^W: an odd m[0] is its own
	// inverse mod 8, and each step doubles the correct low bits (3 → 96).
	inv := c.m[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - c.m[0]*inv
	}
	c.m0inv = -inv
	rr := new(big.Int).Lsh(big.NewInt(1), uint(2*n*bits.UintSize))
	load(c.rr, rr.Mod(rr, m).Bits())
	return c
}

// is reports whether the context's modulus has the words mb.
func (c *montCtx) is(mb []big.Word) bool {
	if len(mb) != len(c.m) {
		return false
	}
	for i, w := range mb {
		if uint(w) != c.m[i] {
			return false
		}
	}
	return true
}

// mulMod sets z = x·y mod m as REDC(x · REDC(y · R²)), so both operands
// and the result stay in the normal domain. x and y must lie in [0, m);
// z may alias either.
func (c *montCtx) mulMod(z, x, y *big.Int) {
	load(c.u, y.Bits())
	c.montMul(c.u, c.u, c.rr)
	load(c.x, x.Bits())
	c.montMul(c.x, c.x, c.u)
	zb := z.Bits()
	if cap(zb) < len(c.x) {
		zb = make([]big.Word, len(c.x))
	}
	zb = zb[:len(c.x)]
	for i, w := range c.x {
		zb[i] = big.Word(w)
	}
	z.SetBits(zb)
}

// montMul sets z = a·b·R⁻¹ mod m for a, b in [0, m) by finely integrated
// operand scanning: each word of b adds a·b[i] and the multiple q·m that
// clears the low word in one pass, shifting t down a word. z is written
// only after a and b are read, so it may alias either.
func (c *montCtx) montMul(z, a, b []uint) {
	n := len(c.m)
	m, t := c.m, c.t[:n+1]
	a, b, z = a[:n], b[:n], z[:n]
	clear(t)
	for _, bi := range b {
		// Word 0 fixes q; c1 and c2 carry the two products' high words.
		hi, lo := bits.Mul(a[0], bi)
		lo, cc := bits.Add(lo, t[0], 0)
		c1 := hi + cc
		q := lo * c.m0inv
		hi, lo2 := bits.Mul(q, m[0])
		_, cc = bits.Add(lo2, lo, 0)
		c2 := hi + cc
		for j := 1; j < n; j++ {
			hi, lo = bits.Mul(a[j], bi)
			lo, cc = bits.Add(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add(lo, c1, 0)
			c1 = hi + cc
			hi, lo2 = bits.Mul(q, m[j])
			lo2, cc = bits.Add(lo2, lo, 0)
			hi += cc
			lo2, cc = bits.Add(lo2, c2, 0)
			c2 = hi + cc
			t[j-1] = lo2
		}
		s, cc1 := bits.Add(t[n], c1, 0)
		s, cc2 := bits.Add(s, c2, 0)
		t[n-1], t[n] = s, cc1+cc2
	}
	// t < 2m: keep t − m unless the subtraction borrows.
	var borrow uint
	for j := range z {
		z[j], borrow = bits.Sub(t[j], m[j], borrow)
	}
	if _, borrow = bits.Sub(t[n], 0, borrow); borrow != 0 {
		copy(z, t[:n])
	}
}

// load copies src into dst and zero-fills the rest; len(src) ≤ len(dst).
func load(dst []uint, src []big.Word) {
	for i, w := range src {
		dst[i] = uint(w)
	}
	clear(dst[len(src):])
}

// low64 returns the low 64 bits of x (the word fed to the core's
// multiplier for fault sampling) in two's complement, as x & (2⁶⁴−1)
// does, on 32- and 64-bit words alike.
func low64(x *big.Int) uint64 {
	var v uint64
	for i, w := range x.Bits() {
		if i*bits.UintSize >= 64 {
			break
		}
		v |= uint64(w) << (i * bits.UintSize)
	}
	if x.Sign() < 0 {
		v = -v
	}
	return v
}
