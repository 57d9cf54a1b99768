package sim

import (
	"math"
	"math/rand"
)

// The register of math/rand's additive lagged-Fibonacci generator, the
// source behind rand.NewSource: 607 words, tap 273.
const (
	srcLen = 607
	srcTap = 273
)

// resampleFrom is the first Int63 output that rand.Rand.Float64 rounds up to
// 1.0 and draws again for: float64(x)/(1<<63) == 1 exactly when x >= 2^63-512.
const resampleFrom = 1<<63 - 512

// Source is the generator behind rand.NewSource as a concrete type: seeded
// to the same state, it yields the same stream bit for bit, so the
// simulator's rand.Rand reads exactly rand.New(rand.NewSource(seed))'s
// values. A caller that draws once per simulated instruction calls Coin on
// it directly instead of paying for the rand.Source interface call and the
// float conversion of rand.Rand.Float64.
type Source struct {
	tap, feed int
	vec       [srcLen]int64
}

// Seed sets the register to the state rand.NewSource(seed) starts from,
// without a copy of math/rand's seeding table. A fresh rand.NewSource(seed)
// runs one full turn: each draw moves the feed index down one word and
// stores its output there, so afterwards the register holds exactly those
// 607 outputs (output k at index 333-k mod 607), with tap 0 and feed 334.
// Stepping that register back a full turn recovers the seeded state.
func (s *Source) Seed(seed int64) {
	ref := rand.NewSource(seed).(rand.Source64)
	s.tap, s.feed = 0, srcLen-srcTap
	for range srcLen {
		s.feed = (s.feed + srcLen - 1) % srcLen
		s.vec[s.feed] = int64(ref.Uint64())
	}
	// Uint64 moves both indices down, then adds; undo its steps in reverse
	// order: subtract, then move both indices up.
	for range srcLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%srcLen, (s.feed+1)%srcLen
	}
}

// Uint64 returns the next 64-bit output, as math/rand's source does.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next output with its top bit cleared, as math/rand's
// source does.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Coin draws one rand.Rand.Float64 coin in integer form: it reports whether
// the next accepted draw lies below the bound b. An accepted draw is an
// Int63 output below 2^63-512; Float64 draws again over the outputs it
// would round to 1.0, and so does Coin. With b = CoinBound(p), Coin draws
// exactly what Float64 does and returns Float64() < p. It inlines, so a
// per-instruction loop pays no call for it.
func (s *Source) Coin(b int64) bool {
	for {
		if x := s.Int63(); x < resampleFrom {
			return x < b
		}
	}
}

// CoinBound returns the integer form of a coin that comes up with
// probability p: the least x with float64(x)/(1<<63) >= p, capped at
// 2^63-512. rand.Rand.Float64() < p then holds exactly when the accepted
// draw behind it is below the bound. The bound is 0 when p <= 0 or p is
// NaN, where no draw is ever below it, and the cap when p >= 1, where every
// draw is.
func CoinBound(p float64) int64 {
	if !(p > 0) {
		return 0
	}
	// float64(x) rounds x by at most 512 below 2^63, so the least x whose
	// float64 reaches t = p·2^63 lies in [ceil(t)-512, ceil(t)].
	hi := int64(resampleFrom)
	if t := p * (1 << 63); t < 1<<63 {
		hi = min(int64(math.Ceil(t)), hi)
	}
	lo := max(hi-512, 0)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
