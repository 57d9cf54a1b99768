package sim

import (
	"math"
	"math/rand"
	"testing"
)

// randTestSeeds exercises boundary seeds plus RowSeed-style derivatives
// (experiment seed ^ frequency kHz), the seeds row platforms are reset to.
var randTestSeeds = []int64{
	0, 1, -1, 42, 12345, -987654321,
	math.MaxInt64, math.MinInt64,
	42 ^ 800_000, 42 ^ 3_600_000, 7 ^ 1_800_000,
}

// simSink keeps New's result on the heap so the allocation is counted.
var simSink *Simulator

// TestNewLeavesRNGUnseeded pins the construction cost: New stores the seed
// in one allocation, event processing leaves the source alone, and only the
// first Rand or Source call seeds it (once).
func TestNewLeavesRNGUnseeded(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { simSink = New(42) }); allocs != 1 {
		t.Fatalf("New allocated %.0f times, want 1 (the Simulator itself)", allocs)
	}
	s := New(42)
	s.Every(Microsecond, func() {})
	s.RunFor(Millisecond)
	if s.rng != nil || s.src != nil {
		t.Fatal("RNG seeded before the first Rand call")
	}
	r := s.Rand()
	if r == nil || s.rng != r || s.src == nil {
		t.Fatal("Rand did not install the seeded source")
	}
	if s.Rand() != r || s.Source() != s.src {
		t.Fatal("a second call replaced the source")
	}
}

// TestRandMatchesMathRand requires the simulator's random stream to be
// bit-for-bit rand.New(rand.NewSource(seed))'s, even when events ran before
// the first draw, for a million draws per seed. Coins drawn on the concrete
// Source interleave with the Rand draws on the one stream, and each must
// answer what rand.Rand.Float64() < p answers at that point of the
// reference stream.
func TestRandMatchesMathRand(t *testing.T) {
	const draws = 1_000_000
	bounds := make([]int64, len(coinProbabilities))
	for i, p := range coinProbabilities {
		bounds[i] = CoinBound(p)
	}
	half := CoinBound(0.5)
	for _, seed := range randTestSeeds {
		ref := rand.New(rand.NewSource(seed))
		s := New(seed)
		for i := 0; i < 10; i++ {
			s.Schedule(Duration(i+1)*Nanosecond, func() {})
		}
		s.Run()
		got, src := s.Rand(), s.Source()
		// The mixed draw types exercise every rand.Rand derivation path the
		// simulation uses (jitter, fault coins, fault masks, binomials).
		for i := 0; i < draws; i++ {
			switch i % 6 {
			case 0:
				if g, w := got.Int63(), ref.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, g, w)
				}
			case 1:
				g, w := got.Float64(), ref.Float64()
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, g, w)
				}
			case 2:
				g, w := got.NormFloat64(), ref.NormFloat64()
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, g, w)
				}
			case 3:
				if g, w := got.Intn(64), ref.Intn(64); g != w {
					t.Fatalf("seed %d draw %d: Intn %d != %d", seed, i, g, w)
				}
			case 4:
				if g, w := got.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, g, w)
				}
			case 5:
				// Every other coin is a fair one: most probabilities of the
				// corpus come up the same way every time.
				p, b := 0.5, half
				if k := i / 6; k%2 == 0 {
					j := k / 2 % len(coinProbabilities)
					p, b = coinProbabilities[j], bounds[j]
				}
				if !(p > 0) {
					continue // neither loop draws a coin it cannot win
				}
				if g, w := src.Coin(b), ref.Float64() < p; g != w {
					t.Fatalf("seed %d draw %d: coin at p=%v (bound %d) %v, Float64 %v", seed, i, p, b, g, w)
				}
			}
		}
	}
}
