package sim

import (
	"math"
	"math/rand"
	"testing"
)

// coinProbabilities are the probabilities the coin tests start from: the
// edges of a coin (never, the least positive float64, 2^-63 and its
// neighbours, the largest Float64 value, always, beyond always, NaN and
// negative) and the ones the simulation draws at: Sky Lake's crash and
// fault probabilities at its settled base point, where E1's signer runs, a
// fault band's 3e-4 and the fault mask's double-bit 0.25.
var coinProbabilities = []float64{
	0, 5e-324,
	math.Nextafter(0x1p-63, 0), 0x1p-63, math.Nextafter(0x1p-63, 1),
	2.5e-59, 2.7e-31, 3e-4, 0.25,
	1 - 0x1p-53, 1, math.Inf(1), math.NaN(), -1,
}

// floatRun is the instruction loop of cpu.(*Core).run as it drew its coins
// through rand.Rand.Float64, the reference for the integer form: per
// instruction a crash coin, then a fault coin, each drawn only at a positive
// probability. It stops at a crash or after the first fault, and done counts
// the instructions retired, the faulted one included.
func floatRun(r *rand.Rand, n int, pCrash, pFault float64) (done int, crashed, faulted bool) {
	for ; done < n; done++ {
		if pCrash > 0 && r.Float64() < pCrash {
			return done, true, false
		}
		if pFault > 0 && r.Float64() < pFault {
			return done + 1, false, true
		}
	}
	return done, false, false
}

// coinRun is the same loop as run draws it: Source.Coin against each
// probability's CoinBound.
func coinRun(s *Source, n int, bCrash, bFault int64) (done int, crashed, faulted bool) {
	for ; done < n; done++ {
		if bCrash > 0 && s.Coin(bCrash) {
			return done, true, false
		}
		if bFault > 0 && s.Coin(bFault) {
			return done + 1, false, true
		}
	}
	return done, false, false
}

// FuzzCoinsMatchFloat64 holds the integer coins to the Float64 loop they
// replace: for any seed, earlier draws, run length and pair of
// probabilities, a simulator's coin run must stop where floatRun on
// rand.New(rand.NewSource(seed)) stops, and the next 16 draws must agree.
// Run lengths are instructions, so a uint16 keeps every count within a
// 32-bit int.
func FuzzCoinsMatchFloat64(f *testing.F) {
	for i, p := range coinProbabilities {
		f.Add(int64(i), uint16(762), uint8(i), p, 0.25)
		f.Add(-int64(i), uint16(762), uint8(0), 2.5e-59, p)
	}
	f.Add(int64(42), uint16(762), uint8(3), 2.5e-59, 2.7e-31)
	f.Add(int64(7), uint16(65535), uint8(1), 0.0, 3e-4)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, before uint8, pCrash, pFault float64) {
		checkCoinBound(t, pCrash, CoinBound(pCrash))
		checkCoinBound(t, pFault, CoinBound(pFault))
		ref := rand.New(rand.NewSource(seed))
		s := New(seed)
		for i := range int(before) {
			if g, w := s.Rand().Int63(), ref.Int63(); g != w {
				t.Fatalf("earlier draw %d: %d, reference %d", i, g, w)
			}
		}
		wantDone, wantCrashed, wantFaulted := floatRun(ref, int(n), pCrash, pFault)
		done, crashed, faulted := coinRun(s.Source(), int(n), CoinBound(pCrash), CoinBound(pFault))
		if done != wantDone || crashed != wantCrashed || faulted != wantFaulted {
			t.Fatalf("run of %d at (%v, %v): done %d crashed %v faulted %v, Float64 loop %d, %v, %v",
				n, pCrash, pFault, done, crashed, faulted, wantDone, wantCrashed, wantFaulted)
		}
		for i := range 16 {
			if i%2 == 0 {
				if g, w := s.Rand().Int63(), ref.Int63(); g != w {
					t.Fatalf("draw %d after the run: Int63 %d, reference %d", i, g, w)
				}
			} else if g, w := s.Rand().Float64(), ref.Float64(); g != w {
				t.Fatalf("draw %d after the run: Float64 %v, reference %v", i, g, w)
			}
		}
	})
}

// withNext returns a copy of s whose next output is x: it sets the word the
// next Uint64 stores into so that the sum comes out as x.
func withNext(s Source, x uint64) Source {
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += srcLen
	}
	if feed < 0 {
		feed += srcLen
	}
	s.vec[feed] = int64(x) - s.vec[tap]
	return s
}

// TestCoinAtBuiltRegisterStates drives the branches no seed reaches in
// practice: a register whose next output is 0, which comes up at the
// smallest positive probability, and one whose next output lies in the
// band that Float64 rounds to 1.0 and draws again for. From the same state,
// run's coin (a positive bound and Coin) must answer what Float64's rule
// (a positive probability and Float64() < p) answers, and both must leave
// the register in the same state.
func TestCoinAtBuiltRegisterStates(t *testing.T) {
	nexts := []struct {
		x        uint64
		resample bool
	}{
		{0, false},
		{1 << 63, false}, // Int63 drops the top bit: 0 again
		{1, false},
		{resampleFrom - 1, false},
		{resampleFrom, true},
		{1<<63 - 1, true},
		{1<<64 - 1, true},
	}
	for _, seed := range randTestSeeds {
		var base Source
		base.Seed(seed)
		for _, next := range nexts {
			built := withNext(base, next.x)
			if probe := built; probe.Int63() != int64(next.x&^(1<<63)) {
				t.Fatalf("seed %d: built register yields %d, want %d", seed, probe.Int63(), next.x&^(1<<63))
			}
			for _, p := range coinProbabilities {
				float, coin := built, built
				want := p > 0 && rand.New(&float).Float64() < p
				b := CoinBound(p)
				got := b > 0 && coin.Coin(b)
				if got != want || coin != float {
					t.Fatalf("seed %d, next output %#x, p=%v: coin %v, Float64 %v; registers equal %v",
						seed, next.x, p, got, want, coin == float)
				}
				drawn, wantDrawn := (built.tap-float.tap+srcLen)%srcLen, 0
				if p > 0 {
					wantDrawn = 1
					if next.resample {
						wantDrawn = 2
					}
				}
				if drawn != wantDrawn {
					t.Fatalf("seed %d, next output %#x, p=%v: drew %d outputs, want %d", seed, next.x, p, drawn, wantDrawn)
				}
			}
		}
	}
}

// TestResampleBand checks exhaustively over [2^63-4096, 2^63) that
// rand.Rand.Float64's division rounds to 1.0 exactly from resampleFrom up.
func TestResampleBand(t *testing.T) {
	for i := int64(0); i < 4096; i++ {
		x := 1<<63 - 4096 + i
		if one, band := float64(x)/(1<<63) == 1, x >= resampleFrom; one != band {
			t.Fatalf("float64(%d)/2^63 == 1 is %v, in the resample band %v", x, one, band)
		}
	}
}

// checkCoinBound fails t unless b answers Float64's comparison with p at the
// accepted draws b-1, b and b+1: x < b exactly when float64(x)/2^63 < p.
// float64 is monotone, so that makes b the comparison's one threshold.
func checkCoinBound(t *testing.T, p float64, b int64) {
	t.Helper()
	if b < 0 || b > resampleFrom {
		t.Fatalf("CoinBound(%v) = %d, outside [0, 2^63-512]", p, b)
	}
	for x := b - 1; x <= b+1; x++ {
		if x < 0 || x >= resampleFrom {
			continue // not an accepted draw
		}
		if below, less := x < b, float64(x)/(1<<63) < p; below != less {
			t.Fatalf("CoinBound(%v) = %d: draw %d is below the bound %v, Float64 %v < p %v",
				p, b, x, below, float64(x)/(1<<63), less)
		}
	}
}

// TestCoinBoundNeighbours checks the bound of every corpus probability, of
// the fair coin and of a sweep across the float64 exponents.
func TestCoinBoundNeighbours(t *testing.T) {
	ps := append([]float64{0.5}, coinProbabilities...)
	for e := -1074; e <= 1; e++ {
		for _, m := range []float64{1, 1.5, 1 - 0x1p-53} {
			p := math.Ldexp(m, e)
			ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 2))
		}
	}
	for _, p := range ps {
		checkCoinBound(t, p, CoinBound(p))
	}
	for p, want := range map[float64]int64{0: 0, -1: 0, 5e-324: 1, 0x1p-63: 1, 1: resampleFrom, 2: resampleFrom} {
		if b := CoinBound(p); b != want {
			t.Errorf("CoinBound(%v) = %d, want %d", p, b, want)
		}
	}
	if b := CoinBound(math.NaN()); b != 0 {
		t.Errorf("CoinBound(NaN) = %d, want 0", b)
	}
}
