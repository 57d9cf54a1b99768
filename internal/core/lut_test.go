package core

import (
	"math/rand"
	"testing"

	"plugvolt/internal/msr"
)

// buildUnsafeSet derives a deterministic UnsafeSet from a seed: a mix of
// on-ratio-grid and off-grid frequencies, some entirely safe (present in
// FreqsKHz but absent from OnsetMV), occasionally empty. It exercises every
// branch of boundaryFor: exact hit, neighbour interpolation, all-safe
// neighbours falling back to the global shallowest onset, and the
// nothing-faults case.
func buildUnsafeSet(seed int64, busMHz int) *UnsafeSet {
	rng := rand.New(rand.NewSource(seed))
	u := &UnsafeSet{Model: "fuzz", OnsetMV: map[int]int{}, FloorMV: -300}
	n := rng.Intn(12) // 0 => empty set
	for i := 0; i < n; i++ {
		var f int
		if rng.Intn(2) == 0 {
			// On the pollable grid: an exact ratio multiple.
			f = msr.RatioToKHz(uint8(4+rng.Intn(50)), busMHz)
		} else {
			// Off-grid frequency (never equal to a ratio multiple).
			f = 4*busMHz*1000 + rng.Intn(46*busMHz*1000)
			if f%(busMHz*1000) == 0 {
				f += 500
			}
		}
		u.FreqsKHz = append(u.FreqsKHz, f)
		if rng.Intn(4) != 0 { // 1 in 4 frequencies stays entirely safe
			u.OnsetMV[f] = -50 - rng.Intn(250)
		}
	}
	sortInts(u.FreqsKHz)
	return u
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// checkEquivalence asserts the compiled table agrees with Contains for every
// ratio at the given offset/margin.
func checkEquivalence(t *testing.T, u *UnsafeSet, busMHz, marginMV, offsetMV int) {
	t.Helper()
	lut, err := u.Compile(busMHz, marginMV)
	if err != nil {
		t.Fatalf("Compile(%d, %d): %v", busMHz, marginMV, err)
	}
	for r := 0; r < 256; r++ {
		ratio := uint8(r)
		want := u.Contains(msr.RatioToKHz(ratio, busMHz), offsetMV-marginMV)
		if got := lut.Unsafe(ratio, offsetMV); got != want {
			b, ok := u.boundaryFor(msr.RatioToKHz(ratio, busMHz))
			t.Fatalf("ratio %d offset %d margin %d: lut=%v contains=%v (boundary %d ok=%v)",
				ratio, offsetMV, marginMV, got, want, b, ok)
		}
	}
}

// TestLUTMatchesContainsSweep is the deterministic property sweep: many set
// shapes (including the empty set), a grid of margins and offsets, every
// ratio. Off-grid pollable frequencies arise whenever a ratio multiple falls
// between characterized points.
func TestLUTMatchesContainsSweep(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		for _, busMHz := range []int{100, 133} {
			u := buildUnsafeSet(seed, busMHz)
			for _, margin := range []int{0, 1, 15, 50} {
				for _, offset := range []int{0, -1, -49, -50, -51, -64, -65, -66, -100, -149, -150, -151, -299, -300, -301, -1000, 25} {
					checkEquivalence(t, u, busMHz, margin, offset)
				}
			}
		}
	}
}

// TestLUTEmptySet pins the no-fault case: an empty unsafe set compiles to a
// table that never fires, exactly like Contains.
func TestLUTEmptySet(t *testing.T) {
	u := &UnsafeSet{Model: "empty", OnsetMV: map[int]int{}, FloorMV: -300}
	lut, err := u.Compile(100, 15)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 256; r++ {
		if lut.Unsafe(uint8(r), -10000) {
			t.Fatalf("empty set: ratio %d flagged unsafe", r)
		}
		if _, ok := lut.Threshold(uint8(r)); ok {
			t.Fatalf("empty set: ratio %d has a threshold", r)
		}
	}
}

// TestLUTCompileValidation covers the error paths.
func TestLUTCompileValidation(t *testing.T) {
	u := buildUnsafeSet(1, 100)
	if _, err := u.Compile(0, 10); err == nil {
		t.Error("Compile accepted zero bus clock")
	}
	if _, err := u.Compile(-100, 10); err == nil {
		t.Error("Compile accepted negative bus clock")
	}
	if _, err := u.Compile(100, -1); err == nil {
		t.Error("Compile accepted negative margin")
	}
}

// FuzzLUTContainsEquivalence is the randomized half of the tentpole's
// equivalence proof: arbitrary (set shape, margin, offset, ratio) tuples,
// including off-grid frequencies and the empty set, must agree between the
// compiled table and the reference Contains.
func FuzzLUTContainsEquivalence(f *testing.F) {
	f.Add(int64(0), uint8(15), int16(-100), uint8(20))
	f.Add(int64(3), uint8(0), int16(0), uint8(0))
	f.Add(int64(7), uint8(200), int16(-300), uint8(255))
	f.Add(int64(11), uint8(1), int16(32767), uint8(8))
	f.Add(int64(13), uint8(255), int16(-32768), uint8(49))
	f.Fuzz(func(t *testing.T, seed int64, margin uint8, offset int16, ratio uint8) {
		for _, busMHz := range []int{100, 133} {
			u := buildUnsafeSet(seed, busMHz)
			lut, err := u.Compile(busMHz, int(margin))
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			freqKHz := msr.RatioToKHz(ratio, busMHz)
			want := u.Contains(freqKHz, int(offset)-int(margin))
			if got := lut.Unsafe(ratio, int(offset)); got != want {
				t.Fatalf("seed %d bus %d ratio %d offset %d margin %d: lut=%v contains=%v",
					seed, busMHz, ratio, offset, margin, got, want)
			}
			// The same tuple must also agree via SafetyMarginMV's boundary
			// view when a boundary exists.
			if th, ok := lut.Threshold(ratio); ok {
				if b, bok := u.boundaryFor(freqKHz); !bok || th != b+int(margin) {
					t.Fatalf("threshold %d != boundary %d + margin %d (ok=%v)", th, b, margin, bok)
				}
			}
		}
	})
}
