package models

import (
	"math"
	"testing"
)

// TestNominalMVTableBitExact checks the precomputed per-ratio voltage table
// against the direct V(r) curve formula for every programmable ratio of
// every model, including the clamped edges.
func TestNominalMVTableBitExact(t *testing.T) {
	specs, err := All()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		direct := func(ratio uint8) float64 {
			span := float64(s.MaxTurboRatio - s.MinRatio)
			if span == 0 {
				return s.VminMV
			}
			x := float64(ratio-s.MinRatio) / span
			return s.VminMV + (s.VmaxMV-s.VminMV)*math.Pow(x, s.Gamma)
		}
		for r := s.MinRatio; ; r++ {
			got, want := s.NominalMV(r), direct(r)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s ratio %d: cached %v != direct %v", s.Codename, r, got, want)
			}
			if r == s.MaxTurboRatio {
				break
			}
		}
		// Out-of-range ratios clamp to the table edges.
		if got := s.NominalMV(s.MinRatio - 1); got != s.NominalMV(s.MinRatio) {
			t.Fatalf("%s: below-range ratio not clamped: %v", s.Codename, got)
		}
		if got := s.NominalMV(s.MaxTurboRatio + 1); got != s.NominalMV(s.MaxTurboRatio) {
			t.Fatalf("%s: above-range ratio not clamped: %v", s.Codename, got)
		}
	}
}

// TestCircuitReturnsPrivateClones verifies repeated Circuit calls hand out
// distinct circuits (private delay memos) that analyze identically.
func TestCircuitReturnsPrivateClones(t *testing.T) {
	s, err := SkyLake()
	if err != nil {
		t.Fatal(err)
	}
	c1, err := s.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatal("Circuit returned the same pointer twice; clones must be private")
	}
	a1, a2 := worstSlack(c1, 3.6, 1.17), worstSlack(c2, 3.6, 1.17)
	if math.Float64bits(a1.SlackPS) != math.Float64bits(a2.SlackPS) {
		t.Fatalf("clones disagree: %v vs %v", a1.SlackPS, a2.SlackPS)
	}
}

// TestFreqTableStable verifies the cached frequency table is consistent
// across calls and spans exactly MinRatio..MaxTurboRatio.
func TestFreqTableStable(t *testing.T) {
	s, err := CometLake()
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.FreqTableKHz(), s.FreqTableKHz()
	if len(a) != int(s.MaxTurboRatio)-int(s.MinRatio)+1 {
		t.Fatalf("table has %d entries, want %d", len(a), int(s.MaxTurboRatio)-int(s.MinRatio)+1)
	}
	for i := range a {
		want := (int(s.MinRatio) + i) * s.BusMHz * 1000
		if a[i] != want || b[i] != want {
			t.Fatalf("entry %d: %d/%d, want %d", i, a[i], b[i], want)
		}
	}
}

// TestCalibrateInvalidatesDerivedCache verifies a re-calibration does not
// serve circuits built from the stale K.
func TestCalibrateInvalidatesDerivedCache(t *testing.T) {
	s, err := SkyLake()
	if err != nil {
		t.Fatal(err)
	}
	c1, err := s.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	s.MarginPS += 10 // changes the calibrated K
	if err := s.Calibrate(); err != nil {
		t.Fatal(err)
	}
	c2, err := s.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	if c1.Tech.K == c2.Tech.K {
		t.Fatal("circuit after re-Calibrate still carries the old K")
	}
	if c2.Tech.K != s.Tech.K {
		t.Fatalf("circuit K %v != spec K %v", c2.Tech.K, s.Tech.K)
	}
}
