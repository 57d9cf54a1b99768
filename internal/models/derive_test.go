package models

import (
	"math"
	"testing"

	"plugvolt/internal/timing"
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

// TestCircuitReturnsOneCircuit verifies every Circuit call returns the one
// circuit the Spec built, so all cores built from the Spec share it.
func TestCircuitReturnsOneCircuit(t *testing.T) {
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
	if c1 != c2 {
		t.Fatal("Circuit returned two circuits for one Spec")
	}
}

// TestAnalyzePairMatchesAnalyze is the differential test of the pair
// evaluation: for every model, every ordered pair of its paths and a sweep
// of operating points from Vth to above nominal, AnalyzePair's two
// results equal Analyze's bit for bit, and so do their fault probabilities.
func TestAnalyzePairMatchesAnalyze(t *testing.T) {
	specs, err := All()
	if err != nil {
		t.Fatal(err)
	}
	bits := func(a timing.Analysis) [6]uint64 {
		return [6]uint64{
			math.Float64bits(a.FreqGHz), math.Float64bits(a.VoltageV), math.Float64bits(a.TclkPS),
			math.Float64bits(a.ArrivalPS), math.Float64bits(a.RequiredPS), math.Float64bits(a.SlackPS),
		}
	}
	for _, s := range specs {
		c, err := s.Circuit()
		if err != nil {
			t.Fatal(err)
		}
		for _, khz := range s.FreqTableKHz() {
			f := float64(khz) / 1e6
			for mv := 200; mv <= 1300; mv += 11 {
				v := float64(mv) / 1000
				if mv == 200 {
					v = s.Tech.Vth // the +Inf delay corner
				}
				for _, p := range c.Paths {
					for _, q := range c.Paths {
						gp, gq := c.AnalyzePair(p, q, f, v)
						wp, wq := c.Analyze(p, f, v), c.Analyze(q, f, v)
						if gp.Path != wp.Path || gq.Path != wq.Path || bits(gp) != bits(wp) || bits(gq) != bits(wq) {
							t.Fatalf("%s (%s, %s) at %v GHz %v V: pair %+v %+v, single %+v %+v",
								s.Codename, p.Name, q.Name, f, v, gp, gq, wp, wq)
						}
						if math.Float64bits(c.FaultProbability(gp)) != math.Float64bits(c.FaultProbability(wp)) ||
							math.Float64bits(c.FaultProbability(gq)) != math.Float64bits(c.FaultProbability(wq)) {
							t.Fatalf("%s (%s, %s) at %v GHz %v V: fault probabilities differ", s.Codename, p.Name, q.Name, f, v)
						}
					}
				}
			}
		}
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
