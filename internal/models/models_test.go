package models

import (
	"math"
	"testing"

	"plugvolt/internal/timing"
)

func TestAllThreeModelsCalibrate(t *testing.T) {
	specs, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("All() returned %d models", len(specs))
	}
	wantCodenames := []string{"Sky Lake", "Kaby Lake R", "Comet Lake"}
	wantUcode := []string{"0xf0", "0xf4", "0xf4"}
	for i, s := range specs {
		if s.Codename != wantCodenames[i] {
			t.Errorf("model %d codename %q", i, s.Codename)
		}
		if s.Microcode != wantUcode[i] {
			t.Errorf("%s microcode %q, want %q (paper Sec. 4.2)", s.Codename, s.Microcode, wantUcode[i])
		}
		if s.Tech.K <= 0 {
			t.Errorf("%s: K not calibrated", s.Codename)
		}
	}
}

func TestCalibrationMeetsMarginAtTurbo(t *testing.T) {
	specs, _ := All()
	for _, s := range specs {
		c, err := s.Circuit()
		if err != nil {
			t.Fatalf("%s: %v", s.Codename, err)
		}
		p, ok := c.PathByName(PathIMul)
		if !ok {
			t.Fatalf("%s: no imul path", s.Codename)
		}
		a := c.Analyze(p, s.MaxGHz(), s.NominalMV(s.MaxTurboRatio)/1000)
		if math.Abs(a.SlackPS-s.MarginPS) > 0.5 {
			t.Errorf("%s: imul slack at turbo = %.2f ps, want margin %.1f ps",
				s.Codename, a.SlackPS, s.MarginPS)
		}
	}
}

func TestNominalVoltageCurve(t *testing.T) {
	s, err := SkyLake()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NominalMV(s.MinRatio); got != 720 {
		t.Fatalf("Vmin = %v", got)
	}
	if got := s.NominalMV(s.MaxTurboRatio); math.Abs(got-1170) > 1e-9 {
		t.Fatalf("Vmax = %v", got)
	}
	// Clamping outside the programmable range.
	if got := s.NominalMV(0); got != 720 {
		t.Fatalf("V(below min) = %v", got)
	}
	if got := s.NominalMV(200); math.Abs(got-1170) > 1e-9 {
		t.Fatalf("V(above max) = %v", got)
	}
	// Convexity: the step size must grow with ratio.
	prevStep := -1.0
	for r := s.MinRatio; r < s.MaxTurboRatio; r++ {
		step := s.NominalMV(r+1) - s.NominalMV(r)
		if step < prevStep {
			t.Fatalf("V/f curve not convex at ratio %d", r)
		}
		prevStep = step
	}
	// Monotone increasing with ratio.
	prev := -1.0
	for r := s.MinRatio; r <= s.MaxTurboRatio; r++ {
		v := s.NominalMV(r)
		if v <= prev {
			t.Fatalf("V/f curve not increasing at ratio %d", r)
		}
		prev = v
	}
}

func TestEveryOperatingPointIsSafeAtNominal(t *testing.T) {
	// The stock V/f curve must be entirely in the safe region: a machine
	// that faults without adversarial undervolting is miscalibrated.
	specs, _ := All()
	for _, s := range specs {
		c, err := s.Circuit()
		if err != nil {
			t.Fatal(err)
		}
		for r := s.MinRatio; r <= s.MaxTurboRatio; r++ {
			f := float64(int(r)*s.BusMHz) / 1000
			v := s.NominalMV(r) / 1000
			worst := worstSlack(c, f, v)
			// Require at least ~4.5 sigma of slack so the per-instruction
			// fault probability is negligible at stock settings.
			if worst.SlackPS < 4.5*c.JitterSigmaPS {
				t.Errorf("%s at ratio %d: worst slack %.1f ps < 4.5 sigma (%s path)",
					s.Codename, r, worst.SlackPS, worst.Path.Name)
			}
		}
	}
}

func TestFaultOnsetRequiresUndervolt(t *testing.T) {
	// At every frequency there must exist a negative offset within the
	// paper's sweep range (-1..-300 mV for the two desktop-era parts) that
	// pushes the imul path to negative slack; otherwise Figs. 2-4 would
	// have empty unsafe regions.
	specs, _ := All()
	for _, s := range specs {
		c, _ := s.Circuit()
		p, _ := c.PathByName(PathIMul)
		for r := s.MinRatio; r <= s.MaxTurboRatio; r += 4 {
			f := float64(int(r)*s.BusMHz) / 1000
			nom := s.NominalMV(r)
			// -450 mV generously covers crash territory at low ratios.
			a := c.Analyze(p, f, (nom-450)/1000)
			if a.SlackPS >= 0 && !math.IsInf(a.ArrivalPS, 1) {
				t.Errorf("%s ratio %d: still safe at -450 mV (slack %.1f)",
					s.Codename, r, a.SlackPS)
			}
		}
	}
}

func TestOnsetMagnitudeShrinksWithFrequency(t *testing.T) {
	// Core shape claim of Figs. 2-4: higher frequency -> smaller |offset|
	// needed to fault. We allow sub-grid (<2 mV, below the 1 mV sweep
	// step plus quantization) local deviations but require a strong
	// overall decline from the lowest to the highest frequency.
	specs, _ := All()
	for _, s := range specs {
		c, _ := s.Circuit()
		p, _ := c.PathByName(PathIMul)
		var first, last float64
		prevOnset := math.Inf(-1) // offsets are negative; onset rises toward 0
		for r := s.MinRatio; r <= s.MaxTurboRatio; r++ {
			f := float64(int(r)*s.BusMHz) / 1000
			nom := s.NominalMV(r) / 1000
			// The onset is the shallowest 0.01 mV step at which imul fails.
			onsetMV := 0.0
			for c.Analyze(p, f, nom+onsetMV/1000).SlackPS >= 0 {
				onsetMV -= 0.01
			}
			if r == s.MinRatio {
				first = onsetMV
			}
			last = onsetMV
			// Allow a shallow (<8 mV cumulative) mid-band dip; the paper's
			// empirical bands are fuzzier than that.
			if onsetMV < prevOnset-8.0 {
				t.Errorf("%s: onset offset %0.1f mV at ratio %d regressed by >8 mV (running max %0.1f)",
					s.Codename, onsetMV, r, prevOnset)
			}
			if onsetMV > prevOnset {
				prevOnset = onsetMV
			}
		}
		if last < first+30 {
			t.Errorf("%s: onset did not shrink overall: %0.1f mV at fmin vs %0.1f mV at fmax",
				s.Codename, first, last)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"skylake", "kabylaker", "cometlake", "Sky Lake", "Kaby Lake R", "Comet Lake"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("pentium4"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestFreqTable(t *testing.T) {
	s, _ := SkyLake()
	tab := s.FreqTableKHz()
	if len(tab) != int(s.MaxTurboRatio-s.MinRatio)+1 {
		t.Fatalf("table length %d", len(tab))
	}
	if tab[0] != 800_000 || tab[len(tab)-1] != 3_600_000 {
		t.Fatalf("table bounds %d..%d", tab[0], tab[len(tab)-1])
	}
	// 0.1 GHz resolution, as in Algorithm 2.
	for i := 1; i < len(tab); i++ {
		if tab[i]-tab[i-1] != 100_000 {
			t.Fatal("table not at 0.1 GHz resolution")
		}
	}
}

func TestCircuitRequiresCalibration(t *testing.T) {
	s := &Spec{Codename: "raw", Depths: baseDepths(), ControlDepth: 0.94}
	if _, err := s.Circuit(); err == nil {
		t.Fatal("Circuit before Calibrate did not error")
	}
}

func TestCalibrateRejectsBadSpecs(t *testing.T) {
	bad := &Spec{
		Codename: "bad", BusMHz: 100, MinRatio: 8, MaxTurboRatio: 36,
		VminMV: 720, VmaxMV: 1170, Gamma: 1.7,
		Tech:   timing.AlphaPower{Vth: 0.35, Alpha: 1.3},
		Depths: map[string]float64{PathIMul: 0.5},
	}
	if err := bad.Calibrate(); err == nil {
		t.Fatal("non-unit imul depth accepted")
	}
	noBudget := &Spec{
		Codename: "nb", BusMHz: 1000, MinRatio: 8, MaxTurboRatio: 200,
		VminMV: 720, VmaxMV: 800, Gamma: 1.7,
		Tech: timing.AlphaPower{Vth: 0.35, Alpha: 1.3}, SetupPS: 20, EpsPS: 15, MarginPS: 5,
		Depths: baseDepths(),
	}
	if err := noBudget.Calibrate(); err == nil {
		t.Fatal("zero timing budget accepted")
	}
	subVth := &Spec{
		Codename: "sv", BusMHz: 100, MinRatio: 8, MaxTurboRatio: 36,
		VminMV: 100, VmaxMV: 150, Gamma: 1.7,
		Tech: timing.AlphaPower{Vth: 0.35, Alpha: 1.3}, SetupPS: 20, EpsPS: 15, MarginPS: 30,
		Depths: baseDepths(),
	}
	if err := subVth.Calibrate(); err == nil {
		t.Fatal("nominal voltage below Vth accepted")
	}
}

func TestCircuitMissingPathDepth(t *testing.T) {
	s, _ := SkyLake()
	delete(s.Depths, PathFMA)
	if _, err := s.Circuit(); err == nil {
		t.Fatal("missing path depth accepted")
	}
}

func TestControlPathMarked(t *testing.T) {
	s, _ := SkyLake()
	c, err := s.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	p, ok := c.PathByName(PathControl)
	if !ok || !p.Control {
		t.Fatal("control path missing or unmarked")
	}
	// imul must strictly dominate control so data faults appear before
	// crashes as the offset deepens (paper: a fault window exists).
	imul, _ := c.PathByName(PathIMul)
	if imul.Depth() <= p.Depth() {
		t.Fatal("imul not deeper than control path")
	}
}
