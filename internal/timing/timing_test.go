package timing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testTech() AlphaPower {
	return AlphaPower{K: 157.0, Vth: 0.35, Alpha: 1.3}
}

func testCircuit() *Circuit {
	return &Circuit{
		Tech:          testTech(),
		EpsPS:         15,
		JitterSigmaPS: 4,
		Paths: []Path{
			{Name: "imul", SrcDepth: 0.15, PropDepth: 0.85, SetupPS: 20},
			{Name: "alu", SrcDepth: 0.15, PropDepth: 0.45, SetupPS: 20},
			{Name: "control", SrcDepth: 0.15, PropDepth: 0.95, SetupPS: 20, Control: true},
		},
	}
}

func TestDelayMonotoneDecreasingInVoltage(t *testing.T) {
	tech := testTech()
	prev := math.Inf(1)
	for v := 0.40; v <= 1.30; v += 0.01 {
		d := tech.Delay(v)
		if d >= prev {
			t.Fatalf("delay not strictly decreasing at V=%.2f: %v >= %v", v, d, prev)
		}
		prev = d
	}
}

func TestDelayBelowThresholdInfinite(t *testing.T) {
	tech := testTech()
	if !math.IsInf(tech.Delay(tech.Vth), 1) {
		t.Fatal("delay at Vth not +Inf")
	}
	if !math.IsInf(tech.Delay(0.1), 1) {
		t.Fatal("delay below Vth not +Inf")
	}
}

func TestTechValidate(t *testing.T) {
	good := testTech()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid tech rejected: %v", err)
	}
	bad := []AlphaPower{
		{K: 0, Vth: 0.35, Alpha: 1.3},
		{K: -1, Vth: 0.35, Alpha: 1.3},
		{K: 100, Vth: 0, Alpha: 1.3},
		{K: 100, Vth: 2.0, Alpha: 1.3},
		{K: 100, Vth: 0.35, Alpha: 0.5},
		{K: 100, Vth: 0.35, Alpha: 2.5},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad tech %d accepted", i)
		}
	}
}

func TestAnalyzeEquationOne(t *testing.T) {
	c := testCircuit()
	p := c.Paths[0]
	a := c.Analyze(p, 3.2, 1.12)
	wantTclk := 1000.0 / 3.2
	if math.Abs(a.TclkPS-wantTclk) > 1e-9 {
		t.Fatalf("Tclk=%v want %v", a.TclkPS, wantTclk)
	}
	wantArrival := p.Depth() * c.Tech.Delay(1.12)
	if math.Abs(a.ArrivalPS-wantArrival) > 1e-9 {
		t.Fatalf("arrival=%v want %v", a.ArrivalPS, wantArrival)
	}
	wantRequired := wantTclk - p.SetupPS - c.EpsPS
	if math.Abs(a.RequiredPS-wantRequired) > 1e-9 {
		t.Fatalf("required=%v want %v", a.RequiredPS, wantRequired)
	}
	if math.Abs(a.SlackPS-(wantRequired-wantArrival)) > 1e-9 {
		t.Fatalf("slack=%v", a.SlackPS)
	}
}

func TestSlackMonotonicity(t *testing.T) {
	c := testCircuit()
	p := c.Paths[0]
	// Slack increases with voltage at fixed frequency.
	prev := math.Inf(-1)
	for v := 0.45; v <= 1.3; v += 0.05 {
		s := c.Analyze(p, 2.0, v).SlackPS
		if s <= prev {
			t.Fatalf("slack not increasing in V at V=%.2f", v)
		}
		prev = s
	}
	// Slack decreases with frequency at fixed voltage.
	prev = math.Inf(1)
	for f := 0.8; f <= 4.0; f += 0.2 {
		s := c.Analyze(p, f, 1.1).SlackPS
		if s >= prev {
			t.Fatalf("slack not decreasing in f at f=%.1f", f)
		}
		prev = s
	}
}

func TestFaultProbabilityBounds(t *testing.T) {
	c := testCircuit()
	p := c.Paths[0]
	// Deep positive slack: probability ~0.
	a := c.Analyze(p, 1.0, 1.2)
	if pr := c.FaultProbability(a); pr > 1e-6 {
		t.Fatalf("fault prob at large slack = %v", pr)
	}
	// Deep negative slack: probability ~1.
	a = c.Analyze(p, 4.0, 0.45)
	if pr := c.FaultProbability(a); pr < 1-1e-6 {
		t.Fatalf("fault prob at deeply negative slack = %v", pr)
	}
	// Zero slack: exactly 0.5 under the Gaussian model.
	a.SlackPS = 0
	if pr := c.FaultProbability(a); math.Abs(pr-0.5) > 1e-12 {
		t.Fatalf("fault prob at zero slack = %v, want 0.5", pr)
	}
}

func TestFaultProbabilityHardThreshold(t *testing.T) {
	c := testCircuit()
	c.JitterSigmaPS = 0
	a := Analysis{SlackPS: 0.001}
	if c.FaultProbability(a) != 0 {
		t.Fatal("positive slack faulted under hard threshold")
	}
	a.SlackPS = -0.001
	if c.FaultProbability(a) != 1 {
		t.Fatal("negative slack did not fault under hard threshold")
	}
}

func TestCircuitValidate(t *testing.T) {
	c := testCircuit()
	if err := c.Validate(); err != nil {
		t.Fatalf("valid circuit rejected: %v", err)
	}
	dup := testCircuit()
	dup.Paths = append(dup.Paths, Path{Name: "imul", SrcDepth: 1, PropDepth: 1})
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate path accepted")
	}
	anon := testCircuit()
	anon.Paths[0].Name = ""
	if err := anon.Validate(); err == nil {
		t.Fatal("empty path name accepted")
	}
	neg := testCircuit()
	neg.EpsPS = -1
	if err := neg.Validate(); err == nil {
		t.Fatal("negative eps accepted")
	}
	flat := testCircuit()
	flat.Paths[1].SrcDepth, flat.Paths[1].PropDepth = 0, 0
	if err := flat.Validate(); err == nil {
		t.Fatal("zero-depth path accepted")
	}
	badSetup := testCircuit()
	badSetup.Paths[2].SetupPS = -5
	if err := badSetup.Validate(); err == nil {
		t.Fatal("negative setup accepted")
	}
}

func TestPathByName(t *testing.T) {
	c := testCircuit()
	p, ok := c.PathByName("alu")
	if !ok || p.Name != "alu" {
		t.Fatal("PathByName failed for existing path")
	}
	if _, ok := c.PathByName("nope"); ok {
		t.Fatal("PathByName found nonexistent path")
	}
}

// TestPathByNameAfterAppend verifies a lookup sees paths appended after an
// earlier lookup.
func TestPathByNameAfterAppend(t *testing.T) {
	c := testCircuit()
	if _, ok := c.PathByName(c.Paths[0].Name); !ok {
		t.Fatal("existing path not found")
	}
	c.Paths = append(c.Paths, Path{Name: "late", SrcDepth: 0.1, PropDepth: 0.4, SetupPS: 20})
	p, ok := c.PathByName("late")
	if !ok || p.Name != "late" {
		t.Fatalf("appended path not found: %+v, %v", p, ok)
	}
}

// TestFaultProbabilityZeroSlack pins the Gaussian model's midpoint: a path
// with zero slack faults with probability exactly 0.5.
func TestFaultProbabilityZeroSlack(t *testing.T) {
	c := testCircuit()
	if got := c.FaultProbability(Analysis{SlackPS: 0}); got != 0.5 {
		t.Fatalf("FaultProbability(slack=+0) = %v, want 0.5", got)
	}
}

// TestAnalyzeZeroAlloc asserts that Analyze, AnalyzePair and
// FaultProbability allocate nothing, from the first call on.
func TestAnalyzeZeroAlloc(t *testing.T) {
	c := testCircuit()
	p, q := c.Paths[0], c.Paths[2]
	allocs := testing.AllocsPerRun(1000, func() {
		c.FaultProbability(c.Analyze(p, 3.2, 0.8))
		a, b := c.AnalyzePair(p, q, 3.2, 0.8)
		c.FaultProbability(a)
		c.FaultProbability(b)
	})
	if allocs != 0 {
		t.Fatalf("Analyze+AnalyzePair+FaultProbability allocated %.1f per op, want 0", allocs)
	}
}

// Property: fault probability is monotone nonincreasing in voltage — more
// supply can never make a path less reliable in this model.
func TestQuickFaultProbMonotoneInVoltage(t *testing.T) {
	c := testCircuit()
	p := c.Paths[0]
	f := func(rawF, rawV uint16) bool {
		freq := 0.8 + float64(rawF%33)/10.0 // 0.8..4.0 GHz
		v1 := 0.40 + float64(rawV%80)/100.0 // 0.40..1.19
		v2 := v1 + 0.05
		p1 := c.FaultProbability(c.Analyze(p, freq, v1))
		p2 := c.FaultProbability(c.Analyze(p, freq, v2))
		return p2 <= p1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Eq. 1 ordering — for a fixed operating point, a strictly deeper
// path never has more slack.
func TestQuickDeeperPathNoMoreSlack(t *testing.T) {
	c := testCircuit()
	f := func(d1, d2 uint8, rawF, rawV uint16) bool {
		depthA := 0.1 + float64(d1)/100.0
		depthB := depthA + 0.1 + float64(d2)/100.0
		freq := 0.8 + float64(rawF%33)/10.0
		v := 0.45 + float64(rawV%75)/100.0
		pa := Path{Name: "a", PropDepth: depthA, SetupPS: 20}
		pb := Path{Name: "b", PropDepth: depthB, SetupPS: 20}
		return c.Analyze(pb, freq, v).SlackPS <= c.Analyze(pa, freq, v).SlackPS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	c := testCircuit()
	p := c.Paths[0]
	for i := 0; i < b.N; i++ {
		_ = c.Analyze(p, 3.2, 1.0)
	}
}
