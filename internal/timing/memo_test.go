package timing

import (
	"math"
	"testing"
)

// TestUnitDelayMemoBitExact sweeps supply voltages from just above Vth to
// 1.5 V and requires the memoized delay to equal the direct alpha-power
// formula bit for bit, on both the miss and the hit path.
func TestUnitDelayMemoBitExact(t *testing.T) {
	c := testCircuit()
	for i := 0; i <= 5000; i++ {
		v := c.Tech.Vth + 0.0001 + float64(i)*(1.5-c.Tech.Vth)/5000
		want := c.Tech.Delay(v)
		miss := c.unitDelay(v)
		hit := c.unitDelay(v)
		if math.Float64bits(miss) != math.Float64bits(want) {
			t.Fatalf("v=%v: memo miss %v != direct %v", v, miss, want)
		}
		if math.Float64bits(hit) != math.Float64bits(want) {
			t.Fatalf("v=%v: memo hit %v != direct %v", v, hit, want)
		}
	}
}

// TestAnalyzeMemoBitExact checks the memo through the public API: Analyze
// with the cache warm must match a fresh circuit's cold evaluation exactly.
func TestAnalyzeMemoBitExact(t *testing.T) {
	warm := testCircuit()
	p := warm.Paths[0]
	// Warm the memo with a full sweep, then compare against cold circuits.
	for i := 0; i <= 200; i++ {
		v := 0.55 + float64(i)*0.003
		warm.Analyze(p, 3.2, v)
	}
	for i := 0; i <= 200; i++ {
		v := 0.55 + float64(i)*0.003
		got := warm.Analyze(p, 3.2, v)
		want := testCircuit().Analyze(p, 3.2, v)
		if math.Float64bits(got.SlackPS) != math.Float64bits(want.SlackPS) ||
			math.Float64bits(got.ArrivalPS) != math.Float64bits(want.ArrivalPS) {
			t.Fatalf("v=%v: warm Analyze %+v != cold %+v", v, got, want)
		}
	}
}

// TestFaultProbabilityMemoBitExact checks the erfc memo against the direct
// evaluation, including negative, zero, and positive slacks.
func TestFaultProbabilityMemoBitExact(t *testing.T) {
	c := testCircuit()
	for i := -500; i <= 500; i++ {
		a := Analysis{SlackPS: float64(i) * 0.37}
		want := 0.5 * math.Erfc(a.SlackPS/c.JitterSigmaPS/math.Sqrt2)
		miss := c.FaultProbability(a)
		hit := c.FaultProbability(a)
		if math.Float64bits(miss) != math.Float64bits(want) {
			t.Fatalf("slack=%v: memo miss %v != direct %v", a.SlackPS, miss, want)
		}
		if math.Float64bits(hit) != math.Float64bits(want) {
			t.Fatalf("slack=%v: memo hit %v != direct %v", a.SlackPS, hit, want)
		}
	}
}

// TestFaultProbabilityZeroSlack guards the zero-bit-pattern corner: slack
// +0.0 hashes to a key of 0, which must not read as an empty cache slot
// (the probability there is 0.5, not 0).
func TestFaultProbabilityZeroSlack(t *testing.T) {
	c := testCircuit()
	for i := 0; i < 2; i++ {
		if got := c.FaultProbability(Analysis{SlackPS: 0}); got != 0.5 {
			t.Fatalf("call %d: FaultProbability(slack=+0) = %v, want 0.5", i+1, got)
		}
	}
}

// TestPathByNameAfterAppend verifies the lazy name index notices appended
// paths instead of serving a stale table.
func TestPathByNameAfterAppend(t *testing.T) {
	c := testCircuit()
	if _, ok := c.PathByName(c.Paths[0].Name); !ok {
		t.Fatal("existing path not found")
	}
	c.Paths = append(c.Paths, Path{Name: "late", SrcDepth: 0.1, PropDepth: 0.4, SetupPS: 20})
	p, ok := c.PathByName("late")
	if !ok || p.Name != "late" {
		t.Fatalf("appended path not found after re-index: %+v, %v", p, ok)
	}
}

// TestCloneOwnsPrivateMemo verifies clones do not share delay-memo storage:
// warming one clone must not leak entries into another, and a clone taken
// from a warmed circuit starts with no memo of its own.
func TestCloneOwnsPrivateMemo(t *testing.T) {
	base := testCircuit()
	base.Prepare()
	a, b := base.Clone(), base.Clone()
	va, vb := 0.71, 0.93
	wantA, wantB := base.Tech.Delay(va), base.Tech.Delay(vb)
	if got := a.unitDelay(va); math.Float64bits(got) != math.Float64bits(wantA) {
		t.Fatalf("clone a: %v != %v", got, wantA)
	}
	if got := b.unitDelay(vb); math.Float64bits(got) != math.Float64bits(wantB) {
		t.Fatalf("clone b: %v != %v", got, wantB)
	}
	// a never computed vb and b never computed va; both must still be exact.
	if got := a.unitDelay(vb); math.Float64bits(got) != math.Float64bits(wantB) {
		t.Fatalf("clone a at vb: %v != %v", got, wantB)
	}
	if got := b.unitDelay(va); math.Float64bits(got) != math.Float64bits(wantA) {
		t.Fatalf("clone b at va: %v != %v", got, wantA)
	}

	// A clone of the warmed clone a: no memo until it evaluates, exact
	// results, and never the source's tables.
	slack := Analysis{SlackPS: -1.25}
	wantP := a.FaultProbability(slack)
	c := a.Clone()
	if c.memo != nil {
		t.Fatal("clone of a warmed circuit starts with a memo")
	}
	if got := c.unitDelay(va); math.Float64bits(got) != math.Float64bits(wantA) {
		t.Fatalf("clone of warm a at va: %v != %v", got, wantA)
	}
	if got := c.FaultProbability(slack); math.Float64bits(got) != math.Float64bits(wantP) {
		t.Fatalf("clone of warm a: FaultProbability %v != %v", got, wantP)
	}
	if c.memo == nil || c.memo == a.memo {
		t.Fatal("clone of a warmed circuit aliases the source's memo")
	}
}

// TestWarmAnalyzeZeroAlloc asserts that once the memo exists, Analyze plus
// FaultProbability allocate nothing.
func TestWarmAnalyzeZeroAlloc(t *testing.T) {
	c := testCircuit()
	p := c.Paths[0]
	c.FaultProbability(c.Analyze(p, 3.2, 0.8)) // allocates the memo
	allocs := testing.AllocsPerRun(1000, func() {
		c.FaultProbability(c.Analyze(p, 3.2, 0.8))
	})
	if allocs != 0 {
		t.Fatalf("warm Analyze+FaultProbability allocated %.1f per op, want 0", allocs)
	}
}
