package cpu

import (
	"testing"

	"plugvolt/internal/models"
	"plugvolt/internal/msr"
)

// imulOneByOne is what IMuls(n) replaces: up to n sequential IMul calls
// that stop after the first faulted one or at a crash. It fails t when a
// product is corrupted without a fault or faulted without corruption.
func imulOneByOne(t *testing.T, c *Core, n int) (done int, faulted bool, err error) {
	t.Helper()
	for ; done < n; done++ {
		a, b := uint64(done)*0x9E3779B97F4A7C15|1, uint64(done)^0xD1B54A32D192ED03
		got, f, err := c.IMul(a, b)
		if err != nil {
			return done, false, err
		}
		if f == (got == a*b) {
			t.Fatalf("imul %d: product %#x of %#x, faulted %v", done, got, a*b, f)
		}
		if f {
			return done + 1, true, nil
		}
	}
	return done, false, nil
}

// TestIMulsMatchesIMul holds the run to the instruction it replaces. Twin
// platforms of every model sit at one operating point; one runs IMuls(n),
// the other makes the n sequential IMul calls, and after every run the
// results, Retired, Faulted, the op memo and the next simulator draw must
// agree. The walk covers a settled nominal point (Sky Lake's draws coins at
// tiny probabilities; Kaby Lake R's and Comet Lake's are exactly 0), a
// fault band, a crash band and the crashed core, each with runs of 0, 1,
// 762 and 100,000.
func TestIMulsMatchesIMul(t *testing.T) {
	sizes := []int{0, 1, 762, 100_000}
	for _, name := range []string{"skylake", "kabylaker", "cometlake"} {
		spec, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlatform(spec, 9)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewPlatform(spec, 9)
		if err != nil {
			t.Fatal(err)
		}
		c, rc := p.Core(0), ref.Core(0)
		undervolt := func(offset int) {
			t.Helper()
			for _, q := range []*Platform{p, ref} {
				if err := q.WriteOffsetViaMSR(0, offset, msr.PlaneCore); err != nil {
					t.Fatal(err)
				}
				if err := q.SettleCommanded(0); err != nil {
					t.Fatal(err)
				}
			}
		}
		faults, crashes := 0, 0
		// compare runs n on both twins and returns whether the run crashed.
		compare := func(phase string, n int) bool {
			t.Helper()
			done, faulted, err := c.IMuls(n)
			wantDone, wantFaulted, wantErr := imulOneByOne(t, rc, n)
			if done != wantDone || faulted != wantFaulted || err != wantErr {
				t.Fatalf("%s, %s, IMuls(%d) = (%d, %v, %v), %d IMul calls give (%d, %v, %v)",
					name, phase, n, done, faulted, err, n, wantDone, wantFaulted, wantErr)
			}
			if c.Retired != rc.Retired || c.Faulted != rc.Faulted || c.op != rc.op {
				t.Fatalf("%s, %s, IMuls(%d): retired %d faulted %d memo %+v, reference %d, %d, %+v",
					name, phase, n, c.Retired, c.Faulted, c.op, rc.Retired, rc.Faulted, rc.op)
			}
			if got, want := p.Sim.Rand().Int63(), ref.Sim.Rand().Int63(); got != want {
				t.Fatalf("%s, %s, IMuls(%d): next Sim.Rand() draw %d, reference %d", name, phase, n, got, want)
			}
			if faulted {
				faults++
			}
			return err != nil
		}

		for round := 0; round < 3; round++ {
			for _, n := range sizes {
				compare("nominal", n)
			}
		}
		if c.Retired != 3*(1+762+100_000) || c.Faulted != 0 {
			t.Fatalf("%s: nominal runs retired %d and faulted %d", name, c.Retired, c.Faulted)
		}

		undervolt(offsetWhere(t, c, 3e-4, func(pf, _ float64) float64 { return pf }))
		for round := 0; round < 10; round++ {
			for _, n := range sizes {
				if compare("fault band", n) {
					t.Fatalf("%s: crash in the fault band", name)
				}
			}
		}
		if faults < 5 {
			t.Fatalf("%s: %d faults in the fault band", name, faults)
		}

		undervolt(offsetWhere(t, c, 1e-4, func(_, pc float64) float64 { return pc }))
		for run := 0; crashes == 0; run++ {
			if run == 1_000_000 {
				t.Fatalf("%s: the crash band never crashed", name)
			}
			if compare("crash band", sizes[run%len(sizes)]) {
				crashes++
			}
		}
		for _, n := range sizes {
			compare("crashed core", n)
		}
	}
}

// TestIMulsAllocatesNothing pins the warm cost of a run: none of its draws,
// faults or crash allocate.
func TestIMulsAllocatesNothing(t *testing.T) {
	p := newSkyLake(t, 4)
	c := p.Core(0)
	if err := p.WriteOffsetViaMSR(0, offsetWhere(t, c, 1e-3, func(pf, _ float64) float64 { return pf }), msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	if _, _, err := c.IMuls(762); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, _, err := c.IMuls(762); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("a warmed IMuls(762) allocated %.1f objects, want 0", a)
	}
	if c.Faulted == 0 {
		t.Fatal("no run faulted; the faulting path went unmeasured")
	}
}
