package cpu

import (
	"errors"
	"testing"

	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
)

// refExec is execALUOp written against the public probability functions,
// evaluated afresh at every instruction: the behaviour the memo must keep.
func refExec(c *Core, class Class, exact uint64) (uint64, bool, error) {
	if c.Crashed() {
		return 0, false, ErrCrashed
	}
	if p := c.CrashProbability(); p > 0 && c.simr.Rand().Float64() < p {
		c.crashed = true
		return 0, false, ErrCrashed
	}
	c.Retired++
	if p := c.FaultProbability(class); p > 0 && c.simr.Rand().Float64() < p {
		c.Faulted++
		return exact ^ c.faultMask(), true, nil
	}
	return exact, false, nil
}

// TestOpMemoMatchesReference drives one platform through execALUOp and a
// twin through refExec across every change of the live operating point the
// memo is keyed on — a mailbox undervolt while the rail slews, an
// up-transition's rail ramp and PLL relock, a reboot, and instruction
// class switches — and requires identical results, counters and RNG
// streams, with the memo equal to the public probabilities at every
// instruction.
func TestOpMemoMatchesReference(t *testing.T) {
	live, ref := newSkyLake(t, 11), newSkyLake(t, 11)
	lc, rc := live.Core(0), ref.Core(0)

	// The shallowest offset whose settled imul fault probability is high
	// enough to fault within a few hundred instructions.
	offset := 0
	for off := -1; off >= -400; off-- {
		if pf, _ := lc.PredictProbabilities(ClassIMul, off); pf > 1e-3 {
			offset = off
			break
		}
	}
	if offset == 0 {
		t.Fatal("no fault window at the base ratio")
	}
	if _, pc := lc.PredictProbabilities(ClassIMul, offset); pc > 1e-6 {
		t.Fatalf("offset %d mV crashes at the base ratio (p=%g)", offset, pc)
	}
	undervolt := func(p *Platform) error { return p.WriteOffsetViaMSR(0, offset, msr.PlaneCore) }
	imul := []Class{ClassIMul}

	phases := []struct {
		name    string
		act     func(*Platform) error
		steps   int // 1 µs steps, two instructions each
		classes []Class
	}{
		{"mailbox undervolt while the rail slews", undervolt, 20 + 2*(-offset) + 20, imul},
		{"up-transition rail ramp and relock", func(p *Platform) error {
			return p.SetRatioViaMSR(0, p.Spec.MaxTurboRatio)
		}, 600, imul},
		{"deeper undervolt into the crash band", func(p *Platform) error {
			return p.WriteOffsetViaMSR(0, offset-150, msr.PlaneCore)
		}, 400, imul},
		{"reboot", func(p *Platform) error { p.Reboot(); return nil }, 50, imul},
		{"class switches under undervolt", func(p *Platform) error {
			if err := undervolt(p); err != nil {
				return err
			}
			p.SettleAll()
			return nil
		}, 200, []Class{ClassIMul, ClassAES, ClassALU, ClassFMA, ClassLoad}},
	}
	var faults, crashes, misses int
	ratios := map[uint8]bool{}
	for _, ph := range phases {
		if err := ph.act(live); err != nil {
			t.Fatal(err)
		}
		if err := ph.act(ref); err != nil {
			t.Fatal(err)
		}
		n := 0
		for s := 0; s < ph.steps; s++ {
			for k := 0; k < 2; k++ {
				class := ph.classes[n%len(ph.classes)]
				a, b := uint64(n)*0x9E3779B97F4A7C15|1, uint64(n)^0xD1B54A32D192ED03
				n++
				before := lc.op
				wasCrashed := lc.Crashed()
				got, gotF, gotErr := lc.execALUOp(class, a*b)
				want, wantF, wantErr := refExec(rc, class, a*b)
				if got != want || gotF != wantF || gotErr != wantErr {
					t.Fatalf("%s, instruction %d (%s): got (%#x, %v, %v), reference (%#x, %v, %v)",
						ph.name, n, class, got, gotF, gotErr, want, wantF, wantErr)
				}
				if lc.Retired != rc.Retired || lc.Faulted != rc.Faulted {
					t.Fatalf("%s, instruction %d: Retired/Faulted %d/%d, reference %d/%d",
						ph.name, n, lc.Retired, lc.Faulted, rc.Retired, rc.Faulted)
				}
				if gotF {
					faults++
				}
				if wasCrashed {
					continue // rejected before the memo is read
				}
				if errors.Is(gotErr, ErrCrashed) {
					crashes++
				}
				if lc.op != before {
					misses++
				}
				ratios[lc.op.ratio] = true
				if pc, pf := lc.CrashProbability(), lc.FaultProbability(class); lc.op.pCrash != pc || lc.op.pFault != pf {
					t.Fatalf("%s, instruction %d (%s) at %.2f GHz, %.4f V: memo (crash %g, fault %g), live (crash %g, fault %g)",
						ph.name, n, class, lc.FreqGHz(), lc.VoltageV(), lc.op.pCrash, lc.op.pFault, pc, pf)
				}
			}
			live.Sim.RunFor(sim.Microsecond)
			ref.Sim.RunFor(sim.Microsecond)
		}
		if got, want := live.Sim.Rand().Int63(), ref.Sim.Rand().Int63(); got != want {
			t.Fatalf("after %s: next Sim.Rand() draw %d, reference %d", ph.name, got, want)
		}
	}
	// The walk must have exercised what it claims to: faults, a crash, a
	// relock, and a memo that moved with the operating point.
	if faults == 0 || crashes == 0 || len(ratios) < 2 || misses < 100 {
		t.Fatalf("walk too weak: %d faults, %d crashes, %d frequencies, %d memo changes in %d retired",
			faults, crashes, len(ratios), misses, lc.Retired)
	}
}
