package cpu

import (
	"errors"
	"fmt"
	"testing"

	"plugvolt/internal/models"
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

// TestRunSkipsZeroProbabilityCoins holds run to refExec at the settled
// points where exactly one of an instruction's two probabilities is 0:
// Kaby Lake R's and Comet Lake's imul, AES and FMA paths just past their
// fault onsets, where the control path keeps its slack (crash 0), and
// their load and ALU paths past the crash onset (fault 0). A coin at
// probability 0 has bound 0 and must not be drawn, as Float64's p > 0
// guard drew none; a drawn coin would shift every later draw.
func TestRunSkipsZeroProbabilityCoins(t *testing.T) {
	const n = 2_000
	visited := map[string]int{}
	for _, name := range []string{"kabylaker", "cometlake"} {
		spec, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, class := range []Class{ClassIMul, ClassAES, ClassFMA, ClassLoad, ClassALU} {
			live, err := NewPlatform(spec, 13)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewPlatform(spec, 13)
			if err != nil {
				t.Fatal(err)
			}
			lc, rc := live.Core(0), ref.Core(0)
			offset, pFault, pCrash := 0, 0.0, 0.0
			for off := -1; off >= -600 && offset == 0; off-- {
				if pf, pc := lc.PredictProbabilities(class, off); (pf == 0) != (pc == 0) {
					offset, pFault, pCrash = off, pf, pc
				}
			}
			if offset == 0 {
				continue
			}
			for _, p := range []*Platform{live, ref} {
				if err := p.WriteOffsetViaMSR(0, offset, msr.PlaneCore); err != nil {
					t.Fatal(err)
				}
				if err := p.SettleCommanded(0); err != nil {
					t.Fatal(err)
				}
			}
			done, mask, err := lc.run(class, n)
			wantDone, wantFaulted, wantErr := 0, false, error(nil)
			for wantDone < n && !wantFaulted {
				if _, wantFaulted, wantErr = refExec(rc, class, 0); wantErr != nil {
					break
				}
				wantDone++
			}
			where := fmt.Sprintf("%s %s at %d mV (fault %g, crash %g)", name, class, offset, pFault, pCrash)
			if lc.op.pFault != pFault || lc.op.pCrash != pCrash {
				t.Fatalf("%s: the core runs at (fault %g, crash %g)", where, lc.op.pFault, lc.op.pCrash)
			}
			if done != wantDone || (mask != 0) != wantFaulted || err != wantErr || lc.Retired != rc.Retired {
				t.Fatalf("%s: run(%d) = (%d, %#x, %v), reference (%d, %v, %v)", where, n, done, mask, err, wantDone, wantFaulted, wantErr)
			}
			if got, want := live.Sim.Rand().Int63(), ref.Sim.Rand().Int63(); got != want {
				t.Fatalf("%s: next Sim.Rand() draw %d, reference %d", where, got, want)
			}
			if pCrash == 0 {
				visited["crash 0"]++
			} else {
				visited["fault 0"]++
			}
		}
	}
	if visited["crash 0"] == 0 || visited["fault 0"] == 0 {
		t.Fatalf("visited %v: the walk missed a kind of point", visited)
	}
}

// TestRunBatchMemoMatchesFresh drives twin platforms through undervolts
// and up-transitions, with batches at the settled low P-state, at the high
// P-state's rail before the PLL relocks, and at the settled high P-state,
// and through class switches. One runs RunBatch through the op memo; the
// twin clears the memo before every batch, so each of its batches
// evaluates Eq. 1 afresh. Results, errors, counters and the next
// simulator draw must agree.
func TestRunBatchMemoMatchesFresh(t *testing.T) {
	live, fresh := newSkyLake(t, 5), newSkyLake(t, 5)
	lc, fc := live.Core(0), fresh.Core(0)
	faults, crashes, relocking := 0, 0, 0
	both := func(step func(p *Platform) error) {
		t.Helper()
		for _, p := range []*Platform{live, fresh} {
			if err := step(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	// batches runs one batch per class on both twins and reports whether
	// they crashed (and were rebooted).
	batches := func(where string, classes ...Class) bool {
		t.Helper()
		for _, class := range classes {
			fc.op = opMemo{}
			got, gotErr := lc.RunBatch(class, 50_000)
			want, wantErr := fc.RunBatch(class, 50_000)
			if got != want || gotErr != wantErr || lc.Retired != fc.Retired || lc.Faulted != fc.Faulted {
				t.Fatalf("%s, %s: memo %+v, %v; fresh %+v, %v", where, class, got, gotErr, want, wantErr)
			}
			faults += got.Faults
			if errors.Is(gotErr, ErrCrashed) {
				crashes++
				live.Reboot()
				fresh.Reboot()
				return true
			}
		}
		return false
	}
	for off := 0; off >= -300; off -= 20 {
		where := fmt.Sprintf("%d mV", off)
		both(func(p *Platform) error { return p.SetRatioViaMSR(0, 20) })
		both(func(p *Platform) error { return p.WriteOffsetViaMSR(0, off, msr.PlaneCore) })
		both(func(p *Platform) error { return p.SettleCommanded(0) })
		if batches(where+" at ratio 20", ClassIMul, ClassIMul, ClassAES, ClassIMul) {
			continue
		}
		both(func(p *Platform) error { return p.SetRatioViaMSR(0, 36) })
		both(func(p *Platform) error {
			for !p.Core(0).VR.Settled() {
				p.Sim.RunFor(sim.Microsecond)
			}
			return nil
		})
		if lc.VR.Settled() && lc.Ratio() == 20 {
			relocking++
		}
		if batches(where+" relocking to 36", ClassIMul) {
			continue
		}
		both(func(p *Platform) error { return p.SettleCommanded(0) })
		batches(where+" at ratio 36", ClassIMul, ClassAES, ClassIMul)
	}
	if got, want := live.Sim.Rand().Int63(), fresh.Sim.Rand().Int63(); got != want {
		t.Fatalf("next Sim.Rand() draw %d, fresh twin %d", got, want)
	}
	if faults == 0 || crashes == 0 || relocking == 0 {
		t.Fatalf("walk too weak: %d faults, %d crashes, %d batches on a settled rail before the relock", faults, crashes, relocking)
	}
}
