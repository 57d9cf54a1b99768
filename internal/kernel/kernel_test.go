package kernel

import (
	"errors"
	"testing"

	"plugvolt/internal/cpu"
	"plugvolt/internal/models"
	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
	"plugvolt/internal/telemetry/span"
)

func testKernel(t *testing.T) (*cpu.Platform, *Kernel) {
	t.Helper()
	spec, err := models.SkyLake()
	if err != nil {
		t.Fatal(err)
	}
	p, err := cpu.NewPlatform(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p, New(p.Sim, p)
}

func TestModuleLoadUnload(t *testing.T) {
	_, k := testKernel(t)
	inited, exited := false, false
	m := &Module{
		Name: "plug_your_volt",
		Init: func(*Kernel) error { inited = true; return nil },
		Exit: func(*Kernel) { exited = true },
	}
	if err := k.Load(m); err != nil {
		t.Fatal(err)
	}
	if !inited {
		t.Fatal("Init not called")
	}
	if !k.Loaded("plug_your_volt") {
		t.Fatal("module not reported loaded")
	}
	if err := k.Load(m); err == nil {
		t.Fatal("double load accepted")
	}
	if err := k.Unload("plug_your_volt"); err != nil {
		t.Fatal(err)
	}
	if !exited {
		t.Fatal("Exit not called")
	}
	if k.Loaded("plug_your_volt") {
		t.Fatal("module still reported loaded")
	}
	if err := k.Unload("plug_your_volt"); err == nil {
		t.Fatal("double unload accepted")
	}
}

func TestModuleInitFailureAbortsLoad(t *testing.T) {
	_, k := testKernel(t)
	m := &Module{Name: "broken", Init: func(*Kernel) error { return errors.New("boom") }}
	if err := k.Load(m); err == nil {
		t.Fatal("failing init accepted")
	}
	if k.Loaded("broken") {
		t.Fatal("failed module registered")
	}
	if err := k.Load(&Module{}); err == nil {
		t.Fatal("anonymous module accepted")
	}
	if err := k.Load(nil); err == nil {
		t.Fatal("nil module accepted")
	}
}

func TestKThreadTicksAndCharges(t *testing.T) {
	p, k := testKernel(t)
	var calls int
	th, err := k.StartKThread("poller", 0, 1*sim.Millisecond, func(t *KThread) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	p.Sim.RunFor(10*sim.Millisecond + sim.Microsecond)
	th.Stop()
	if calls != 10 || th.Ticks != 10 {
		t.Fatalf("ticks = %d / calls = %d", th.Ticks, calls)
	}
	wantStolen := 10 * k.Costs.KthreadWake
	if got := k.StolenTime(0); got != wantStolen {
		t.Fatalf("stolen = %v, want %v", got, wantStolen)
	}
	if th.Busy != wantStolen {
		t.Fatalf("thread busy = %v", th.Busy)
	}
	// Other cores untouched.
	if k.StolenTime(1) != 0 {
		t.Fatal("stolen time leaked to other core")
	}
	p.Sim.RunFor(5 * sim.Millisecond)
	if th.Ticks != 10 {
		t.Fatal("kthread ticked after Stop")
	}
}

func TestKThreadValidation(t *testing.T) {
	_, k := testKernel(t)
	if _, err := k.StartKThread("x", -1, sim.Millisecond, func(*KThread) {}); err == nil {
		t.Fatal("negative core accepted")
	}
	if _, err := k.StartKThread("x", 99, sim.Millisecond, func(*KThread) {}); err == nil {
		t.Fatal("bogus core accepted")
	}
	if _, err := k.StartKThread("x", 0, 0, func(*KThread) {}); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestKThreadMSRAccessCostsAndCounters(t *testing.T) {
	p, k := testKernel(t)
	var readVal uint64
	th, err := k.StartKThread("poller", 0, 1*sim.Millisecond, func(t *KThread) {
		v, err := t.ReadMSR(1, msr.IA32PerfStatus)
		if err != nil {
			panic(err)
		}
		readVal = v
		_ = t.WriteMSR(1, msr.OCMailbox, msr.EncodeVoltageOffset(0, msr.PlaneCore))
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Sim.RunFor(3*sim.Millisecond + sim.Microsecond)
	th.Stop()
	if k.MSRReads != 3 || k.MSRWrites != 3 {
		t.Fatalf("MSR ops: %d reads, %d writes", k.MSRReads, k.MSRWrites)
	}
	want := 3 * (k.Costs.KthreadWake + k.Costs.Rdmsr + k.Costs.Wrmsr)
	if got := k.StolenTime(0); got != want {
		t.Fatalf("stolen = %v, want %v", got, want)
	}
	ratio, _ := msr.DecodePerfStatus(readVal)
	if ratio != p.Spec.BaseRatio {
		t.Fatalf("kthread read ratio %d", ratio)
	}
}

// An empty telemetry Set, which SetTelemetry(&telemetry.Set{}) and the
// benchmark's bare machine install, carries no tracer, so kthread ticks and
// MSR traffic must skip the span path entirely: no allocation and no
// msrAttrs cache. The traced twin builds the cache, so the check is not
// vacuous, and once its small buffer is full it allocates nothing either.
func TestEmptyTelemetrySetSkipsSpans(t *testing.T) {
	for _, tc := range []struct {
		name   string
		traced bool
	}{{"empty set", false}, {"tracer", true}} {
		t.Run(tc.name, func(t *testing.T) {
			p, k := testKernel(t)
			tel := &telemetry.Set{}
			if tc.traced {
				tel.Trace = span.NewTracer(span.Clock(p.Sim.Now), 1, 8)
				tel.Trace.Keep()
			}
			k.SetTelemetry(tel)
			k.SetEnergyPrice(p.Energy.PriceW)
			const period = 100 * sim.Microsecond
			th, err := k.StartKThread("poller", 0, period, func(t *KThread) {
				for core := 0; core < p.NumCores(); core++ {
					if _, err := t.ReadMSR(core, msr.IA32PerfStatus); err != nil {
						panic(err)
					}
					if _, err := t.ReadMSR(core, msr.OCMailbox); err != nil {
						panic(err)
					}
				}
				if err := t.WriteMSR(1, msr.OCMailbox, msr.EncodeVoltageOffset(0, msr.PlaneCore)); err != nil {
					panic(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			p.Sim.RunFor(10 * period) // fills the traced twin's 8-span buffer
			if allocs := testing.AllocsPerRun(100, func() { p.Sim.RunFor(period) }); allocs != 0 {
				t.Errorf("a tick of MSR traffic allocates %.1f times, want 0", allocs)
			}
			if built := th.msrAttrs != nil; built != tc.traced {
				t.Errorf("msrAttrs cache built = %v, want %v", built, tc.traced)
			}
			if tc.traced && tel.Trace.Dropped() == 0 {
				t.Error("traced twin never filled its span buffer; steady state not reached")
			}
		})
	}
}

func TestDirectMSRPaths(t *testing.T) {
	p, k := testKernel(t)
	v, err := k.ReadMSRDirect(2, msr.IA32PerfStatus)
	if err != nil {
		t.Fatal(err)
	}
	ratio, _ := msr.DecodePerfStatus(v)
	if ratio != p.Spec.BaseRatio {
		t.Fatalf("direct read ratio %d", ratio)
	}
	if got := k.StolenTime(2); got != k.Costs.Rdmsr {
		t.Fatalf("direct path stolen = %v", got)
	}
}

func TestStolenTimeResetAndBounds(t *testing.T) {
	_, k := testKernel(t)
	_, _ = k.ReadMSRDirect(0, msr.IA32PerfStatus)
	if k.StolenTime(0) == 0 {
		t.Fatal("no stolen time recorded")
	}
	k.ResetStolenTime()
	if k.StolenTime(0) != 0 {
		t.Fatal("reset did not clear")
	}
	if k.StolenTime(-1) != 0 || k.StolenTime(99) != 0 {
		t.Fatal("out-of-range core returned nonzero")
	}
}

func TestOverheadFractionMatchesCostModel(t *testing.T) {
	// A poller reading 2 MSRs on each of 4 cores every 10 ms should steal
	// (wake + 8*rdmsr) / 10 ms of one core — well under 0.1%, consistent
	// with the paper's 0.28% end-to-end overhead once victim-side cache
	// effects are included.
	p, k := testKernel(t)
	th, err := k.StartKThread("guard", 0, 10*sim.Millisecond, func(t *KThread) {
		for core := 0; core < 4; core++ {
			_, _ = t.ReadMSR(core, msr.IA32PerfStatus)
			_, _ = t.ReadMSR(core, msr.OCMailbox)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	window := 1 * sim.Second
	p.Sim.RunFor(window + sim.Microsecond)
	th.Stop()
	frac := float64(k.StolenTime(0)) / float64(window)
	perTick := k.Costs.KthreadWake + 8*k.Costs.Rdmsr
	want := float64(perTick) / float64(10*sim.Millisecond)
	if frac < want*0.95 || frac > want*1.05 {
		t.Fatalf("overhead fraction %v, want ~%v", frac, want)
	}
	if frac > 0.001 {
		t.Fatalf("polling overhead %v implausibly high", frac)
	}
}

func TestKernelAccessors(t *testing.T) {
	p, k := testKernel(t)
	if k.Sim() != p.Sim {
		t.Fatal("Sim() mismatch")
	}
	if k.Machine().NumCores() != 4 {
		t.Fatal("Machine() mismatch")
	}
}
