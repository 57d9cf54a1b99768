package cpu

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"plugvolt/internal/models"
	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
)

func newSkyLake(t *testing.T, seed int64) *Platform {
	t.Helper()
	spec, err := models.SkyLake()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPlatformValidation(t *testing.T) {
	if _, err := NewPlatform(nil, 1); err == nil {
		t.Fatal("nil spec accepted")
	}
	raw := &models.Spec{Codename: "raw"}
	if _, err := NewPlatform(raw, 1); err == nil {
		t.Fatal("uncalibrated spec accepted")
	}
}

func TestPlatformBootState(t *testing.T) {
	p := newSkyLake(t, 1)
	if p.NumCores() != 4 {
		t.Fatalf("cores = %d", p.NumCores())
	}
	for i, c := range p.Cores() {
		if c.Ratio() != p.Spec.BaseRatio {
			t.Errorf("core %d boot ratio %d", i, c.Ratio())
		}
		wantV := p.Spec.NominalMV(p.Spec.BaseRatio) / 1000
		if math.Abs(c.VoltageV()-wantV) > 1e-9 {
			t.Errorf("core %d boot voltage %v, want %v", i, c.VoltageV(), wantV)
		}
		if c.Crashed() {
			t.Errorf("core %d crashed at boot", i)
		}
		if c.OffsetMV() != 0 {
			t.Errorf("core %d boot offset %d", i, c.OffsetMV())
		}
	}
	if p.Crashed() {
		t.Fatal("platform crashed at boot")
	}
}

func TestPerfStatusReflectsLiveState(t *testing.T) {
	p := newSkyLake(t, 1)
	c := p.Core(0)
	v, err := c.MSRs.Read(msr.IA32PerfStatus)
	if err != nil {
		t.Fatal(err)
	}
	ratio, volt := msr.DecodePerfStatus(v)
	if ratio != p.Spec.BaseRatio {
		t.Fatalf("PERF_STATUS ratio %d", ratio)
	}
	wantV := p.Spec.NominalMV(p.Spec.BaseRatio) / 1000
	if math.Abs(volt-wantV) > msr.VoltageUnit {
		t.Fatalf("PERF_STATUS voltage %v want %v", volt, wantV)
	}
}

func TestPerfCtlChangesFrequencyAndVoltage(t *testing.T) {
	p := newSkyLake(t, 1)
	c := p.Core(0)
	if err := p.SetRatioViaMSR(0, 10); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	if c.Ratio() != 10 {
		t.Fatalf("ratio after PERF_CTL write: %d", c.Ratio())
	}
	wantV := p.Spec.NominalMV(10) / 1000
	if math.Abs(c.VoltageV()-wantV) > 1e-9 {
		t.Fatalf("voltage after P-state change %v, want %v", c.VoltageV(), wantV)
	}
}

func TestPerfCtlOutOfRangeFaults(t *testing.T) {
	p := newSkyLake(t, 1)
	if err := p.SetRatioViaMSR(0, 99); err == nil {
		t.Fatal("out-of-range ratio accepted")
	}
	var gp *msr.GPFault
	if err := p.SetRatioViaMSR(0, 2); !errors.As(err, &gp) {
		t.Fatalf("error type %T", err)
	}
}

func TestOCMailboxAppliesOffset(t *testing.T) {
	p := newSkyLake(t, 1)
	c := p.Core(0)
	if err := p.WriteOffsetViaMSR(0, -100, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	if got := c.OffsetMV(); got != -100 {
		t.Fatalf("applied offset %d", got)
	}
	wantV := (p.Spec.NominalMV(p.Spec.BaseRatio) - 100) / 1000
	if math.Abs(c.VoltageV()-wantV) > 1.5e-3 { // mailbox quantizes to ~1 mV
		t.Fatalf("undervolted rail %v, want ~%v", c.VoltageV(), wantV)
	}
	// Stored mailbox value has busy bit cleared, offset intact.
	raw, err := c.MSRs.Read(msr.OCMailbox)
	if err != nil {
		t.Fatal(err)
	}
	if raw&(1<<63) != 0 {
		t.Fatal("busy bit not cleared after command")
	}
	if d := msr.DecodeVoltageOffset(raw); d.OffsetMV != -100 {
		t.Fatalf("mailbox readback offset %d", d.OffsetMV)
	}
}

func TestOCMailboxNonCorePlaneDoesNotMoveRail(t *testing.T) {
	p := newSkyLake(t, 1)
	c := p.Core(0)
	before := c.VoltageV()
	if err := p.WriteOffsetViaMSR(0, -150, msr.PlaneGPU); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	if c.VoltageV() != before {
		t.Fatal("GPU-plane offset moved the core rail")
	}
	if got := c.PlaneOffsetMV(msr.PlaneGPU); got < -151 || got > -148 {
		// Algorithm 1's truncating mV->units conversion loses <2 mV.
		t.Fatalf("GPU plane offset %d", got)
	}
	if c.PlaneOffsetMV(msr.Plane(7)) != 0 {
		t.Fatal("invalid plane lookup nonzero")
	}
}

func TestOCMailboxWithoutBusyBitIgnored(t *testing.T) {
	p := newSkyLake(t, 1)
	c := p.Core(0)
	cmd := msr.EncodeVoltageOffset(-100, msr.PlaneCore) &^ (1 << 63)
	if err := c.MSRs.Write(msr.OCMailbox, cmd); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	if c.OffsetMV() != 0 {
		t.Fatal("command without busy bit applied")
	}
}

func TestOCMailboxInvalidPlaneFaults(t *testing.T) {
	p := newSkyLake(t, 1)
	c := p.Core(0)
	cmd := msr.EncodeVoltageOffset(-10, msr.Plane(6))
	if err := c.MSRs.Write(msr.OCMailbox, cmd); err == nil {
		t.Fatal("invalid plane accepted")
	}
}

func TestOCMailboxReadCommand(t *testing.T) {
	p := newSkyLake(t, 1)
	c := p.Core(0)
	if err := p.WriteOffsetViaMSR(0, -80, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	// Issue a read command (bits 39:32 = 0x10) for the core plane.
	readCmd := uint64(1)<<63 | uint64(0x10)<<32
	if err := c.MSRs.Write(msr.OCMailbox, readCmd); err != nil {
		t.Fatal(err)
	}
	v, err := c.MSRs.Read(msr.OCMailbox)
	if err != nil {
		t.Fatal(err)
	}
	if d := msr.DecodeVoltageOffset(v); d.OffsetMV < -81 || d.OffsetMV > -78 {
		// One pass of Algorithm 1 quantization: applied offset is -79 mV.
		t.Fatalf("read command returned offset %d, want ~-80", d.OffsetMV)
	}
}

func TestNoFaultsAtNominal(t *testing.T) {
	p := newSkyLake(t, 42)
	c := p.Core(0)
	res, err := c.RunBatch(ClassIMul, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != 0 {
		t.Fatalf("%d faults at stock settings", res.Faults)
	}
	if res.Crashed {
		t.Fatal("crash at stock settings")
	}
	if res.Executed != 1_000_000 {
		t.Fatalf("executed %d", res.Executed)
	}
	// 1M imuls at 1 CPI, 3.2 GHz -> 312.5 us.
	want := sim.Duration(1e6 * c.PLL.PeriodPS())
	if res.Elapsed != want {
		t.Fatalf("elapsed %v, want %v", res.Elapsed, want)
	}
}

func TestDeepUndervoltFaultsIMul(t *testing.T) {
	p := newSkyLake(t, 42)
	c := p.Core(0)
	// Push well past onset but short of the control-path crash boundary:
	// find an offset where imul slack < 0 but control slack is comfortably
	// positive.
	offset := findFaultWindow(t, p)
	if err := p.WriteOffsetViaMSR(0, offset, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	res, err := c.RunBatch(ClassIMul, 1_000_000)
	if err != nil {
		t.Fatalf("unexpected crash at offset %d: %v", offset, err)
	}
	if res.Faults == 0 {
		t.Fatalf("no faults at offset %d (imul fault probability %g)", offset, c.FaultProbability(ClassIMul))
	}
}

// findFaultWindow locates a negative offset where the imul path faults
// at appreciable probability but the control path is still ~safe.
func findFaultWindow(t *testing.T, p *Platform) int {
	t.Helper()
	c := p.Core(0)
	for off := -1; off >= -400; off-- {
		if err := p.WriteOffsetViaMSR(0, off, msr.PlaneCore); err != nil {
			t.Fatal(err)
		}
		p.SettleAll()
		if c.FaultProbability(ClassIMul) > 1e-4 && c.CrashProbability() < 1e-9 {
			// reset before handing back
			if err := p.WriteOffsetViaMSR(0, off, msr.PlaneCore); err != nil {
				t.Fatal(err)
			}
			return off
		}
		if c.CrashProbability() >= 1e-9 {
			break
		}
	}
	t.Fatal("no fault window found — model miscalibrated")
	return 0
}

func TestCatastrophicUndervoltCrashes(t *testing.T) {
	p := newSkyLake(t, 7)
	c := p.Core(0)
	if err := p.WriteOffsetViaMSR(0, -500, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	_, err := c.RunBatch(ClassIMul, 1_000_000)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("expected crash, got %v", err)
	}
	if !c.Crashed() || !p.Crashed() {
		t.Fatal("crash flags not set")
	}
	// Execution on a crashed core keeps failing.
	if _, _, err := c.IMul(3, 5); !errors.Is(err, ErrCrashed) {
		t.Fatal("crashed core still executes")
	}
	if _, err := c.RunBatch(ClassALU, 10); !errors.Is(err, ErrCrashed) {
		t.Fatal("crashed core still batch-executes")
	}
}

func TestRebootRecovers(t *testing.T) {
	p := newSkyLake(t, 7)
	c := p.Core(0)
	if err := p.WriteOffsetViaMSR(0, -500, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	_, _ = c.RunBatch(ClassIMul, 1_000_000)
	if !p.Crashed() {
		t.Fatal("precondition: not crashed")
	}
	before := p.Sim.Now()
	p.Reboot()
	if p.Crashed() {
		t.Fatal("still crashed after reboot")
	}
	if p.Reboots != 1 {
		t.Fatalf("Reboots = %d", p.Reboots)
	}
	if p.Sim.Now()-before != p.RebootTime {
		t.Fatalf("reboot consumed %v", p.Sim.Now()-before)
	}
	c = p.Core(0)
	if c.OffsetMV() != 0 || c.Ratio() != p.Spec.BaseRatio {
		t.Fatal("reboot did not restore stock operating point")
	}
	res, err := c.RunBatch(ClassIMul, 100_000)
	if err != nil || res.Faults != 0 {
		t.Fatalf("post-reboot execution: %v, faults=%d", err, res.Faults)
	}
}

func TestIMulCorrectnessAndFaultMask(t *testing.T) {
	p := newSkyLake(t, 3)
	c := p.Core(0)
	for i := uint64(1); i < 1000; i++ {
		got, faulted, err := c.IMul(i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		if faulted {
			t.Fatal("fault at stock settings")
		}
		if got != i*(i+1) {
			t.Fatalf("imul(%d,%d) = %d", i, i+1, got)
		}
	}
}

func TestFaultedResultDiffersByLowWeightMask(t *testing.T) {
	p := newSkyLake(t, 11)
	c := p.Core(0)
	off := findFaultWindow(t, p)
	_ = off
	p.SettleAll()
	sawFault := false
	for i := 0; i < 200_000 && !sawFault; i++ {
		a, b := uint64(i)*0x9E3779B97F4A7C15+1, uint64(i)^0xDEADBEEF
		got, faulted, err := c.IMul(a, b)
		if err != nil {
			t.Fatalf("crash inside fault window: %v", err)
		}
		if faulted {
			sawFault = true
			diff := got ^ (a * b)
			if diff == 0 {
				t.Fatal("faulted flag set but result exact")
			}
			if popcount(diff) > 2 {
				t.Fatalf("fault mask weight %d > 2", popcount(diff))
			}
		}
	}
	if !sawFault {
		t.Fatal("no faults observed in window")
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestBatchNegativeSize(t *testing.T) {
	p := newSkyLake(t, 1)
	if _, err := p.Core(0).RunBatch(ClassIMul, -1); err == nil {
		t.Fatal("negative batch accepted")
	}
}

func TestBatchUnknownClass(t *testing.T) {
	p := newSkyLake(t, 1)
	if _, err := p.Core(0).RunBatch(Class("bogus"), 10); err == nil {
		t.Fatal("unknown class accepted")
	}
}

// A batch's elapsed time is its cycles (n x the class's throughput CPI) at
// the live clock period.
func TestBatchDuration(t *testing.T) {
	p := newSkyLake(t, 1)
	c := p.Core(0)
	res, err := c.RunBatch(ClassALU, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Duration(1000 * 0.25 * c.PLL.PeriodPS())
	if res.Elapsed != want {
		t.Fatalf("batch elapsed %v want %v", res.Elapsed, want)
	}
}

func TestFaultProbabilityOrderingAcrossClasses(t *testing.T) {
	// Deeper paths must be at least as likely to fault: imul >= aes >= fma
	// >= load >= alu, matching the paper's observation that imul is the
	// most faultable instruction.
	p := newSkyLake(t, 1)
	c := p.Core(0)
	if err := p.WriteOffsetViaMSR(0, -200, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	classes := []Class{ClassIMul, ClassAES, ClassFMA, ClassLoad, ClassALU}
	prev := math.Inf(1)
	for _, cl := range classes {
		pr := c.FaultProbability(cl)
		if pr > prev+1e-15 {
			t.Fatalf("class %s more faultable than shallower predecessor", cl)
		}
		prev = pr
	}
}

func TestBinomialSampler(t *testing.T) {
	s := sim.New(5)
	if binomial(s, 0, 0.5) != 0 {
		t.Fatal("binomial(0, p) != 0")
	}
	if binomial(s, 100, 0) != 0 {
		t.Fatal("binomial(n, 0) != 0")
	}
	if binomial(s, 100, 1) != 100 {
		t.Fatal("binomial(n, 1) != n")
	}
	// Small-n exact path.
	total := 0
	for i := 0; i < 2000; i++ {
		total += binomial(s, 10, 0.3)
	}
	mean := float64(total) / 2000
	if math.Abs(mean-3.0) > 0.2 {
		t.Fatalf("small-n mean %v, want ~3", mean)
	}
	// Poisson path: n=1e6, p=1e-5 -> lambda 10.
	total = 0
	for i := 0; i < 500; i++ {
		total += binomial(s, 1_000_000, 1e-5)
	}
	mean = float64(total) / 500
	if math.Abs(mean-10) > 1.0 {
		t.Fatalf("poisson-regime mean %v, want ~10", mean)
	}
	// Normal path: n=1e6, p=0.2 -> mean 2e5, sd ~400.
	k := binomial(s, 1_000_000, 0.2)
	if k < 190_000 || k > 210_000 {
		t.Fatalf("normal-regime draw %d implausible", k)
	}
	// Bounds respected in all regimes.
	for i := 0; i < 1000; i++ {
		if k := binomial(s, 50, 0.99); k < 0 || k > 50 {
			t.Fatalf("binomial out of range: %d", k)
		}
	}
}

func TestDeterministicPlatformReplay(t *testing.T) {
	run := func() (uint64, uint64) {
		spec, _ := models.SkyLake()
		p, _ := NewPlatform(spec, 99)
		c := p.Core(0)
		_ = p.WriteOffsetViaMSR(0, -220, msr.PlaneCore)
		p.SettleAll()
		res, _ := c.RunBatch(ClassIMul, 500_000)
		return uint64(res.Faults), c.Retired
	}
	f1, r1 := run()
	f2, r2 := run()
	if f1 != f2 || r1 != r2 {
		t.Fatalf("replay diverged: (%d,%d) vs (%d,%d)", f1, r1, f2, r2)
	}
}

func TestSettleAllWaitsForSlew(t *testing.T) {
	p := newSkyLake(t, 1)
	c := p.Core(0)
	if err := p.WriteOffsetViaMSR(0, -250, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	// Immediately after the write, the rail hasn't moved (VR latency).
	if c.OffsetMV() != -250 {
		t.Fatal("offset not registered")
	}
	nominal := p.Spec.NominalMV(p.Spec.BaseRatio) / 1000
	if math.Abs(c.VoltageV()-nominal) > 1e-9 {
		t.Fatal("rail moved instantly — VR latency not modelled")
	}
	p.SettleAll()
	if math.Abs(c.VoltageV()-(nominal-0.250)) > 2e-3 {
		t.Fatalf("rail after settle %v", c.VoltageV())
	}
}

// TestSettleCommandedReportsUnrealizedPoint forces a commanded ratio the
// PLL is never told to reach: SettleCommanded must give up with
// ErrUnsettled instead of returning as if the point were realized.
func TestSettleCommandedReportsUnrealizedPoint(t *testing.T) {
	p := newSkyLake(t, 1)
	if err := p.SetRatioViaMSR(0, p.Spec.BaseRatio+2); err != nil {
		t.Fatal(err)
	}
	if err := p.SettleCommanded(0); err != nil {
		t.Fatalf("reachable up-transition: %v", err)
	}
	p.Core(0).targetRatio = p.Spec.BaseRatio + 4 // no relock ever armed
	if err := p.SettleCommanded(0); !errors.Is(err, ErrUnsettled) {
		t.Fatalf("SettleCommanded = %v, want ErrUnsettled", err)
	}
}

// TestNewPlatformConstructionCost pins what a platform that never draws
// and never evaluates timing pays to exist: the RNG stays unseeded and only
// the victim's timing memo would ever be allocated. Fleet machines and each
// characterizer worker's first row build one per seed, so each build here
// uses a distinct seed.
func TestNewPlatformConstructionCost(t *testing.T) {
	spec, err := models.SkyLake()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlatform(spec, -1); err != nil { // warm the spec's caches
		t.Fatal(err)
	}
	const builds = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		if _, err := NewPlatform(spec, 42^int64(800_000+i*100_000)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / builds
	t.Logf("NewPlatform: %d B per distinct seed", per)
	if per > 16<<10 {
		t.Fatalf("NewPlatform allocated %d B per distinct seed, want <= %d", per, 16<<10)
	}
}

func BenchmarkRunBatchMillionIMuls(b *testing.B) {
	spec, _ := models.SkyLake()
	p, _ := NewPlatform(spec, 1)
	c := p.Core(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.RunBatch(ClassIMul, 1_000_000)
	}
}

func BenchmarkIMulSingle(b *testing.B) {
	spec, _ := models.SkyLake()
	p, _ := NewPlatform(spec, 1)
	c := p.Core(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = c.IMul(uint64(i), uint64(i)+3)
	}
}

func TestUpTransitionSequencesVoltageBeforeFrequency(t *testing.T) {
	// The PCU raises the rail before relocking the PLL, so the transition
	// itself never creates an Eq. 1 violation (the CLKSCREW ordering bug).
	p := newSkyLake(t, 8)
	c := p.Core(0)
	if err := p.SetRatioViaMSR(0, 10); err != nil { // park low first
		t.Fatal(err)
	}
	p.SettleAll()
	lowV := c.VoltageV()
	if err := p.SetRatioViaMSR(0, 36); err != nil { // jump to turbo
		t.Fatal(err)
	}
	// Walk the transition: at every instant the worst-case path must stay
	// safe (the clock may not outrun the rail).
	sawRampWithOldClock := false
	for i := 0; i < 4000; i++ {
		p.Sim.RunFor(sim.Microsecond)
		if c.CrashProbability() > 1e-12 || c.FaultProbability(ClassIMul) > 1e-12 {
			t.Fatalf("transition transiently unsafe at %v (f=%.1f GHz V=%.3f V)",
				p.Sim.Now(), c.FreqGHz(), c.VoltageV())
		}
		if c.Ratio() == 10 && c.VoltageV() > lowV+0.05 {
			sawRampWithOldClock = true
		}
		if c.Ratio() == 36 {
			break
		}
	}
	if !sawRampWithOldClock {
		t.Fatal("voltage did not lead the frequency on the up-transition")
	}
	p.SettleAll()
	if c.Ratio() != 36 {
		t.Fatalf("transition never completed: ratio %d", c.Ratio())
	}
}

func TestDownTransitionSafeAndPreemption(t *testing.T) {
	p := newSkyLake(t, 9)
	c := p.Core(0)
	// Down-transition: clock first, voltage follows — never unsafe either.
	if err := p.SetRatioViaMSR(0, 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		p.Sim.RunFor(sim.Microsecond)
		if c.FaultProbability(ClassIMul) > 1e-12 {
			t.Fatalf("down-transition unsafe at %v", p.Sim.Now())
		}
	}
	p.SettleAll()
	if c.Ratio() != 8 {
		t.Fatalf("ratio %d", c.Ratio())
	}
	// Pre-emption: start an up-transition, immediately command down; the
	// deferred relock must not fire later and yank the clock up.
	if err := p.SetRatioViaMSR(0, 30); err != nil {
		t.Fatal(err)
	}
	p.Sim.RunFor(5 * sim.Microsecond) // mid voltage ramp
	if err := p.SetRatioViaMSR(0, 12); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	p.Sim.RunFor(2 * sim.Millisecond)
	if c.Ratio() != 12 {
		t.Fatalf("pre-empted transition resolved to ratio %d, want 12", c.Ratio())
	}
}

// Fuzz-style property: arbitrary 64-bit writes to the OC mailbox either
// fault cleanly or leave the core in a decodable, consistent state — no
// panics, no invalid planes, and the platform keeps executing.
func TestQuickMailboxFuzz(t *testing.T) {
	p := newSkyLake(t, 13)
	c := p.Core(0)
	f := func(raw uint64) bool {
		err := c.MSRs.Write(msr.OCMailbox, raw)
		if err != nil {
			// Rejected writes must not change the register.
			return true
		}
		stored, err := c.MSRs.Read(msr.OCMailbox)
		if err != nil {
			return false
		}
		d := msr.DecodeVoltageOffset(stored)
		if d.Plane >= msr.NumPlanes && d.Write && d.Busy {
			return false // applied an invalid plane
		}
		// The platform stays usable: an imul on a (possibly undervolted
		// but voltage-lagged) core still executes or crashes cleanly.
		_, _, execErr := c.IMul(3, 7)
		if execErr != nil {
			p.Reboot()
			c = p.Core(0)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Fatal(err)
	}
}

// Property: PERF_CTL fuzzing — arbitrary writes either #GP (ratio out of
// range) or move the PLL to a table ratio.
func TestQuickPerfCtlFuzz(t *testing.T) {
	p := newSkyLake(t, 15)
	c := p.Core(1)
	minR, maxR := c.PLL.Range()
	f := func(raw uint64) bool {
		err := c.MSRs.Write(msr.IA32PerfCtl, raw)
		ratio := uint8((raw >> 8) & 0xFF)
		inRange := ratio >= minR && ratio <= maxR
		if inRange != (err == nil) {
			return false
		}
		p.SettleAll()
		r := c.Ratio()
		return r >= minR && r <= maxR
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(16))}); err != nil {
		t.Fatal(err)
	}
}
