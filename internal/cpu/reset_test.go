package cpu

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"plugvolt/internal/clockgen"
	"plugvolt/internal/flight"
	"plugvolt/internal/models"
	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry/span"
	"plugvolt/internal/vr"
)

// extraMSR is a register the dirty scripts declare beyond the standard set
// (MSR_TEMPERATURE_TARGET); a reset or rebooted file must not know it.
const extraMSR msr.Addr = 0x1A2

// probedMSRs are the registers the probe script reads on every core: the
// standard set and the extra one.
var probedMSRs = []msr.Addr{
	msr.OCMailbox, msr.VoltageOffsetLimit, msr.IA32PerfStatus, msr.IA32PerfCtl,
	msr.TurboRatioLimit, msr.RAPLPowerUnit, msr.PkgEnergyStatus, msr.DRAMPowerLimit,
	msr.DRAMPowerInfo, msr.PP0EnergyStatus, extraMSR,
}

// dirty drives p through everything a reset must undo: a crash and a
// reboot, a mailbox write hook with its stats, an extra declared register,
// RAPL and energy reads, RNG draws, a span tracer and a flight recorder,
// and a pending up-transition relock at the end.
func dirty(t *testing.T, p *Platform) (*span.Tracer, *flight.Recorder) {
	t.Helper()
	tr := span.NewTracer(p.Sim.Now, 3, 0)
	tr.Keep()
	rec := flight.NewRecorder(p.Sim.Now, 256, 0, p.Spec.Codename, 3)
	p.SetSpanTracer(tr)
	p.SetFlightRecorder(rec)
	const victim = 1
	c := p.Core(victim)
	if err := p.WriteOffsetViaMSR(victim, -500, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	crashed := false
	for i := 0; i < 1_000_000 && !crashed; i++ {
		_, _, err := c.IMul(uint64(i), 3)
		crashed = errors.Is(err, ErrCrashed)
	}
	if !crashed {
		t.Fatal("dirty script: the undervolt never crashed the core")
	}
	p.Reboot()
	for i := range p.Cores() {
		f := p.MSRFile(i)
		f.Declare(&msr.Descriptor{Addr: extraMSR, Name: "MSR_TEMPERATURE_TARGET", Reset: 0x640000})
		f.AddWriteHook(msr.OCMailbox, func(_ *msr.File, _, v uint64) (uint64, error) {
			return v ^ 1<<21, nil // a defense that rewrites every command
		})
		if err := p.WriteOffsetViaMSR(i, -20, msr.PlaneCore); err != nil {
			t.Fatal(err)
		}
		for _, a := range []msr.Addr{msr.PkgEnergyStatus, msr.PP0EnergyStatus} {
			if _, err := f.Read(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Leave the PLL commanded away from the base ratio.
	if err := p.SetRatioViaMSR(victim, p.Spec.MinRatio); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	_ = p.Energy.PriceW(victim)
	for i := 0; i < 3; i++ {
		_ = p.Sim.Rand().Int63()
	}
	if _, err := c.RunBatch(ClassIMul, 10_000); err != nil {
		t.Fatal(err)
	}
	if err := p.SetRatioViaMSR(victim, p.Spec.MaxTurboRatio); err != nil {
		t.Fatal(err)
	}
	if c.Ratio() == p.Spec.MaxTurboRatio {
		t.Fatal("dirty script: the up-transition relocked at once; nothing is pending")
	}
	if tr.Len() == 0 || rec.Stats().Records == 0 {
		t.Fatal("dirty script: the tracer or the recorder saw nothing")
	}
	return tr, rec
}

// probeLog is what a probe script observes, one line per observation.
type probeLog []string

func (l *probeLog) add(format string, args ...any) { *l = append(*l, fmt.Sprintf(format, args...)) }

// state records every register of every core, the clock, the counters, the
// hook stats and the bits of every energy reading.
func (l *probeLog) state(p *Platform, at string) {
	l.add("%s: now %d fired %d reboots %d reboot time %d seed %d", at,
		p.Sim.Now(), p.Sim.Fired(), p.Reboots, p.RebootTime, p.Seed())
	l.add("%s: package %x cores %x", at,
		math.Float64bits(p.Energy.PackageEnergyJ()), math.Float64bits(p.Energy.CoresEnergyJ()))
	for i, c := range p.Cores() {
		f := p.MSRFile(i)
		for _, a := range probedMSRs {
			v, err := f.Read(a)
			l.add("%s: core %d rdmsr 0x%x = %#x, %v", at, i, uint32(a), v, err)
		}
		l.add("%s: core %d mailbox hooks %+v perf_ctl hooks %+v", at, i,
			f.WriteHookStats(msr.OCMailbox), f.WriteHookStats(msr.IA32PerfCtl))
		l.add("%s: core %d ratio %d pending %d volt %x offset %d retired %d faulted %d", at, i,
			c.Ratio(), c.PLL.PendingRatio(), math.Float64bits(c.VoltageV()), c.OffsetMV(), c.Retired, c.Faulted)
		l.add("%s: core %d energy %x price %x pll commands %d rail commands %d", at, i,
			math.Float64bits(p.Energy.CoreEnergyJ(i)), math.Float64bits(p.Energy.PriceW(i)),
			c.PLL.Commands, c.VR.Commands)
	}
}

// imulUntilCrash runs up to n imuls on core and logs every faulted result
// and the crash point (-1 when the core survives).
func (l *probeLog) imulUntilCrash(c *Core, n int, at string) {
	crash := -1
	for i := 0; i < n; i++ {
		r, faulted, err := c.IMul(uint64(i)*0x9E3779B97F4A7C15, uint64(i)|1)
		if err != nil {
			crash = i
			break
		}
		if faulted {
			l.add("%s: imul %d faulted to %#x", at, i, r)
		}
	}
	l.add("%s: crash point %d", at, crash)
}

// offsetWhere returns the shallowest offset at which core, commanded as it
// is, would see pick(pFault, pCrash) reach p.
func offsetWhere(t *testing.T, c *Core, p float64, pick func(pFault, pCrash float64) float64) int {
	t.Helper()
	for off := -1; off >= -600; off-- {
		if pick(c.PredictProbabilities(ClassIMul, off)) >= p {
			return off
		}
	}
	t.Fatalf("no offset reaches probability %g", p)
	return 0
}

// probe runs one fixed script on p and returns what it observed: an
// up-transition observed mid-relock, a fault band, a crash, a reboot, a
// batch, RNG draws and mailbox writes through every core's hooks.
func probe(t *testing.T, p *Platform) probeLog {
	t.Helper()
	const victim = 1
	var l probeLog
	l.state(p, "power-on")
	c := p.Core(victim)
	if err := p.SetRatioViaMSR(victim, p.Spec.MaxTurboRatio); err != nil {
		t.Fatal(err)
	}
	p.Sim.RunFor(40 * sim.Microsecond)
	l.state(p, "mid-relock")
	p.SettleAll()
	l.state(p, "turbo")
	faultMV := offsetWhere(t, c, 1e-3, func(pf, _ float64) float64 { return pf })
	if err := p.WriteOffsetViaMSR(victim, faultMV, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	if err := p.SettleCommanded(victim); err != nil {
		t.Fatal(err)
	}
	l.imulUntilCrash(c, 5_000, "fault band")
	crashMV := offsetWhere(t, c, 1e-4, func(_, pc float64) float64 { return pc })
	if err := p.WriteOffsetViaMSR(victim, crashMV, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	if err := p.SettleCommanded(victim); err != nil {
		t.Fatal(err)
	}
	l.imulUntilCrash(c, 1_000_000, "crash band")
	l.state(p, "crashed")
	p.Reboot()
	l.state(p, "rebooted")
	res, err := c.RunBatch(ClassIMul, 100_000)
	l.add("batch %+v %v", res, err)
	for i := 0; i < 3; i++ {
		l.add("rand %d", p.Sim.Rand().Int63())
	}
	for i := range p.Cores() {
		l.add("core %d mailbox write: %v", i, p.WriteOffsetViaMSR(i, -10*(i+1), msr.PlaneCore))
	}
	p.SettleAll()
	l.state(p, "end")
	return l
}

// TestResetEqualsNewPlatform is the reset contract: a platform driven dirty
// and then Reset(seed) observes, through one probe script, exactly what
// NewPlatform(spec, seed) does — every MSR read, the clock and event count,
// Retired/Faulted, the imul results and crash point, every energy reading
// to the bit, Reboots and the hook stats — on every model and several
// seeds. Neither the dirty platform's span tracer nor its flight recorder
// may see the probe.
func TestResetEqualsNewPlatform(t *testing.T) {
	for _, name := range []string{"skylake", "kabylaker", "cometlake"} {
		spec, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 42, -7} {
			fresh, err := NewPlatform(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			want := probe(t, fresh)
			if !strings.Contains(strings.Join(want, "\n"), "faulted to") ||
				slices.Contains(want, "crash band: crash point -1") {
				t.Fatalf("%s seed %d: the probe saw no fault or no crash; it proves nothing", name, seed)
			}
			p, err := NewPlatform(spec, seed^0x5a5a)
			if err != nil {
				t.Fatal(err)
			}
			tr, rec := dirty(t, p)
			spans, records := tr.Len(), rec.Stats().Records
			p.Reset(seed)
			got := probe(t, p)
			for i := range max(len(got), len(want)) {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				if g != w {
					t.Fatalf("%s seed %d: reset platform diverges at observation %d:\n got  %s\n want %s",
						name, seed, i, g, w)
				}
			}
			if tr.Len() != spans || rec.Stats().Records != records {
				t.Errorf("%s seed %d: the reset platform still feeds the dirty tracer or recorder", name, seed)
			}
		}
	}
}

// TestRebootResetsFilesInPlace is the reboot contract: each core keeps its
// register file, PLL and regulator objects, and the file is what a rebuilt
// one would be — hooks, hook stats and extra registers gone, every
// standard register at a fresh platform's value — with the
// span tracer, the flight recorder and the RAPL counters reattached.
func TestRebootResetsFilesInPlace(t *testing.T) {
	p := newSkyLake(t, 11)
	fresh := newSkyLake(t, 11)
	tr := span.NewTracer(p.Sim.Now, 1, 0)
	tr.Keep()
	rec := flight.NewRecorder(p.Sim.Now, 256, 0, p.Spec.Codename, 1)
	p.SetSpanTracer(tr)
	p.SetFlightRecorder(rec)
	hookRuns := 0
	type hw struct {
		f    *msr.File
		pll  *clockgen.PLL
		rail *vr.Regulator
	}
	var before []hw
	for i, c := range p.Cores() {
		f := p.MSRFile(i)
		f.Declare(&msr.Descriptor{Addr: extraMSR, Name: "MSR_TEMPERATURE_TARGET"})
		f.AddWriteHook(msr.OCMailbox, func(_ *msr.File, _, v uint64) (uint64, error) {
			hookRuns++
			return v, nil
		})
		// A down-transition commands the PLL at once, so the reboot must
		// reset it as well as the rail.
		if err := p.SetRatioViaMSR(i, p.Spec.MinRatio); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteOffsetViaMSR(i, -500, msr.PlaneCore); err != nil {
			t.Fatal(err)
		}
		before = append(before, hw{f, c.PLL, c.VR})
	}
	p.SettleAll()
	if _, err := p.Core(0).RunBatch(ClassIMul, 1_000_000); !errors.Is(err, ErrCrashed) {
		t.Fatalf("precondition: no crash (%v)", err)
	}
	p.Reboot()
	for i, c := range p.Cores() {
		f := p.MSRFile(i)
		if f != before[i].f || c.PLL != before[i].pll || c.VR != before[i].rail {
			t.Fatalf("core %d: reboot replaced its hardware instead of resetting it", i)
		}
		if st := f.WriteHookStats(msr.OCMailbox); st != (msr.HookStats{}) {
			t.Errorf("core %d: hook stats %+v survive the reboot", i, st)
		}
		if f.Descriptor(extraMSR) != nil {
			t.Errorf("core %d: extra register survives the reboot", i)
		}
		for _, a := range probedMSRs {
			if a == msr.PkgEnergyStatus || a == msr.PP0EnergyStatus {
				continue
			}
			got, gotErr := f.Read(a)
			want, wantErr := fresh.MSRFile(i).Read(a)
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("core %d rdmsr 0x%x: %#x, %v after reboot, %#x, %v on a fresh platform",
					i, uint32(a), got, gotErr, want, wantErr)
			}
		}
		pkg, _ := f.Read(msr.PkgEnergyStatus)
		pp0, _ := f.Read(msr.PP0EnergyStatus)
		if pkg == 0 || pkg != msr.EncodeEnergyStatus(p.Energy.PackageEnergyJ(), msr.DefaultEnergyUnitJ) ||
			pp0 != msr.EncodeEnergyStatus(p.Energy.CoresEnergyJ(), msr.DefaultEnergyUnitJ) {
			t.Errorf("core %d: RAPL reads %#x/%#x are not the integrator's", i, pkg, pp0)
		}
	}
	runs, spans, records := hookRuns, tr.Len(), rec.Stats().Records
	for i := range p.Cores() {
		if err := p.WriteOffsetViaMSR(i, -10, msr.PlaneCore); err != nil {
			t.Fatal(err)
		}
	}
	if hookRuns != runs {
		t.Error("a write hook survived the reboot")
	}
	if got := tr.Len() - spans; got != p.NumCores() {
		t.Errorf("tracer saw %d of %d post-reboot mailbox writes", got, p.NumCores())
	}
	// Each write records the mailbox command, the retarget and the energy
	// segment it opens.
	if got := rec.Stats().Records - records; got != uint64(3*p.NumCores()) {
		t.Errorf("recorder saw %d records for %d post-reboot mailbox writes", got, p.NumCores())
	}
}

// TestResetAndRebootAllocateNothing pins the warm costs the sharded
// characterizer pays per row and per crash: zero allocations for Reset and
// for Reboot on a platform without a tracer or a recorder.
func TestResetAndRebootAllocateNothing(t *testing.T) {
	p := newSkyLake(t, 3)
	if err := p.WriteOffsetViaMSR(1, -500, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.SettleAll()
	_, _ = p.Core(1).RunBatch(ClassIMul, 1_000_000)
	p.Reboot()
	seed := int64(0)
	if a := testing.AllocsPerRun(50, func() {
		seed++
		p.Reset(seed)
	}); a != 0 {
		t.Errorf("Reset allocated %.1f objects, want 0", a)
	}
	if a := testing.AllocsPerRun(50, p.Reboot); a != 0 {
		t.Errorf("Reboot allocated %.1f objects, want 0", a)
	}
}
