package trace

import (
	"strings"
	"testing"

	"plugvolt/internal/core"
	"plugvolt/internal/cpu"
	"plugvolt/internal/kernel"
	"plugvolt/internal/models"
	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
)

func newPlatform(t *testing.T, seed int64) *cpu.Platform {
	t.Helper()
	spec, err := models.SkyLake()
	if err != nil {
		t.Fatal(err)
	}
	p, err := cpu.NewPlatform(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRecorderValidation(t *testing.T) {
	p := newPlatform(t, 1)
	if _, err := NewRecorder(nil, sim.Microsecond); err == nil {
		t.Fatal("nil core accepted")
	}
	if _, err := NewRecorder(p.Core(0), 0); err == nil {
		t.Fatal("zero period accepted")
	}
	r, err := NewRecorder(p.Core(0), sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(p.Sim); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(p.Sim); err == nil {
		t.Fatal("double start accepted")
	}
}

func TestRecorderSamplesTimeline(t *testing.T) {
	p := newPlatform(t, 2)
	r, err := NewRecorder(p.Core(0), 10*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(p.Sim); err != nil {
		t.Fatal(err)
	}
	// Undervolt mid-recording; the timeline must show the slew.
	p.Sim.RunFor(100 * sim.Microsecond)
	if err := p.WriteOffsetViaMSR(0, -200, msr.PlaneCore); err != nil {
		t.Fatal(err)
	}
	p.Sim.RunFor(800 * sim.Microsecond)
	r.Stop()
	if r.Len() < 80 {
		t.Fatalf("samples %d", r.Len())
	}
	first, last := r.samples[0], r.samples[r.Len()-1]
	if first.RailMV <= last.RailMV {
		t.Fatalf("rail did not descend: %v -> %v", first.RailMV, last.RailMV)
	}
	if last.OffsetMV > -198 || last.OffsetMV < -202 { // ±Algorithm-1 quantization
		t.Fatalf("final register offset %d", last.OffsetMV)
	}
	// Mid-slew samples exist: some rail value strictly between endpoints.
	sawMid := false
	for _, s := range r.samples {
		if s.RailMV < first.RailMV-20 && s.RailMV > last.RailMV+20 {
			sawMid = true
			break
		}
	}
	if !sawMid {
		t.Fatal("no mid-slew samples — VR transition invisible to trace")
	}
	min, at, err := r.MinRailMV()
	if err != nil {
		t.Fatal(err)
	}
	if min != last.RailMV || at == 0 {
		t.Fatalf("min rail %v at %v", min, at)
	}
}

func TestRecorderCap(t *testing.T) {
	p := newPlatform(t, 3)
	r, _ := NewRecorder(p.Core(0), sim.Microsecond)
	r.Cap = 5
	if err := r.Start(p.Sim); err != nil {
		t.Fatal(err)
	}
	p.Sim.RunFor(100 * sim.Microsecond)
	if r.Len() != 5 {
		t.Fatalf("cap not enforced: %d samples", r.Len())
	}
}

func TestDwellStats(t *testing.T) {
	p := newPlatform(t, 4)
	r, _ := NewRecorder(p.Core(0), 10*sim.Microsecond)
	if err := r.Start(p.Sim); err != nil {
		t.Fatal(err)
	}
	// 200 us at stock, then undervolt -100 for ~500 us, then restore.
	p.Sim.RunFor(200 * sim.Microsecond)
	_ = p.WriteOffsetViaMSR(0, -100, msr.PlaneCore)
	p.Sim.RunFor(500 * sim.Microsecond)
	_ = p.WriteOffsetViaMSR(0, 0, msr.PlaneCore)
	p.Sim.RunFor(500 * sim.Microsecond)
	r.Stop()
	st := r.Dwell(func(s Sample) bool { return s.OffsetMV <= -100 })
	if st.Episodes != 1 {
		t.Fatalf("episodes %d", st.Episodes)
	}
	if st.Total < 400*sim.Microsecond || st.Total > 600*sim.Microsecond {
		t.Fatalf("dwell total %v", st.Total)
	}
	if st.Longest != st.Total {
		t.Fatalf("single episode: longest %v != total %v", st.Longest, st.Total)
	}
	if f := st.Fraction(); f < 0.3 || f > 0.55 {
		t.Fatalf("fraction %v", f)
	}
	if (DwellStats{}).Fraction() != 0 {
		t.Fatal("empty stats fraction nonzero")
	}
}

// quickUnsafeSet characterizes p's model and seed with the quick sweep.
func quickUnsafeSet(t *testing.T, p *cpu.Platform) *core.UnsafeSet {
	t.Helper()
	cfg := core.DefaultCharacterizerConfig()
	cfg.Iterations = 200_000
	cfg.OffsetStartMV = -5
	cfg.OffsetStepMV = -5
	cfg.OffsetEndMV = -350
	sc, err := core.NewShardedCharacterizer(p.Spec, p.Seed(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return g.UnsafeSet()
}

// The headline measurement: under a guarded live attack, the *register* is
// transiently unsafe but the *rail* never is.
func TestGuardedAttackHasZeroUnsafeRailDwell(t *testing.T) {
	p := newPlatform(t, 5)
	unsafe := quickUnsafeSet(t, p)
	k := kernel.New(p.Sim, p)
	guard, err := core.NewGuard(unsafe, p.Spec.BusMHz, core.DefaultGuardConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Load(guard.Module()); err != nil {
		t.Fatal(err)
	}

	victim := 1
	rec, err := NewRecorder(p.Core(victim), 5*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Start(p.Sim); err != nil {
		t.Fatal(err)
	}
	freq := p.FreqKHz(victim)
	attackOffset := unsafe.OnsetMV[freq] - 60
	attacker := p.Sim.Every(537*sim.Microsecond, func() {
		_ = p.WriteOffsetViaMSR(victim, attackOffset, msr.PlaneCore)
	})
	p.Sim.RunFor(20 * sim.Millisecond)
	attacker.Stop()
	rec.Stop()

	reg := rec.UnsafeRegisterDwell(unsafe)
	if reg.Episodes == 0 {
		t.Fatal("attack never made the register unsafe — test broken")
	}
	// Register dwell per episode bounded by the poll period (+ sampling).
	if reg.Longest > guard.WorstCaseTurnaround(0, 1e9)+10*sim.Microsecond {
		t.Fatalf("register unsafe for %v, beyond one poll period", reg.Longest)
	}
	rail := rec.UnsafeRailDwell(unsafe, func(freqKHz int) float64 {
		return p.Spec.NominalMV(msr.KHzToRatio(freqKHz, p.Spec.BusMHz))
	})
	if rail.Total != 0 {
		t.Fatalf("rail reached unsafe depth for %v (%d episodes) — guard lost the race",
			rail.Total, rail.Episodes)
	}
	if guard.Interventions == 0 {
		t.Fatal("guard never intervened")
	}
}

func TestUnguardedAttackHasNonzeroUnsafeRailDwell(t *testing.T) {
	// Control: without the module the rail does reach unsafe depth.
	p := newPlatform(t, 5)
	unsafe := quickUnsafeSet(t, p)
	victim := 1
	rec, _ := NewRecorder(p.Core(victim), 5*sim.Microsecond)
	if err := rec.Start(p.Sim); err != nil {
		t.Fatal(err)
	}
	freq := p.FreqKHz(victim)
	_ = p.WriteOffsetViaMSR(victim, unsafe.OnsetMV[freq]-60, msr.PlaneCore)
	p.Sim.RunFor(3 * sim.Millisecond)
	rec.Stop()
	rail := rec.UnsafeRailDwell(unsafe, func(freqKHz int) float64 {
		return p.Spec.NominalMV(msr.KHzToRatio(freqKHz, p.Spec.BusMHz))
	})
	if rail.Total == 0 {
		t.Fatal("unguarded rail never unsafe — control broken")
	}
}

func TestWriteCSV(t *testing.T) {
	p := newPlatform(t, 6)
	r, _ := NewRecorder(p.Core(0), 10*sim.Microsecond)
	if err := r.Start(p.Sim); err != nil {
		t.Fatal(err)
	}
	_ = p.WriteOffsetViaMSR(0, -150, msr.PlaneCore)
	p.Sim.RunFor(500 * sim.Microsecond)
	r.Stop()
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "t_ps,freq_khz,rail_mv,offset_mv" {
		t.Fatalf("csv header %q", lines[0])
	}
	if len(lines) != r.Len()+1 {
		t.Fatalf("csv rows %d for %d samples", len(lines)-1, r.Len())
	}
}

func TestRecorderCapStaysStopped(t *testing.T) {
	// Once the cap is hit the ticker stops for good: running the sim much
	// longer adds nothing, the first Cap samples are retained (drop-newest),
	// and Stop remains safe to call.
	p := newPlatform(t, 8)
	r, _ := NewRecorder(p.Core(0), sim.Microsecond)
	r.Cap = 3
	if err := r.Start(p.Sim); err != nil {
		t.Fatal(err)
	}
	p.Sim.RunFor(10 * sim.Microsecond)
	if r.Len() != 3 {
		t.Fatalf("cap not enforced: %d samples", r.Len())
	}
	firstAt := r.samples[0].At
	p.Sim.RunFor(10 * sim.Millisecond)
	if r.Len() != 3 {
		t.Fatalf("sampling resumed after cap: %d samples", r.Len())
	}
	if r.samples[0].At != firstAt {
		t.Fatal("cap evicted the oldest sample; expected drop-newest")
	}
	r.Stop() // must not panic on an already-stopped ticker
}

func TestDwellSingleSample(t *testing.T) {
	p := newPlatform(t, 9)
	r, _ := NewRecorder(p.Core(0), 10*sim.Microsecond)
	r.samples = []Sample{{At: 100 * sim.Microsecond, OffsetMV: -50}}
	st := r.Dwell(func(s Sample) bool { return s.OffsetMV < 0 })
	if st.Observed != r.period {
		t.Fatalf("single-sample observed %v, want one period %v", st.Observed, r.period)
	}
	if st.Total != r.period || st.Longest != r.period || st.Episodes != 1 {
		t.Fatalf("single matching sample: %+v", st)
	}
	if st.Fraction() != 1 {
		t.Fatalf("fraction %v, want 1", st.Fraction())
	}
	// The same sample failing the predicate: zero dwell, nonzero span.
	st = r.Dwell(func(s Sample) bool { return s.OffsetMV > 0 })
	if st.Total != 0 || st.Episodes != 0 || st.Observed != r.period {
		t.Fatalf("single non-matching sample: %+v", st)
	}
}

func TestDwellAllTrue(t *testing.T) {
	p := newPlatform(t, 10)
	r, _ := NewRecorder(p.Core(0), 10*sim.Microsecond)
	const n = 7
	for i := 0; i < n; i++ {
		r.samples = append(r.samples, Sample{At: sim.Time(i) * 10 * sim.Microsecond})
	}
	st := r.Dwell(func(Sample) bool { return true })
	want := sim.Duration(n) * 10 * sim.Microsecond
	if st.Total != want || st.Observed != want {
		t.Fatalf("all-true total %v observed %v, want %v", st.Total, st.Observed, want)
	}
	if st.Episodes != 1 || st.Longest != want {
		t.Fatalf("all-true is one episode spanning the recording: %+v", st)
	}
	if st.Fraction() != 1 {
		t.Fatalf("fraction %v, want 1", st.Fraction())
	}
}

func TestEmptyRecorderEdges(t *testing.T) {
	p := newPlatform(t, 7)
	r, _ := NewRecorder(p.Core(0), sim.Microsecond)
	if st := r.Dwell(func(Sample) bool { return true }); st.Total != 0 {
		t.Fatal("dwell on empty recorder")
	}
	if _, _, err := r.MinRailMV(); err == nil {
		t.Fatal("MinRailMV on empty recorder")
	}
}
