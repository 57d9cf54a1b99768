// End-to-end contracts of the flight recorder + incident forensics pipeline:
// a campaign that faults the victim must freeze a bundle whose pre-trigger
// history contains the unsafe MSR write that caused the fault, and the
// framed bundle bytes must be identical across independent runs of the same
// experiment — the property that makes an incident file diffable evidence
// rather than a log.
package plugvolt_test

import (
	"bytes"
	"fmt"
	"testing"

	"plugvolt"
	"plugvolt/internal/attack"
	"plugvolt/internal/defense"
	"plugvolt/internal/flight"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
	"plugvolt/internal/telemetry/span"
)

// captureUnderAttack boots a fresh undefended system, rides a flight
// recorder along a plundervolt campaign, and returns the sealed bundles.
func captureUnderAttack(t *testing.T, seed int64) []*flight.Bundle {
	t.Helper()
	bundles, _ := captureWithSpanCap(t, seed, 0, nil)
	return bundles
}

// captureWithSpanCap is captureUnderAttack with, when spanCap > 0, a tracer
// that stores up to spanCap spans in place of the one NewSystem attaches,
// which stores none, and, when grid is non-nil, a weak guard deployed: a
// 2 ms poll and no margin, slow enough that the campaign still faults and
// busy enough that guard scopes fill a small store. It also returns the
// tracer.
func captureWithSpanCap(t *testing.T, seed int64, spanCap int, grid *plugvolt.Grid) ([]*flight.Bundle, *span.Tracer) {
	t.Helper()
	sys, err := plugvolt.NewSystem("skylake", seed)
	if err != nil {
		t.Fatal(err)
	}
	if spanCap > 0 {
		tel := telemetry.NewSet(sys.Platform.Sim.Now, telemetry.DefaultJournalCap, seed)
		tel.Trace = span.NewTracer(span.Clock(sys.Platform.Sim.Now), seed, spanCap)
		tel.Trace.Keep()
		sys.SetTelemetry(tel)
	}
	rec := sys.AttachFlightRecorder(0, 16)
	var defName string
	if grid == nil {
		cm := defense.None{}
		if err := cm.Install(sys.Env()); err != nil {
			t.Fatal(err)
		}
		defName = cm.Name()
	} else {
		cfg := plugvolt.DefaultGuardConfig()
		cfg.PollPeriod = 2 * sim.Millisecond
		cfg.MarginMV = 0
		pol, err := sys.DeployGuardConfig(grid, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defName = pol.Name()
	}
	res, err := attack.DefaultPlundervolt(seed).Run(sys.Env(), defName)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsObserved == 0 || (grid == nil && !res.Succeeded) {
		t.Fatalf("plundervolt against %q must fault (succeeded=%v faults=%d)", defName, res.Succeeded, res.FaultsObserved)
	}
	rec.Seal()
	return rec.Bundles(), sys.Telemetry.Spans()
}

// TestFlightBundleCapturedUnderAttack is the forensic acceptance contract:
// the bundle frozen by the victim's fault carries, strictly before the
// trigger record, the accepted unsafe mailbox write that produced it.
func TestFlightBundleCapturedUnderAttack(t *testing.T) {
	bundles := captureUnderAttack(t, 42)
	if len(bundles) == 0 {
		t.Fatal("faulting campaign captured no incident bundle")
	}
	b := bundles[0]
	if b.Cause != string(flight.CauseFault) {
		t.Fatalf("cause %q, want fault", b.Cause)
	}
	var faultOffset int64
	sawTrigger := false
	deepestBefore := int64(0)
	for _, r := range b.Records {
		switch r.Kind {
		case flight.KindFault:
			faultOffset = r.B
		case flight.KindTrigger:
			sawTrigger = true
		case flight.KindMailboxWrite:
			if !sawTrigger && r.Flag == flight.OutcomeAccepted && r.A < deepestBefore {
				deepestBefore = r.A
			}
		}
	}
	if !sawTrigger {
		t.Fatal("bundle carries no trigger record")
	}
	if faultOffset >= 0 {
		t.Fatalf("fault record blames offset %d, want a negative undervolt", faultOffset)
	}
	// The mailbox quantizes commanded offsets to ~1 mV units, so the write
	// that caused the fault may decode within 2 mV of the blamed offset.
	if d := deepestBefore - faultOffset; d < -2 || d > 2 {
		t.Fatalf("deepest accepted pre-trigger write %d mV does not explain the fault at %d mV",
			deepestBefore, faultOffset)
	}
	// Re-encode/decode round trip keeps the forensic bytes stable.
	enc, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := flight.DecodeBundle(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := b2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("bundle does not round-trip byte-identically")
	}
}

// TestFlightBundleByteIdenticalAcrossRuns freezes the determinism contract:
// two independent processes-worth of the same experiment (fresh system, same
// seed) must produce byte-identical framed incident files.
func TestFlightBundleByteIdenticalAcrossRuns(t *testing.T) {
	first, err := flight.EncodeAll(captureUnderAttack(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	second, err := flight.EncodeAll(captureUnderAttack(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("incident files diverge across identical runs")
	}
	other, err := flight.EncodeAll(captureUnderAttack(t, 43))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, other) {
		t.Fatal("different seeds produced identical incident files; capture is not recording the experiment")
	}
}

// TestFlightBundleIndependentOfSpanCap: mailbox-write records carry the ID
// of their span, minted whether or not the tracer keeps the span, so the
// framed incident bytes must not depend on the tracer's store — none at the
// default cap, and a 32-span one — on an undefended machine, and on a
// weakly guarded one whose poll scopes fill the small store long before the
// campaign ends.
func TestFlightBundleIndependentOfSpanCap(t *testing.T) {
	_, grid := characterize(t, "skylake", 42, 0)
	for _, tc := range []struct {
		name string
		grid *plugvolt.Grid
	}{{"undefended", nil}, {"weak guard", grid}} {
		t.Run(tc.name, func(t *testing.T) {
			encode := func(spanCap int) ([]byte, *span.Tracer) {
				bundles, tr := captureWithSpanCap(t, 42, spanCap, tc.grid)
				if len(bundles) == 0 {
					t.Fatal("faulting campaign captured no incident bundle")
				}
				for _, b := range bundles {
					for _, r := range b.Records {
						if r.Kind == flight.KindMailboxWrite && r.Span == 0 {
							t.Fatalf("cap %d: mailbox-write record at %d ps carries no span ID", spanCap, r.At)
						}
					}
				}
				enc, err := flight.EncodeAll(bundles)
				if err != nil {
					t.Fatal(err)
				}
				return enc, tr
			}
			wide, wideTr := encode(0)
			narrow, narrowTr := encode(32)
			if wideTr.Dropped() != 0 {
				t.Fatalf("default tracer dropped %d spans; the comparison needs an unbounded run", wideTr.Dropped())
			}
			if narrowTr.Len() != 32 || narrowTr.Dropped() == 0 {
				t.Fatalf("the 32-span store holds %d spans and dropped %d; the drop path was not exercised",
					narrowTr.Len(), narrowTr.Dropped())
			}
			if !bytes.Equal(wide, narrow) {
				t.Fatalf("incident bytes depend on the span cap (%d spans dropped)", narrowTr.Dropped())
			}
			t.Logf("32 spans stored and %d dropped at cap 32", narrowTr.Dropped())
		})
	}
}

// TestSpanStoreLeavesOutputsUnchanged runs one Plundervolt campaign twice
// on NewSystem("skylake", 81) with a flight recorder, once with a tracer
// that stores spans and once with the default one that stores none. The
// exposition, telemetry_spans_dropped_total included, the journal and the
// encoded incident bundles must be the same bytes: on an undefended machine
// the campaign faults and freezes a bundle, and under the default guard its
// poll scopes run the tracer past its cap.
func TestSpanStoreLeavesOutputsUnchanged(t *testing.T) {
	type outputs struct {
		prom, journal, incidents []byte
		stored                   int
		dropped                  uint64
	}
	run := func(t *testing.T, guarded, keep bool) outputs {
		sys, err := plugvolt.NewSystem("skylake", 81)
		if err != nil {
			t.Fatal(err)
		}
		if keep {
			sys.Telemetry.Spans().Keep()
		}
		rec := sys.AttachFlightRecorder(0, 16)
		defName := "none"
		if guarded {
			grid, err := sys.Characterize(plugvolt.QuickSweep())
			if err != nil {
				t.Fatal(err)
			}
			pol, err := sys.DeployGuard(grid)
			if err != nil {
				t.Fatal(err)
			}
			defName = pol.Name()
		} else if err := (defense.None{}).Install(sys.Env()); err != nil {
			t.Fatal(err)
		}
		if _, err := attack.DefaultPlundervolt(81).Run(sys.Env(), defName); err != nil {
			t.Fatal(err)
		}
		rec.Seal()
		sys.CollectTelemetry()
		var prom, journal bytes.Buffer
		if err := sys.Telemetry.Registry().Snapshot().WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := sys.Telemetry.Events().WriteJSONL(&journal); err != nil {
			t.Fatal(err)
		}
		incidents, err := flight.EncodeAll(rec.Bundles())
		if err != nil {
			t.Fatal(err)
		}
		tr := sys.Telemetry.Spans()
		return outputs{prom.Bytes(), journal.Bytes(), incidents, tr.Len(), tr.Dropped()}
	}
	for _, tc := range []struct {
		name    string
		guarded bool
	}{{"undefended", false}, {"guarded", true}} {
		t.Run(tc.name, func(t *testing.T) {
			stored, bare := run(t, tc.guarded, true), run(t, tc.guarded, false)
			if stored.stored == 0 || bare.stored != 0 {
				t.Fatalf("stored %d spans when asked and %d when not; want some and none", stored.stored, bare.stored)
			}
			if tc.guarded && bare.dropped == 0 {
				t.Fatal("the guarded campaign never ran the tracer past its cap")
			}
			if !tc.guarded && len(bare.incidents) == 0 {
				t.Fatal("the undefended campaign froze no incident bundle")
			}
			if !bytes.Contains(bare.prom, []byte(fmt.Sprintf("telemetry_spans_dropped_total %d\n", bare.dropped))) {
				t.Fatalf("exposition lacks telemetry_spans_dropped_total %d", bare.dropped)
			}
			for _, o := range []struct {
				name         string
				stored, bare []byte
			}{{"exposition", stored.prom, bare.prom}, {"journal", stored.journal, bare.journal},
				{"incident bundles", stored.incidents, bare.incidents}} {
				if !bytes.Equal(o.stored, o.bare) {
					t.Errorf("%s: a run that stores spans and one that does not disagree", o.name)
				}
			}
		})
	}
}
