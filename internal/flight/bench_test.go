package flight

import (
	"testing"

	"plugvolt/internal/sim"
)

// fullRing returns a recorder whose 1024-record ring is full of accepted
// mailbox writes, with a post-trigger window of window records.
func fullRing(window int) *Recorder {
	r, now := testRecorder(1024, window)
	for j := 0; j < 1024; j++ {
		*now = sim.Time(j)
		r.MailboxWrite(1, -100, 0, OutcomeAccepted, uint64(j))
	}
	return r
}

// BenchmarkTriggerCapture times one incident capture over a full ring: the
// trigger, then the 32 post-trigger records that seal the bundle. Captures
// are rare (one per fault, crash or SLO violation), so the guard-steady
// workload's flight.poll_ns, which times the append path, never sees them;
// this bounds them so the capture path cannot quietly become a stall.
func BenchmarkTriggerCapture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := fullRing(32)
		b.StartTimer()
		r.Trigger(CauseFault, 1, "bench")
		for j := 0; j < 32; j++ {
			r.GuardPoll(1, 32, -100, false)
		}
		if len(r.Bundles()) != 1 {
			b.Fatal("capture did not seal")
		}
	}
}

// BenchmarkBundleEncode times framing one sealed 1024-record bundle, the
// cost -incidents-out pays per bundle.
func BenchmarkBundleEncode(b *testing.B) {
	r := fullRing(8)
	r.Trigger(CauseFault, 1, "bench")
	r.Seal()
	bundle := r.Bundles()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bundle.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}
