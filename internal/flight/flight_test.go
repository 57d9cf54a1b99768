package flight

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"plugvolt/internal/sim"
)

// testRecorder builds a recorder over a manual clock.
func testRecorder(capacity, window int) (*Recorder, *sim.Time) {
	var now sim.Time
	r := NewRecorder(func() sim.Time { return now }, capacity, window, "skylake", 42)
	return r, &now
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.MailboxWrite(0, -100, 0, OutcomeAccepted, 1)
	r.PStateRetarget(0, 30, 900000)
	r.GuardPoll(0, 30, -100, false)
	r.GuardIntervention(0, -200, 0, true)
	r.EnergySegment(0, 1.5)
	r.Fault(0, 1, -200)
	r.Crash(0, -250)
	r.Trigger(CauseManual, 0, "nil")
	r.Seal()
	r.SetGuardView(&GuardView{})
	if got := r.Bundles(); got != nil {
		t.Fatalf("nil recorder bundles = %v", got)
	}
	if st := r.Stats(); st != (Stats{}) {
		t.Fatalf("nil recorder stats = %+v", st)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r, now := testRecorder(4, 2)
	for i := 0; i < 6; i++ {
		*now = sim.Time(i)
		r.GuardPoll(0, 30, -i, false)
	}
	st := r.Stats()
	if st.Records != 6 || st.Overwrites != 2 || st.Len != 4 || st.Cap != 4 {
		t.Fatalf("stats = %+v, want records=6 overwrites=2 len=4 cap=4", st)
	}
	// A trigger snapshot exposes the surviving window: appends 2..5 plus the
	// trigger record itself, in time order.
	r.Trigger(CauseManual, 0, "inspect")
	r.Seal()
	bs := r.Bundles()
	if len(bs) != 1 {
		t.Fatalf("bundles = %d, want 1", len(bs))
	}
	recs := bs[0].Records
	if len(recs) != 4 {
		t.Fatalf("snapshot records = %d, want 4 (ring cap)", len(recs))
	}
	// Oldest two polls (B=0,-1) must have been evicted; the trigger is last.
	if recs[0].B != -3 || recs[len(recs)-1].Kind != KindTrigger {
		t.Fatalf("snapshot window wrong: first B=%d last kind=%v", recs[0].B, recs[len(recs)-1].Kind)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			t.Fatalf("snapshot not time-ordered at %d", i)
		}
	}
}

func TestTriggerCaptureWindow(t *testing.T) {
	r, now := testRecorder(64, 3)
	for i := 0; i < 5; i++ {
		*now = sim.Time(i)
		r.GuardPoll(1, 30, -50, false)
	}
	*now = 5
	r.Trigger(CauseFault, 1, "victim faulted")
	// Post-trigger records: exactly window(3) more seal the bundle.
	for i := 0; i < 4; i++ {
		*now = sim.Time(6 + i)
		r.MailboxWrite(1, -230, 0, OutcomeAccepted, 0)
	}
	bs := r.Bundles()
	if len(bs) != 1 {
		t.Fatalf("bundles = %d, want 1 (sealed at window)", len(bs))
	}
	b := bs[0]
	if b.Cause != string(CauseFault) || b.Core != 1 || b.Seq != 1 || b.TriggerPS != 5 {
		t.Fatalf("bundle header = %+v", b)
	}
	// 5 polls + trigger + 3 post records.
	if len(b.Records) != 9 {
		t.Fatalf("bundle records = %d, want 9", len(b.Records))
	}
	if got := b.Records[len(b.Records)-1]; got.Kind != KindMailboxWrite || got.At != 8 {
		t.Fatalf("last captured record = %+v", got)
	}
	st := r.Stats()
	if st.Triggers != 1 || st.Captures != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetriggerDuringOpenCapture(t *testing.T) {
	r, now := testRecorder(64, 10)
	*now = 1
	r.Trigger(CauseFault, 0, "first")
	*now = 2
	r.Trigger(CauseFault, 0, "second") // same capture, counted
	r.Seal()
	st := r.Stats()
	if st.Triggers != 2 || st.Captures != 1 {
		t.Fatalf("stats = %+v, want triggers=2 captures=1", st)
	}
	bs := r.Bundles()
	if len(bs) != 1 || bs[0].Detail != "first" {
		t.Fatalf("bundles = %+v", bs)
	}
	// Both trigger records are in the window.
	trigs := 0
	for _, rec := range bs[0].Records {
		if rec.Kind == KindTrigger {
			trigs++
		}
	}
	if trigs != 2 {
		t.Fatalf("trigger records = %d, want 2", trigs)
	}
}

func TestSealWithoutTriggerIsNoOp(t *testing.T) {
	r, _ := testRecorder(8, 2)
	r.GuardPoll(0, 30, -10, false)
	r.Seal()
	if st := r.Stats(); st.Captures != 0 || st.Bundles != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBundleRetentionCap(t *testing.T) {
	r, now := testRecorder(16, 1)
	for i := 0; i < DefaultMaxBundles+3; i++ {
		*now = sim.Time(i * 2)
		r.Trigger(CauseManual, 0, "again")
		*now = sim.Time(i*2 + 1)
		r.GuardPoll(0, 30, 0, false) // seals (window 1)
	}
	st := r.Stats()
	if st.Captures != uint64(DefaultMaxBundles+3) {
		t.Fatalf("captures = %d", st.Captures)
	}
	if st.Bundles != DefaultMaxBundles || st.BundlesDropped != 3 {
		t.Fatalf("bundles=%d dropped=%d, want %d/3", st.Bundles, st.BundlesDropped, DefaultMaxBundles)
	}
	// Retained bundles are the first N, in capture order.
	for i, b := range r.Bundles() {
		if b.Seq != i+1 {
			t.Fatalf("bundle %d seq = %d", i, b.Seq)
		}
	}
}

// TestRecorderAppendAllocs asserts the acceptance criterion: the
// steady-state append path performs zero allocations per record.
func TestRecorderAppendAllocs(t *testing.T) {
	r, _ := testRecorder(1024, 16)
	core := 0
	if got := testing.AllocsPerRun(2048, func() {
		r.GuardPoll(core, 30, -120, false)
		r.MailboxWrite(core, -120, 0, OutcomeAccepted, 7)
		r.PStateRetarget(core, 30, 850000)
		r.EnergySegment(core, 2.25)
	}); got != 0 {
		t.Fatalf("steady-state append allocates %v allocs/op, want 0", got)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	r, now := testRecorder(32, 2)
	r.SetGuardView(&GuardView{
		Model: "skylake", BusMHz: 100, MarginMV: 15, SafeMV: 0,
		Thresholds:  []RatioThreshold{{Ratio: 30, ThresholdMV: -195}, {Ratio: 40, ThresholdMV: -160}},
		PollPeriodP: 100_000_000,
	})
	*now = 10
	r.MailboxWrite(1, -230, 0, OutcomeAccepted, 0xdeadbeef)
	*now = 20
	r.Fault(1, 3, -230)
	r.Trigger(CauseFault, 1, "detail text")
	*now = 30
	r.GuardPoll(1, 30, -230, true)
	r.GuardIntervention(1, -230, 0, true)
	b := r.Bundles()[0]

	enc, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeBundle(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	enc2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("re-encode of decoded bundle is not byte-identical")
	}
	if got.Guard == nil || len(got.Guard.Thresholds) != 2 {
		t.Fatalf("guard view lost: %+v", got.Guard)
	}
	if got.Records[0].Span != 0xdeadbeef {
		t.Fatalf("span id lost: %+v", got.Records[0])
	}
}

func TestEncodeAllDecodeAll(t *testing.T) {
	r, now := testRecorder(8, 1)
	for i := 0; i < 3; i++ {
		*now = sim.Time(i * 10)
		r.Trigger(CauseCrash, 0, "boom")
		*now = sim.Time(i*10 + 1)
		r.GuardPoll(0, 30, 0, false)
	}
	bs := r.Bundles()
	data, err := EncodeAll(bs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d bundles, want 3", len(got))
	}
	for i, b := range got {
		if b.Seq != i+1 {
			t.Fatalf("bundle %d seq = %d", i, b.Seq)
		}
	}
}

func TestDecodeRejections(t *testing.T) {
	r, _ := testRecorder(8, 1)
	r.Trigger(CauseManual, 0, "x")
	r.Seal()
	good, err := r.Bundles()[0].Encode()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrBundleTruncated},
		{"short header", func(b []byte) []byte { return b[:10] }, ErrBundleTruncated},
		{"bad magic", func(b []byte) []byte { c := append([]byte(nil), b...); c[0] = 'X'; return c }, ErrBundleMagic},
		{"bad version", func(b []byte) []byte { c := append([]byte(nil), b...); c[5] = 99; return c }, ErrBundleVersion},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-3] }, ErrBundleTruncated},
		{"flipped payload bit", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 1
			return c
		}, ErrBundleChecksum},
		{"oversized length", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			for i := 8; i < 16; i++ {
				c[i] = 0xff
			}
			return c
		}, ErrBundlePayload},
		// Exactly the bound passes the limit check and must then be
		// rejected as truncated, including on 32-bit words, where the
		// length does not fit an int.
		{"length at the bound", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.BigEndian.PutUint64(c[8:16], maxBundlePayload)
			return c
		}, ErrBundleTruncated},
		{"length past the bound", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.BigEndian.PutUint64(c[8:16], maxBundlePayload+1)
			return c
		}, ErrBundlePayload},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeBundle(tc.mutate(good))
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want class %v", err, tc.wantErr)
			}
			var be *BundleError
			if !errors.As(err, &be) {
				t.Fatalf("err %T is not *BundleError", err)
			}
		})
	}
}

func TestTimelineAndDiff(t *testing.T) {
	r, now := testRecorder(16, 2)
	*now = 1_000_000
	r.MailboxWrite(1, -230, 0, OutcomeAccepted, 1)
	*now = 2_000_000
	r.Fault(1, 1, -230)
	r.Trigger(CauseFault, 1, "faulted")
	*now = 3_000_000
	r.GuardIntervention(1, -230, 0, true)
	r.Seal()
	b := r.Bundles()[0]

	var tl strings.Builder
	if err := b.WriteTimeline(&tl); err != nil {
		t.Fatal(err)
	}
	out := tl.String()
	for _, want := range []string{"cause=fault", "mailbox_write", "TRIGGER", "intervention"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}

	var d strings.Builder
	same, err := Diff(&d, b, b)
	if err != nil || !same {
		t.Fatalf("self-diff same=%v err=%v:\n%s", same, err, d.String())
	}

	other := *b
	other.Cause = string(CauseCrash)
	other.Records = b.Records[:len(b.Records)-1]
	d.Reset()
	same, err = Diff(&d, b, &other)
	if err != nil || same {
		t.Fatalf("diff same=%v err=%v", same, err)
	}
	if !strings.Contains(d.String(), "cause: fault vs crash") {
		t.Fatalf("diff output missing cause delta:\n%s", d.String())
	}
}
