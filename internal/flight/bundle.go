package flight

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// Incident bundles share the fleet checkpoint's wire discipline: a binary
// header frames a JSON payload so a truncated copy, a flipped bit, or a
// foreign file is rejected deterministically instead of half-parsing.
//
// Layout (big-endian):
//
//	offset  size  field
//	0       4     magic "PVFR"
//	4       2     format version (BundleVersion)
//	6       2     reserved (zero)
//	8       8     payload length in bytes
//	16      4     CRC32 (IEEE) of the payload
//	20      ...   payload: JSON-encoded Bundle
//
// Frames are self-delimiting, so one incidents file holds any number of
// bundles back to back (see AppendEncoded / DecodeAll).
var bundleMagic = [4]byte{'P', 'V', 'F', 'R'}

// BundleVersion is the current bundle format version. Decoders accept
// exactly this version.
const BundleVersion = 1

// bundleHeaderLen is the fixed frame header size.
const bundleHeaderLen = 20

// maxBundlePayload bounds the declared payload length before any allocation
// happens, so a corrupt length field cannot drive a huge allocation. It is
// a uint64 like the header field: 1<<31 overflows a 32-bit int.
const maxBundlePayload uint64 = 1 << 31

// Sentinel error classes for bundle decoding. Callers match with errors.Is;
// the concrete *BundleError carries the detail.
var (
	ErrBundleTruncated = errors.New("flight: bundle truncated")
	ErrBundleMagic     = errors.New("flight: bad bundle magic")
	ErrBundleVersion   = errors.New("flight: unsupported bundle version")
	ErrBundleChecksum  = errors.New("flight: bundle checksum mismatch")
	ErrBundlePayload   = errors.New("flight: malformed bundle payload")
)

// BundleError wraps a sentinel class with human-readable detail.
type BundleError struct {
	Class  error
	Detail string
}

func (e *BundleError) Error() string { return e.Class.Error() + ": " + e.Detail }

// Unwrap lets errors.Is match the sentinel class.
func (e *BundleError) Unwrap() error { return e.Class }

// bundleErr builds a classed decode error.
func bundleErr(class error, format string, args ...any) error {
	return &BundleError{Class: class, Detail: fmt.Sprintf(format, args...)}
}

// Bundle is one frozen incident: header fields describing the trigger, the
// guard's compiled unsafe-set view at trigger time, and the captured window
// of pre- and post-trigger flight records. Field order is the schema;
// encoding is deterministic (encoding/json emits struct fields in
// declaration order, and Records/Thresholds are slices, never maps).
type Bundle struct {
	Version int    `json:"version"`
	Seq     int    `json:"seq"`
	Cause   string `json:"cause"`
	Core    int    `json:"core"`
	Detail  string `json:"detail,omitempty"`
	// TriggerPS is the virtual-clock instant the trigger fired.
	TriggerPS int64  `json:"trigger_ps"`
	Model     string `json:"model"`
	Seed      int64  `json:"seed"`
	// WindowRecords is the configured post-trigger capture window.
	WindowRecords int        `json:"window_records"`
	Guard         *GuardView `json:"guard,omitempty"`
	Records       []Record   `json:"records"`
}

// Encode serializes the bundle into a framed byte slice.
func (b *Bundle) Encode() ([]byte, error) {
	payload, err := json.Marshal(b)
	if err != nil {
		return nil, fmt.Errorf("flight: encode bundle: %w", err)
	}
	buf := make([]byte, bundleHeaderLen+len(payload))
	copy(buf[0:4], bundleMagic[:])
	binary.BigEndian.PutUint16(buf[4:6], BundleVersion)
	binary.BigEndian.PutUint64(buf[8:16], uint64(len(payload)))
	binary.BigEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(payload))
	copy(buf[bundleHeaderLen:], payload)
	return buf, nil
}

// DecodeBundle parses and validates one framed bundle from the front of
// data, returning the bundle and the number of bytes consumed. Every
// rejection is a *BundleError wrapping one of the sentinel classes; the
// decoder never panics on arbitrary input.
func DecodeBundle(data []byte) (*Bundle, int, error) {
	if len(data) < bundleHeaderLen {
		return nil, 0, bundleErr(ErrBundleTruncated, "%d bytes, need at least %d", len(data), bundleHeaderLen)
	}
	if [4]byte(data[0:4]) != bundleMagic {
		return nil, 0, bundleErr(ErrBundleMagic, "got %q", data[0:4])
	}
	ver := binary.BigEndian.Uint16(data[4:6])
	if ver != BundleVersion {
		return nil, 0, bundleErr(ErrBundleVersion, "got %d, support %d", ver, BundleVersion)
	}
	plen := binary.BigEndian.Uint64(data[8:16])
	if plen > maxBundlePayload {
		return nil, 0, bundleErr(ErrBundlePayload, "declared payload %d exceeds limit %d", plen, maxBundlePayload)
	}
	// Compare in uint64 before converting: on 32-bit words a length at the
	// bound does not fit an int.
	if avail := len(data) - bundleHeaderLen; uint64(avail) < plen {
		return nil, 0, bundleErr(ErrBundleTruncated, "payload declares %d bytes, %d available", plen, avail)
	}
	end := bundleHeaderLen + int(plen)
	payload := data[bundleHeaderLen:end]
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(data[16:20]); got != want {
		return nil, 0, bundleErr(ErrBundleChecksum, "crc32 %08x, header says %08x", got, want)
	}
	var b Bundle
	dec := json.NewDecoder(newByteReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, 0, bundleErr(ErrBundlePayload, "json: %v", err)
	}
	if b.Version != BundleVersion {
		return nil, 0, bundleErr(ErrBundleVersion, "payload declares version %d, frame %d", b.Version, BundleVersion)
	}
	if b.Seq < 1 {
		return nil, 0, bundleErr(ErrBundlePayload, "seq %d out of range", b.Seq)
	}
	if b.TriggerPS < 0 {
		return nil, 0, bundleErr(ErrBundlePayload, "trigger_ps %d negative", b.TriggerPS)
	}
	if b.WindowRecords < 0 {
		return nil, 0, bundleErr(ErrBundlePayload, "window_records %d negative", b.WindowRecords)
	}
	for i, rec := range b.Records {
		if _, ok := kindNames[rec.Kind]; !ok {
			return nil, 0, bundleErr(ErrBundlePayload, "record %d has unknown kind %d", i, rec.Kind)
		}
		if rec.At < 0 {
			return nil, 0, bundleErr(ErrBundlePayload, "record %d at_ps %d negative", i, rec.At)
		}
	}
	return &b, end, nil
}

// byteReader adapts a byte slice for json.Decoder without bytes.NewReader's
// extra interface surface.
type byteReader struct {
	data []byte
	off  int
}

func newByteReader(b []byte) *byteReader { return &byteReader{data: b} }

func (r *byteReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// DecodeAll parses every framed bundle in data (an incidents file is framed
// bundles back to back). Trailing garbage or a corrupt frame fails the whole
// decode — forensic artifacts are all-or-nothing.
func DecodeAll(data []byte) ([]*Bundle, error) {
	var out []*Bundle
	for len(data) > 0 {
		b, n, err := DecodeBundle(data)
		if err != nil {
			return nil, fmt.Errorf("bundle %d: %w", len(out), err)
		}
		out = append(out, b)
		data = data[n:]
	}
	return out, nil
}

// EncodeAll frames the bundles back to back, in order — the on-disk format
// behind -incidents-out.
func EncodeAll(bundles []*Bundle) ([]byte, error) {
	var out []byte
	for i, b := range bundles {
		enc, err := b.Encode()
		if err != nil {
			return nil, fmt.Errorf("bundle %d: %w", i, err)
		}
		out = append(out, enc...)
	}
	return out, nil
}

// Label is the one-line identity used by listings: sequence, cause, core and
// trigger instant.
func (b *Bundle) Label() string {
	return fmt.Sprintf("seq=%d cause=%s core=%d trigger=%s model=%s records=%d",
		b.Seq, b.Cause, b.Core, fmtPS(b.TriggerPS), b.Model, len(b.Records))
}

// fmtPS renders a picosecond instant with a readable unit.
func fmtPS(ps int64) string {
	switch {
	case ps >= 1e12:
		return fmt.Sprintf("%.6fs", float64(ps)/1e12)
	case ps >= 1e6:
		return fmt.Sprintf("%.3fus", float64(ps)/1e6)
	default:
		return fmt.Sprintf("%dps", ps)
	}
}

// describe renders one record's payload for the timeline.
func describe(rec Record) string {
	switch rec.Kind {
	case KindMailboxWrite:
		s := fmt.Sprintf("mailbox_write  offset=%dmV plane=%d %s", rec.A, rec.B, outcomeName(rec.Flag))
		if rec.Span != 0 {
			s += fmt.Sprintf(" span=%016x", rec.Span)
		}
		return s
	case KindPStateRetarget:
		return fmt.Sprintf("pstate         ratio=%d target=%.3fmV", rec.A, float64(rec.B)/1000)
	case KindGuardPoll:
		verdict := "safe"
		if rec.Flag != 0 {
			verdict = "UNSAFE"
		}
		return fmt.Sprintf("guard_poll     ratio=%d offset=%dmV %s", rec.A, rec.B, verdict)
	case KindGuardIntervention:
		status := "failed"
		if rec.Flag != 0 {
			status = "ok"
		}
		return fmt.Sprintf("intervention   offset=%dmV -> safe=%dmV %s", rec.A, rec.B, status)
	case KindEnergySegment:
		return fmt.Sprintf("energy_segment price=%.6fW", float64(rec.A)/1e6)
	case KindFault:
		return fmt.Sprintf("fault          count=%d offset=%dmV", rec.A, rec.B)
	case KindCrash:
		return fmt.Sprintf("crash          offset=%dmV", rec.A)
	case KindTrigger:
		return fmt.Sprintf("TRIGGER        cause_code=%d", rec.A)
	}
	return fmt.Sprintf("%s a=%d b=%d c=%d flag=%d", rec.Kind, rec.A, rec.B, rec.C, rec.Flag)
}

// WriteTimeline pretty-prints the bundle as a human-readable incident
// timeline: header, guard view summary, then every record with its offset
// relative to the trigger instant (negative = pre-trigger).
func (b *Bundle) WriteTimeline(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "incident %s\n", b.Label()); err != nil {
		return err
	}
	if b.Detail != "" {
		fmt.Fprintf(w, "  detail: %s\n", b.Detail)
	}
	if g := b.Guard; g != nil {
		ratios := make([]int, 0, len(g.Thresholds))
		for _, t := range g.Thresholds {
			ratios = append(ratios, t.Ratio)
		}
		fmt.Fprintf(w, "  guard view: model=%s bus=%dMHz margin=%dmV safe=%dmV ratios=%d",
			g.Model, g.BusMHz, g.MarginMV, g.SafeMV, len(g.Thresholds))
		if len(ratios) > 0 {
			fmt.Fprintf(w, " [%d..%d]", ratios[0], ratios[len(ratios)-1])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-14s %-6s %s\n", "t-trigger", "core", "event")
	for _, rec := range b.Records {
		dt := int64(rec.At) - b.TriggerPS
		sign := "+"
		if dt < 0 {
			sign, dt = "-", -dt
		}
		if _, err := fmt.Fprintf(w, "  %s%-13s core%-2d %s\n", sign, fmtPS(dt), rec.Core, describe(rec)); err != nil {
			return err
		}
	}
	return nil
}

// Diff compares two bundles and writes a field-by-field report: header
// deltas, guard-view deltas, and the first diverging record. Returns true
// when the bundles are identical.
func Diff(w io.Writer, a, b *Bundle) (bool, error) {
	same := true
	note := func(format string, args ...any) {
		same = false
		fmt.Fprintf(w, "  "+format+"\n", args...)
	}
	fmt.Fprintf(w, "diff %s\n  vs %s\n", a.Label(), b.Label())
	if a.Cause != b.Cause {
		note("cause: %s vs %s", a.Cause, b.Cause)
	}
	if a.Core != b.Core {
		note("core: %d vs %d", a.Core, b.Core)
	}
	if a.TriggerPS != b.TriggerPS {
		note("trigger_ps: %d vs %d (delta %s)", a.TriggerPS, b.TriggerPS, fmtPS(abs64(a.TriggerPS-b.TriggerPS)))
	}
	if a.Model != b.Model {
		note("model: %s vs %s", a.Model, b.Model)
	}
	if a.Seed != b.Seed {
		note("seed: %d vs %d", a.Seed, b.Seed)
	}
	if a.Detail != b.Detail {
		note("detail: %q vs %q", a.Detail, b.Detail)
	}
	diffGuard(w, a.Guard, b.Guard, note)
	if len(a.Records) != len(b.Records) {
		note("records: %d vs %d", len(a.Records), len(b.Records))
	}
	n := len(a.Records)
	if len(b.Records) < n {
		n = len(b.Records)
	}
	for i := 0; i < n; i++ {
		if a.Records[i] != b.Records[i] {
			note("first diverging record at index %d:", i)
			fmt.Fprintf(w, "    a: %s %s\n", fmtPS(int64(a.Records[i].At)), describe(a.Records[i]))
			fmt.Fprintf(w, "    b: %s %s\n", fmtPS(int64(b.Records[i].At)), describe(b.Records[i]))
			break
		}
	}
	if same {
		fmt.Fprintln(w, "  identical")
	}
	return same, nil
}

// diffGuard reports guard-view deltas, including per-ratio threshold
// differences in ascending ratio order.
func diffGuard(w io.Writer, a, b *GuardView, note func(string, ...any)) {
	switch {
	case a == nil && b == nil:
		return
	case a == nil || b == nil:
		note("guard view: present=%v vs present=%v", a != nil, b != nil)
		return
	}
	if a.Model != b.Model {
		note("guard model: %s vs %s", a.Model, b.Model)
	}
	if a.MarginMV != b.MarginMV {
		note("guard margin: %dmV vs %dmV", a.MarginMV, b.MarginMV)
	}
	if a.SafeMV != b.SafeMV {
		note("guard safe offset: %dmV vs %dmV", a.SafeMV, b.SafeMV)
	}
	at := thresholdMap(a.Thresholds)
	bt := thresholdMap(b.Thresholds)
	ratios := make([]int, 0, len(at)+len(bt))
	for r := range at {
		ratios = append(ratios, r)
	}
	for r := range bt {
		if _, ok := at[r]; !ok {
			ratios = append(ratios, r)
		}
	}
	sort.Ints(ratios)
	for _, r := range ratios {
		av, aok := at[r]
		bv, bok := bt[r]
		switch {
		case !aok:
			note("guard threshold ratio=%d: (none) vs %dmV", r, bv)
		case !bok:
			note("guard threshold ratio=%d: %dmV vs (none)", r, av)
		case av != bv:
			note("guard threshold ratio=%d: %dmV vs %dmV", r, av, bv)
		}
	}
}

func thresholdMap(ts []RatioThreshold) map[int]int {
	m := make(map[int]int, len(ts))
	for _, t := range ts {
		m[t.Ratio] = t.ThresholdMV
	}
	return m
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
