// Package flight is the deterministic flight recorder behind the incident
// forensics pipeline: a fixed-capacity ring of compact records continuously
// capturing pre-trigger machine state on the virtual clock — mailbox writes,
// P-state retargets, guard polls and interventions, energy segments — and a
// trigger/capture mechanism that freezes a window of pre- and post-trigger
// records into a versioned incident bundle (see bundle.go).
//
// The recorder inverts the journal's drop-newest policy on purpose: a flight
// recorder exists to explain the *most recent* history before a fault, so the
// ring overwrites its oldest records. Everything else follows the telemetry
// subsystem's determinism rules — timestamps come from an injected
// func() sim.Time, nothing reads the wall clock, and every method is
// nil-receiver safe so instrumented hot paths hold a possibly-nil *Recorder
// and call it unconditionally.
//
// The steady-state Append path is allocation-free (asserted by
// TestRecorderAppendAllocs): records are fixed-size values written into a
// preallocated ring under a mutex. Only a trigger — rare by construction,
// bounded by incidents rather than the poll rate — takes the allocating slow
// path that snapshots the ring into a bundle.
package flight

import (
	"fmt"
	"sync"

	"plugvolt/internal/sim"
)

// Kind discriminates flight records. The zero Kind is invalid, so a decoded
// record with Kind 0 is detectably malformed.
type Kind uint8

// Record kinds and their payload field semantics (A, B, C are
// kind-dependent; unused fields are zero):
const (
	// KindMailboxWrite is one OC-mailbox voltage write command observed at
	// the register file. A = offset mV, B = plane, Flag = outcome
	// (OutcomeAccepted/Rewritten/Blocked), Span = the mailbox_write span ID.
	KindMailboxWrite Kind = iota + 1
	// KindPStateRetarget is one commanded operating-point change (P-state
	// write or mailbox offset landing). A = commanded ratio, B = commanded
	// rail target in microvolts.
	KindPStateRetarget
	// KindGuardPoll is one guard state inspection. A = polled ratio,
	// B = polled offset mV, Flag = 1 when the pair was in the unsafe set.
	KindGuardPoll
	// KindGuardIntervention is one forced return to the safe state.
	// A = offending offset mV, B = safe offset mV, Flag = 1 when the
	// corrective write succeeded.
	KindGuardIntervention
	// KindEnergySegment is one energy-integrator segment boundary.
	// A = the new commanded-point power in microwatts.
	KindEnergySegment
	// KindFault is one observed victim fault site. A = fault count,
	// B = offset mV at the observation.
	KindFault
	// KindCrash is one machine crash. A = offset mV at the crash.
	KindCrash
	// KindTrigger marks the incident trigger instant. A = the cause code
	// (see Cause); the bundle header carries the cause string and detail.
	KindTrigger
)

// kindNames maps kinds to their stable schema names; the bundle codec
// round-trips kinds through these strings and rejects unknown names.
var kindNames = map[Kind]string{
	KindMailboxWrite:      "mailbox_write",
	KindPStateRetarget:    "pstate_retarget",
	KindGuardPoll:         "guard_poll",
	KindGuardIntervention: "guard_intervention",
	KindEnergySegment:     "energy_segment",
	KindFault:             "fault",
	KindCrash:             "crash",
	KindTrigger:           "trigger",
}

// String returns the kind's stable schema name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Mailbox-write outcomes carried in Record.Flag for KindMailboxWrite,
// mirroring the span tracer's outcome attribute.
const (
	OutcomeAccepted  uint8 = 0
	OutcomeRewritten uint8 = 1
	OutcomeBlocked   uint8 = 2
)

// outcomeNames renders mailbox outcomes for the timeline.
func outcomeName(flag uint8) string {
	switch flag {
	case OutcomeAccepted:
		return "accepted"
	case OutcomeRewritten:
		return "rewritten"
	case OutcomeBlocked:
		return "blocked"
	}
	return fmt.Sprintf("outcome(%d)", flag)
}

// Record is one fixed-size flight entry. Field semantics depend on Kind (see
// the Kind constants); keeping the payload as three integers is what makes
// the steady-state append a plain array store.
type Record struct {
	At   sim.Time `json:"at_ps"`
	Kind Kind     `json:"kind"`
	Core int16    `json:"core"`
	Flag uint8    `json:"flag"`
	A    int64    `json:"a"`
	B    int64    `json:"b"`
	C    int64    `json:"c"`
	// Span links the record to its causal span in the trace (0 = none).
	Span uint64 `json:"span,omitempty"`
}

// Cause names what fired an incident trigger.
type Cause string

// Trigger causes.
const (
	CauseFault        Cause = "fault"
	CauseCrash        Cause = "crash"
	CauseSLO          Cause = "slo_violation"
	CauseEnergyBudget Cause = "energy_budget"
	CauseManual       Cause = "manual"
)

// causeCodes gives each cause a stable integer for the trigger record's A
// payload; unknown causes map to 0.
var causeCodes = map[Cause]int64{
	CauseFault: 1, CauseCrash: 2, CauseSLO: 3, CauseEnergyBudget: 4, CauseManual: 5,
}

// RatioThreshold is one compiled guard decision slot: the shallowest offset
// treated as unsafe at a P-state ratio (guard margin folded in).
type RatioThreshold struct {
	Ratio       int `json:"ratio"`
	ThresholdMV int `json:"threshold_mv"`
}

// GuardView is the guard's compiled view of the unsafe set, frozen into
// every bundle so an incident is explainable against the exact boundary the
// guard was enforcing at trigger time. Thresholds are in ascending ratio
// order by construction (the 256-slot LUT is walked in index order).
type GuardView struct {
	Model       string           `json:"model"`
	BusMHz      int              `json:"bus_mhz"`
	MarginMV    int              `json:"margin_mv"`
	SafeMV      int              `json:"safe_mv"`
	Thresholds  []RatioThreshold `json:"thresholds"`
	PollPeriodP int64            `json:"poll_period_ps"`
}

// Defaults for the recorder geometry.
const (
	// DefaultCap is the ring capacity when the constructor gets cap <= 0:
	// enough pre-trigger history to cover several guard poll periods of
	// polls, writes and retargets without growing a machine's footprint.
	DefaultCap = 4096
	// DefaultWindow is the post-trigger record count captured into a bundle
	// when the constructor gets window <= 0.
	DefaultWindow = 256
	// DefaultMaxBundles bounds retained bundles per recorder; captures past
	// the cap are counted as dropped rather than growing without bound.
	DefaultMaxBundles = 16
)

// Stats is the recorder's self-accounting, published as the flight_* metric
// family.
type Stats struct {
	// Records counts every append; Overwrites counts appends that evicted
	// the oldest record (ring saturated).
	Records    uint64 `json:"records"`
	Overwrites uint64 `json:"overwrites"`
	// Triggers counts Trigger calls; Captures counts sealed bundles;
	// BundlesDropped counts captures discarded past the bundle cap.
	Triggers       uint64 `json:"triggers"`
	Captures       uint64 `json:"captures"`
	BundlesDropped uint64 `json:"bundles_dropped"`
	// Len/Cap describe ring utilization; Bundles is the retained count.
	Len     int `json:"len"`
	Cap     int `json:"cap"`
	Window  int `json:"window"`
	Bundles int `json:"bundles"`
}

// capture is an incident in flight: the bundle under construction and the
// post-trigger records still owed to it.
type capture struct {
	bundle    *Bundle
	remaining int
}

// Recorder is the flight ring. Construct with NewRecorder; a nil *Recorder
// is a valid no-op sink (every method nil-checks the receiver).
//
// The mutex exists for the same reason as the journal's: the simulation core
// is single-threaded, but the obs server reads stats and bundles from its
// own goroutines.
type Recorder struct {
	mu  sync.Mutex
	now func() sim.Time

	buf    []Record
	head   uint64 // total records ever appended; buf slot = head % cap
	window int

	records        uint64
	overwrites     uint64
	triggers       uint64
	captures       uint64
	bundlesDropped uint64

	pending    *capture
	bundles    []*Bundle
	maxBundles int
	nextSeq    int

	model string
	seed  int64
	guard *GuardView
}

// NewRecorder builds a recorder clocked by now (nil stamps records at time
// zero), with the given ring capacity and post-trigger window (<= 0 selects
// the defaults). model and seed identify the machine in bundle headers.
func NewRecorder(now func() sim.Time, cap, window int, model string, seed int64) *Recorder {
	if cap <= 0 {
		cap = DefaultCap
	}
	if window <= 0 {
		window = DefaultWindow
	}
	if window > cap {
		window = cap
	}
	return &Recorder{
		now:        now,
		buf:        make([]Record, cap),
		window:     window,
		maxBundles: DefaultMaxBundles,
		nextSeq:    1,
		model:      model,
		seed:       seed,
	}
}

// SetGuardView freezes the guard's compiled unsafe-set view into subsequent
// bundles. The view must not be mutated after handoff.
func (r *Recorder) SetGuardView(v *GuardView) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.guard = v
	r.mu.Unlock()
}

// at reads the recorder clock.
func (r *Recorder) at() sim.Time {
	if r.now == nil {
		return 0
	}
	return r.now()
}

// append writes one record: overwrite-oldest into the ring and, when a
// capture is open, into the pending bundle. Steady state (no open capture)
// performs no allocation.
func (r *Recorder) append(rec Record) {
	r.mu.Lock()
	i := int(r.head % uint64(len(r.buf)))
	if r.head >= uint64(len(r.buf)) {
		r.overwrites++
	}
	r.buf[i] = rec
	r.head++
	r.records++
	if p := r.pending; p != nil {
		p.bundle.Records = append(p.bundle.Records, rec)
		p.remaining--
		if p.remaining <= 0 {
			r.sealLocked()
		}
	}
	r.mu.Unlock()
}

// MailboxWrite records one OC-mailbox voltage write command and its outcome
// at the register file, linked to its causal span.
func (r *Recorder) MailboxWrite(core, offsetMV int, plane uint8, outcome uint8, span uint64) {
	if r == nil {
		return
	}
	r.append(Record{At: r.at(), Kind: KindMailboxWrite, Core: int16(core),
		Flag: outcome, A: int64(offsetMV), B: int64(plane), Span: span})
}

// PStateRetarget records one commanded operating-point change.
func (r *Recorder) PStateRetarget(core int, ratio uint8, targetUV int64) {
	if r == nil {
		return
	}
	r.append(Record{At: r.at(), Kind: KindPStateRetarget, Core: int16(core),
		A: int64(ratio), B: targetUV})
}

// GuardPoll records one guard state inspection.
func (r *Recorder) GuardPoll(core int, ratio uint8, offsetMV int, unsafe bool) {
	if r == nil {
		return
	}
	var f uint8
	if unsafe {
		f = 1
	}
	r.append(Record{At: r.at(), Kind: KindGuardPoll, Core: int16(core),
		Flag: f, A: int64(ratio), B: int64(offsetMV)})
}

// GuardIntervention records one forced return to the safe state.
func (r *Recorder) GuardIntervention(core, offsetMV, safeMV int, ok bool) {
	if r == nil {
		return
	}
	var f uint8
	if ok {
		f = 1
	}
	r.append(Record{At: r.at(), Kind: KindGuardIntervention, Core: int16(core),
		Flag: f, A: int64(offsetMV), B: int64(safeMV)})
}

// EnergySegment records one energy-integrator segment boundary with the new
// commanded-point power in microwatts.
func (r *Recorder) EnergySegment(core int, priceW float64) {
	if r == nil {
		return
	}
	r.append(Record{At: r.at(), Kind: KindEnergySegment, Core: int16(core),
		A: int64(priceW * 1e6)})
}

// Fault records one victim fault observation site.
func (r *Recorder) Fault(core, faults, offsetMV int) {
	if r == nil {
		return
	}
	r.append(Record{At: r.at(), Kind: KindFault, Core: int16(core),
		A: int64(faults), B: int64(offsetMV)})
}

// Crash records one machine crash.
func (r *Recorder) Crash(core, offsetMV int) {
	if r == nil {
		return
	}
	r.append(Record{At: r.at(), Kind: KindCrash, Core: int16(core),
		A: int64(offsetMV)})
}

// Trigger fires an incident: it appends the trigger record, snapshots the
// ring (the pre-trigger history) into a new bundle, and keeps capturing
// until the post-trigger window fills (or Seal is called). A trigger while a
// capture is already open is counted but does not open a second capture —
// the open bundle already covers it.
func (r *Recorder) Trigger(cause Cause, core int, detail string) {
	if r == nil {
		return
	}
	at := r.at()
	r.mu.Lock()
	r.triggers++
	trig := Record{At: at, Kind: KindTrigger, Core: int16(core), A: causeCodes[cause]}
	i := int(r.head % uint64(len(r.buf)))
	if r.head >= uint64(len(r.buf)) {
		r.overwrites++
	}
	r.buf[i] = trig
	r.head++
	r.records++
	if r.pending != nil {
		r.pending.bundle.Records = append(r.pending.bundle.Records, trig)
		r.pending.remaining--
		if r.pending.remaining <= 0 {
			r.sealLocked()
		}
		r.mu.Unlock()
		return
	}
	// Snapshot the ring in time order, with room for the post window so the
	// per-record appends during capture never reallocate.
	n := int(r.head)
	if n > len(r.buf) {
		n = len(r.buf)
	}
	records := make([]Record, 0, n+r.window)
	if r.head > uint64(len(r.buf)) {
		start := int(r.head % uint64(len(r.buf)))
		records = append(records, r.buf[start:]...)
		records = append(records, r.buf[:start]...)
	} else {
		records = append(records, r.buf[:n]...)
	}
	b := &Bundle{
		Version:       BundleVersion,
		Seq:           r.nextSeq,
		Cause:         string(cause),
		Core:          core,
		Detail:        detail,
		TriggerPS:     int64(at),
		Model:         r.model,
		Seed:          r.seed,
		WindowRecords: r.window,
		Guard:         r.guard,
		Records:       records,
	}
	r.nextSeq++
	r.pending = &capture{bundle: b, remaining: r.window}
	r.mu.Unlock()
}

// sealLocked finalizes the pending capture. Caller holds r.mu.
func (r *Recorder) sealLocked() {
	if r.pending == nil {
		return
	}
	b := r.pending.bundle
	r.pending = nil
	r.captures++
	if len(r.bundles) >= r.maxBundles {
		r.bundlesDropped++
		return
	}
	r.bundles = append(r.bundles, b)
}

// Seal closes any open capture with however many post-trigger records
// arrived — the end-of-run flush that keeps a trigger near the end of an
// experiment from losing its bundle.
func (r *Recorder) Seal() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sealLocked()
	r.mu.Unlock()
}

// Bundles returns the sealed bundles in capture order. The returned slice is
// a copy; the bundles themselves are shared and must be treated read-only.
func (r *Recorder) Bundles() []*Bundle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Bundle(nil), r.bundles...)
}

// Stats reports the recorder's self-accounting.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(r.head)
	if n > len(r.buf) {
		n = len(r.buf)
	}
	return Stats{
		Records:        r.records,
		Overwrites:     r.overwrites,
		Triggers:       r.triggers,
		Captures:       r.captures,
		BundlesDropped: r.bundlesDropped,
		Len:            n,
		Cap:            len(r.buf),
		Window:         r.window,
		Bundles:        len(r.bundles),
	}
}
