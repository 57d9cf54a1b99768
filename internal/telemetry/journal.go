package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"plugvolt/internal/sim"
)

// Event is one structured journal entry: a virtual timestamp, a type tag,
// and free-form fields. Fields should hold JSON-friendly scalar values
// (string, int, float64, bool); nested structures are allowed but keep
// entries grep-able.
type Event struct {
	At     sim.Time
	Type   string
	Fields map[string]any
}

// appendJSON renders the event as one deterministic JSON object:
// at_ps and type first, then fields in sorted key order.
func (e Event) appendJSON(buf []byte) ([]byte, error) {
	buf = append(buf, fmt.Sprintf(`{"at_ps":%d,"type":%q`, int64(e.At), e.Type)...)
	keys := make([]string, 0, len(e.Fields))
	for k := range e.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, err := json.Marshal(e.Fields[k])
		if err != nil {
			return nil, fmt.Errorf("telemetry: event %q field %q: %w", e.Type, k, err)
		}
		buf = append(buf, ',')
		kb, _ := json.Marshal(k)
		buf = append(buf, kb...)
		buf = append(buf, ':')
		buf = append(buf, v...)
	}
	return append(buf, '}'), nil
}

// Journal is a bounded, append-only structured event log. When the cap is
// reached, further events are dropped rather than evicting history — an experiment's opening (module load, first interventions) is
// usually the part worth keeping, and a hard bound keeps memory safe under
// runaway emitters like per-tick kthread wakes. Emit on a nil *Journal is a
// no-op.
type Journal struct {
	mu     sync.Mutex
	clock  Clock
	cap    int
	events []Event
	// onDrop, when set, runs once per dropped event (outside the journal
	// lock), letting NewSet surface the loss as a telemetry counter.
	onDrop func()
}

// DefaultJournalCap bounds a journal when the caller passes cap <= 0.
const DefaultJournalCap = 1 << 16

// NewJournal builds a journal stamped by clock, bounded at cap events
// (cap <= 0 selects DefaultJournalCap).
func NewJournal(clock Clock, cap int) *Journal {
	if cap <= 0 {
		cap = DefaultJournalCap
	}
	return &Journal{clock: clock, cap: cap}
}

// Emit appends one event stamped with the current virtual time.
func (j *Journal) Emit(typ string, fields map[string]any) {
	if j == nil {
		return
	}
	var at sim.Time
	if j.clock != nil {
		at = j.clock()
	}
	j.mu.Lock()
	if len(j.events) >= j.cap {
		cb := j.onDrop
		j.mu.Unlock()
		if cb != nil {
			cb()
		}
		return
	}
	j.events = append(j.events, Event{At: at, Type: typ, Fields: fields})
	j.mu.Unlock()
}

// Full reports whether the journal has reached its cap, i.e. whether the
// next Emit would be rejected under the drop-newest policy. Periodic hot
// paths check it to skip building event field maps that cannot be retained;
// events suppressed this way are not reported to OnDrop. Nil-safe.
func (j *Journal) Full() bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events) >= j.cap
}

// OnDrop registers a callback invoked once per event rejected at the cap
// (after the drop is counted, outside the journal lock). A nil journal or
// nil callback is a no-op.
func (j *Journal) OnDrop(fn func()) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.onDrop = fn
	j.mu.Unlock()
}

// Events returns a copy of the retained events in emission order.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events...)
}

// OfType returns retained events matching typ, in emission order.
func (j *Journal) OfType(typ string) []Event {
	var out []Event
	for _, e := range j.Events() {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSONL renders the journal as one JSON object per line, in emission
// order, each with deterministic key order (at_ps, type, then sorted
// fields). Byte-identical across identically-seeded runs as long as every
// emitter is driven by the virtual clock.
func (j *Journal) WriteJSONL(w io.Writer) error {
	var buf []byte
	for _, e := range j.Events() {
		buf = buf[:0]
		b, err := e.appendJSON(buf)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
