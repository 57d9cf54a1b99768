package telemetry

import "encoding/json"

// Readers only tests use: the CLIs and the fleet render snapshots through
// WritePrometheus and fold them with MergeSnapshots, and instrumented code
// only ever writes its instruments.

// Find returns the named family's snapshot, or nil.
func (s *Snapshot) Find(name string) *MetricSnapshot {
	for i := range s.Metrics {
		if s.Metrics[i].Name == name {
			return &s.Metrics[i]
		}
	}
	return nil
}

// Value returns the scalar of the series matching labels (counter or gauge),
// or 0 if absent.
func (s *Snapshot) Value(name string, labels Labels) float64 {
	m := s.Find(name)
	if m == nil {
		return 0
	}
	sig := labels.signature()
	for _, ss := range m.Series {
		if ss.Labels.signature() == sig {
			return ss.Value
		}
	}
	return 0
}

// Total sums the scalar over every series of the named family.
func (s *Snapshot) Total(name string) float64 {
	m := s.Find(name)
	if m == nil {
		return 0
	}
	var t float64
	for _, ss := range m.Series {
		t += ss.Value
	}
	return t
}

// JSON renders the snapshot as deterministic indented JSON.
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Value reads the current count (0 on a nil counter).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	return c.s.value
}

// Add moves the gauge by v (either sign).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.r.mu.Lock()
	g.s.value += v
	g.r.mu.Unlock()
}

// Value reads the gauge (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.r.mu.Lock()
	defer g.r.mu.Unlock()
	return g.s.value
}

// Count reads the number of observations (0 on a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return h.s.n
}

// Sum reads the sum of observations (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return h.s.sum
}
