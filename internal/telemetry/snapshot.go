package telemetry

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// BucketCount is one histogram bucket in a snapshot: the upper bound and the
// cumulative count of observations <= that bound (Prometheus le semantics).
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Cumulative uint64  `json:"count"`
}

// SeriesSnapshot is one labeled series frozen at snapshot time.
type SeriesSnapshot struct {
	Labels Labels `json:"labels,omitempty"`
	// Value carries counters and gauges.
	Value float64 `json:"value"`
	// Count/Sum/Buckets carry histograms.
	Count   uint64        `json:"count,omitempty"`
	Sum     float64       `json:"sum,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`

	sig string // cached label signature for sorting
}

// MetricSnapshot is one metric family frozen at snapshot time, series sorted
// by label signature.
type MetricSnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Kind   Kind             `json:"kind"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot is the full registry state at one virtual instant, families
// sorted by name. Identically-seeded runs produce byte-identical
// WritePrometheus/JSON renderings of their snapshots (worker-labeled series
// excepted; see the package comment).
type Snapshot struct {
	AtPS    int64            `json:"at_ps"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot freezes the registry. Safe on a nil registry (empty snapshot).
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{}
	if r == nil {
		return snap
	}
	snap.AtPS = int64(r.now())
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := r.fams[n]
		m := MetricSnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			s := f.series[sig]
			ss := SeriesSnapshot{Labels: s.labels.clone(), sig: sig}
			if f.kind == KindHistogram {
				ss.Count = s.n
				ss.Sum = s.sum
				var cum uint64
				for i, b := range f.bounds {
					cum += s.counts[i]
					ss.Buckets = append(ss.Buckets, BucketCount{UpperBound: b, Cumulative: cum})
				}
			} else {
				ss.Value = s.value
			}
			m.Series = append(m.Series, ss)
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	return snap
}

// formatFloat renders floats the same way everywhere so expositions are
// byte-stable: integers without a fraction, everything else in Go's
// shortest-repr 'g' form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabels renders a label set ({k="v",...}) sorted by key, with the
// optional extra pair appended (used for histogram le bounds).
func promLabels(l Labels, extraKey, extraVal string) string {
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%q", k, l[k]))
	}
	if extraKey != "" {
		parts = append(parts, fmt.Sprintf("%s=%q", extraKey, extraVal))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (HELP/TYPE comments, histogram _bucket/_sum/_count expansion).
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# snapshot at_ps %d\n", s.AtPS); err != nil {
		return err
	}
	for _, m := range s.Metrics {
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
			return err
		}
		for _, ss := range m.Series {
			if m.Kind == KindHistogram {
				for _, b := range ss.Buckets {
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name,
						promLabels(ss.Labels, "le", formatFloat(b.UpperBound)), b.Cumulative); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name,
					promLabels(ss.Labels, "le", "+Inf"), ss.Count); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.Name,
					promLabels(ss.Labels, "", ""), formatFloat(ss.Sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", m.Name,
					promLabels(ss.Labels, "", ""), ss.Count); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", m.Name,
				promLabels(ss.Labels, "", ""), formatFloat(ss.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// MergeSnapshots folds several snapshots — one per fleet machine — into a
// single aggregate. Matching series (same family name, same label signature)
// sum: counters and gauges add their values (fleet totals such as stolen
// seconds or poll counts), histograms add counts, sums and per-bucket
// cumulative counts. Unmatched series pass through. Families merge by name
// and series by signature, and the output is emitted with families sorted by
// name and series by signature, so the merged snapshot depends only on the
// values in the inputs — all sums are commutative — never on how the inputs
// were produced or scheduled. AtPS is the maximum input timestamp.
//
// A name carrying two different kinds, or two histogram series of one family
// with different bucket layouts, is an error: those would silently corrupt
// the aggregate.
func MergeSnapshots(snaps ...*Snapshot) (*Snapshot, error) {
	type mergeFam struct {
		m   MetricSnapshot
		idx map[string]int // label signature -> index into m.Series
	}
	fams := map[string]*mergeFam{}
	out := &Snapshot{}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if s.AtPS > out.AtPS {
			out.AtPS = s.AtPS
		}
		for _, m := range s.Metrics {
			f := fams[m.Name]
			if f == nil {
				f = &mergeFam{m: MetricSnapshot{Name: m.Name, Help: m.Help, Kind: m.Kind},
					idx: map[string]int{}}
				fams[m.Name] = f
			} else if f.m.Kind != m.Kind {
				return nil, fmt.Errorf("telemetry: merge: metric %q is both %s and %s",
					m.Name, f.m.Kind, m.Kind)
			}
			for _, ss := range m.Series {
				// Registry.Snapshot and earlier merges cache the signature;
				// a snapshot decoded from JSON carries none.
				sig := ss.sig
				if sig == "" {
					sig = ss.Labels.signature()
				}
				i, ok := f.idx[sig]
				if !ok {
					cp := ss
					cp.Labels = ss.Labels.clone()
					cp.Buckets = append([]BucketCount(nil), ss.Buckets...)
					cp.sig = sig
					f.idx[sig] = len(f.m.Series)
					f.m.Series = append(f.m.Series, cp)
					continue
				}
				dst := &f.m.Series[i]
				dst.Value += ss.Value
				dst.Count += ss.Count
				dst.Sum += ss.Sum
				if len(dst.Buckets) != len(ss.Buckets) {
					return nil, fmt.Errorf("telemetry: merge: metric %q series %s: %d vs %d buckets",
						m.Name, sig, len(dst.Buckets), len(ss.Buckets))
				}
				for b := range ss.Buckets {
					if dst.Buckets[b].UpperBound != ss.Buckets[b].UpperBound {
						return nil, fmt.Errorf("telemetry: merge: metric %q series %s: bucket %d bound %g vs %g",
							m.Name, sig, b, dst.Buckets[b].UpperBound, ss.Buckets[b].UpperBound)
					}
					dst.Buckets[b].Cumulative += ss.Buckets[b].Cumulative
				}
			}
		}
	}
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		sort.Slice(f.m.Series, func(i, j int) bool { return f.m.Series[i].sig < f.m.Series[j].sig })
		out.Metrics = append(out.Metrics, f.m)
	}
	return out, nil
}

// WriteOut renders into the file at path, or into stdout when path is "-":
// the one implementation behind every CLI's output flags.
func WriteOut(path string, stdout io.Writer, render func(io.Writer) error) error {
	if path == "-" {
		return render(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteOutBytes is WriteOut for output already rendered into data.
func WriteOutBytes(path string, stdout io.Writer, data []byte) error {
	return WriteOut(path, stdout, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
