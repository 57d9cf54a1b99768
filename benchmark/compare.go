package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles prints, for every (workload, metric) in both results files,
// both medians, the quartile spread, the delta and a verdict, then each
// workload's failed-op shares and whether its simulated outputs match.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	oldF, err := readResults(oldPath)
	if err != nil {
		return err
	}
	newF, err := readResults(newPath)
	if err != nil {
		return err
	}
	for _, f := range []struct {
		label string
		r     *resultsFile
	}{{"old", oldF}, {"new", newF}} {
		fmt.Fprintf(w, "%s: commit %s  %s  GOMAXPROCS %d  NumCPU %d  %s  seed %d\n",
			f.label, f.r.Host.Commit, f.r.Host.GoVersion, f.r.Host.GOMAXPROCS, f.r.Host.NumCPU, f.r.Host.CPUModel, f.r.Seed)
	}
	if oldF.Seed != newF.Seed {
		fmt.Fprintln(w, "note: the files use different seeds, so their simulated outputs differ by design")
	}
	for _, nw := range newF.Workloads {
		var old *result
		for _, o := range oldF.Workloads {
			if o.Workload == nw.Workload {
				old = o
			}
		}
		if old == nil {
			fmt.Fprintf(w, "\n== %s: only in %s\n", nw.Workload, newPath)
			continue
		}
		fmt.Fprintf(w, "\n== %s\n", nw.Workload)
		fmt.Fprintf(w, "%-40s %-7s %14s %14s %9s %8s  %s\n", "metric", "unit", "old", "new", "delta", "spread", "verdict")
		// A metric the timed pass recorded also appears among a traced run's
		// layers; the timed entry, which has quartiles, wins.
		oldByName := map[string]metricResult{}
		for _, m := range append(old.Layers, old.Metrics...) {
			oldByName[m.Name] = m
		}
		shown := map[string]bool{}
		for _, m := range append(nw.Metrics, nw.Layers...) {
			o, ok := oldByName[m.Name]
			if !ok || shown[m.Name] || (o.Median == 0 && m.Median == 0) {
				continue
			}
			shown[m.Name] = true
			delta := math.NaN()
			if o.Median != 0 {
				delta = (m.Median - o.Median) / math.Abs(o.Median)
			}
			spread := math.Max(o.spread(), m.spread())
			fmt.Fprintf(w, "%-40s %-7s %14.6g %14.6g %+8.2f%% %7.2f%%  %s\n",
				m.Name, m.Unit, o.Median, m.Median, 100*delta, 100*spread, verdict(m, o.summary))
		}
		fmt.Fprintf(w, "failed ops: old %d/%d  new %d/%d\n", old.Failed, old.Ops, nw.Failed, nw.Ops)
		if old.Digest == nw.Digest {
			fmt.Fprintln(w, "simulated-output digests: equal")
		} else {
			fmt.Fprintln(w, "simulated-output digests: DIFFER")
		}
	}
	return nil
}

// verdict judges a new measurement against the old one. A simulated value
// (bound 0) is the same or changed. A timing is unresolved when either
// side's quartile spread exceeds its bound, worse when it got worse by more
// than the bound, better when it improved by more than the spread, and the
// same otherwise.
func verdict(nw metricResult, old summary) string {
	if nw.Bound == 0 {
		if nw.Median == old.Median {
			return "same"
		}
		return "changed"
	}
	if old.Median == 0 {
		return "unresolved"
	}
	worse := (nw.Median - old.Median) / math.Abs(old.Median)
	if nw.Better == "higher" {
		worse = -worse
	}
	spread := math.Max(old.spread(), nw.spread())
	switch {
	case spread > nw.Bound:
		return "unresolved"
	case worse > nw.Bound:
		return "worse"
	case -worse > spread:
		return "better"
	}
	return "same"
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
