// Command benchmark is plugvolt's end-to-end benchmark. It times the
// simulator from outside, in host wall time, by calling the repository's
// packages the way its tools do, and checks every simulated output it
// produces against an oracle. Run it from the repository root:
//
//	bash benchmark/run.sh --workload fleet-idle --seed 42 --seconds 20 --trace 0
//	bash benchmark/run.sh -workload all -trace 1 -out new.json -trace-out trace.json
//	bash benchmark/run.sh -compare old.json new.json
//
// Each workload is a closed loop with one client: the next op starts when
// the previous one returns. -trace 1 adds a separate traced pass that
// records spans around each call into a layer and reports per-layer
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets a workload up; setup_s is the
// median, so one slow repetition (a cold page cache, say) does not move it.
const setupRepeats = 3

// maxTracedOps bounds the traced pass; it also stops once a third of
// -seconds has passed.
const maxTracedOps = 20

// A workload is one set of inputs the benchmark runs. setup builds an
// instance for a seed.
type workload struct {
	name  string
	setup func(env runEnv) (instance, error)
}

// runEnv is what a workload's setup receives.
type runEnv struct {
	seed int64
	repo string // repository root: artifacts/ lives here
}

// instance is a set-up workload.
type instance interface {
	// reference computes, once per run, outputs the ops are checked against.
	reference() error
	// op runs one operation, records its named samples in rec, and returns
	// a digest of its simulated outputs. tr is nil in the timed pass. An
	// error marks the op failed; the run goes on.
	op(tr *tracer, rec *recorder) (string, error)
	// layers derives the workload's per-layer metrics from the traced pass.
	layers(tp *tracePass) (map[string]float64, error)
}

// workloads lists every workload in the order -workload all runs them.
var workloads = []workload{
	{"report-bundle", setupBundle},
	{"characterize-paper", setupFigs},
	{"fleet-idle", setupFleetIdle},
	{"fleet-attack", setupFleetAttack},
	{"guard-steady", setupGuard},
}

// recorder collects an op's named samples.
type recorder struct{ samples map[string][]float64 }

func newRecorder() *recorder { return &recorder{samples: map[string][]float64{}} }

func (r *recorder) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

func (r *recorder) median(name string) float64 { return summarize(r.samples[name]).Median }

// tracePass is what a workload's layers method reads: the traced pass's
// spans and the timed pass's samples.
type tracePass struct {
	tr    *tracer
	timed *recorder
	rec   *recorder // samples the traced ops recorded
}

// result is one workload run.
type result struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Ops      int            `json:"ops"`
	Failed   int            `json:"failed_ops"`
	Correct  bool           `json:"correct"`
	Digest   string         `json:"digest"`
	Metrics  []metricResult `json:"metrics"`
	Layers   []metricResult `json:"layers,omitempty"`
	Failures []string       `json:"failures,omitempty"`
	// SelfMS is the traced pass's self time per layer, in milliseconds.
	SelfMS map[string]float64 `json:"self_ms,omitempty"`
}

type metricResult struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	summary
}

func newMetricResult(d metricDef, s summary) metricResult {
	return metricResult{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound, summary: s}
}

// fail records an op failure.
func (r *result) fail(err error) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, err.Error())
	}
}

// run runs one workload: setup (repeated), the reference, one warm-up op,
// the timed pass and, when traced, the traced pass.
func run(w workload, env runEnv, seconds float64, traced bool, log io.Writer) (*result, *tracer, error) {
	res := &result{Workload: w.name, Seed: env.seed, Correct: true}
	heap := watchHeap()
	var inst instance
	digests := map[string]bool{}
	doOp := func(tr *tracer, rec *recorder) time.Duration {
		start := time.Now()
		d, err := inst.op(tr, rec)
		el := time.Since(start)
		res.Ops++
		if err != nil {
			res.fail(err)
			fmt.Fprintf(log, "%s: op %d failed: %v\n", w.name, res.Ops, err)
		} else {
			digests[d] = true
		}
		return el
	}

	// Set-up is everything before the timed pass: building the inputs, the
	// reference outputs and one checked warm-up op, which pays for any
	// cache or lazily built state the ops share. Work moved out of the ops
	// into any of these shows in setup_s.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		in, err := w.setup(env)
		if err != nil {
			heap.stop()
			return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		inst = in
		if err := inst.reference(); err != nil {
			heap.stop()
			return nil, nil, fmt.Errorf("%s: reference: %w", w.name, err)
		}
		doOp(nil, newRecorder())
		setups = append(setups, time.Since(start).Seconds())
	}
	if len(digests) > 1 {
		res.fail(fmt.Errorf("%s: the %d set-ups' warm-up ops disagree: %w", w.name, setupRepeats, errMismatch))
	}

	timed := newRecorder()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		timed.add("op_ms", ms(doOp(nil, timed)))
	}
	timed.add("peak_heap_mb", float64(heap.stop())/(1<<20))
	for _, s := range setups {
		timed.add("setup_s", s)
	}
	res.Metrics = collect(timed)

	var tr *tracer
	if traced {
		tr = newTracer()
		tp := &tracePass{tr: tr, timed: timed, rec: newRecorder()}
		var opMS []float64
		start := time.Now()
		for n := 0; n == 0 || (n < maxTracedOps && time.Since(start).Seconds() < seconds/3); n++ {
			tr.op = n
			root := tr.begin("bench.op")
			el := doOp(tr, tp.rec)
			tr.end(root)
			opMS = append(opMS, ms(el))
		}
		vals, err := inst.layers(tp)
		if err != nil {
			res.Correct = false
			res.Failures = append(res.Failures, err.Error())
		}
		if vals == nil {
			vals = map[string]float64{}
		}
		probes, err := isolatedProbes(env.seed)
		if err != nil {
			res.Correct = false
			res.Failures = append(res.Failures, err.Error())
		}
		for k, v := range probes {
			vals[k] = v
		}
		self := tr.selfTimes()
		var selfSum time.Duration
		res.SelfMS = map[string]float64{}
		for l, d := range self {
			selfSum += d
			res.SelfMS[l] = ms(d)
		}
		vals["trace.overhead_pct"] = 100 * (summarize(opMS).Median/timed.median("op_ms") - 1)
		vals["trace.self_coverage_pct"] = pct(selfSum, tr.rootTime())
		for k, v := range tp.timed.samples {
			if def, ok := lookup(k); ok && def.kind == perLayer {
				vals[k] = summarize(v).Median
			}
		}
		res.Layers = layerResults(vals)
	}

	res.Correct = res.Correct && res.Failed == 0
	keys := make([]string, 0, len(digests))
	for d := range digests {
		keys = append(keys, d)
	}
	sort.Strings(keys)
	h := sha256.Sum256([]byte(strings.Join(keys, "\n")))
	res.Digest = hex.EncodeToString(h[:])
	return res, tr, nil
}

// digestOf hashes named simulated outputs in name order.
func digestOf(parts map[string][]byte) string {
	names := make([]string, 0, len(parts))
	for n := range parts {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s %d\n", n, len(parts[n]))
		h.Write(parts[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// collect summarizes the timed pass: every end-to-end metric, and every
// per-layer metric the ops recorded themselves.
func collect(rec *recorder) []metricResult {
	var out []metricResult
	for _, def := range metricDefs {
		if samples, ok := rec.samples[def.name]; ok || def.kind == endToEnd {
			out = append(out, newMetricResult(def, summarize(samples)))
		}
	}
	return out
}

// layerResults lays out every per-layer metric in definition order. A
// metric of a layer the workload never calls reads 0.
func layerResults(vals map[string]float64) []metricResult {
	var out []metricResult
	for _, def := range metricDefs {
		if def.kind == perLayer {
			v := vals[def.name]
			out = append(out, newMetricResult(def, summary{Median: v, Q1: v, Q3: v, N: 1}))
		}
	}
	return out
}

// contractLine is the run's last line of standard output.
func contractLine(res *result, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	want, from := endToEnd, res.Metrics
	if traced {
		want, from = perLayer, res.Layers
	}
	metrics := map[string]value{}
	for _, m := range from {
		if def, _ := lookup(m.Name); def.kind == want {
			metrics[m.Name] = value{m.Median, m.Unit}
		}
	}
	return json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Ops, "failed": res.Failed, "metrics": metrics,
	})
}

// writeTable prints one workload's metrics by name and unit.
func writeTable(w io.Writer, res *result, tr *tracer) {
	fmt.Fprintf(w, "\n== %s  seed %d  ops %d  failed %d  correct %v\n", res.Workload, res.Seed, res.Ops, res.Failed, res.Correct)
	fmt.Fprintf(w, "simulated-output digest %s\n", res.Digest)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "failure: %s\n", f)
	}
	fmt.Fprintf(w, "%-40s %-7s %14s %14s %14s %20s %6s\n", "metric", "unit", "median", "q1", "q3", "tail", "n")
	for _, m := range res.Metrics {
		tail := "-"
		if m.TailPct > 0 {
			tail = fmt.Sprintf("p%g=%.6g", m.TailPct, m.Tail)
		}
		fmt.Fprintf(w, "%-40s %-7s %14.6g %14.6g %14.6g %20s %6d\n", m.Name, m.Unit, m.Median, m.Q1, m.Q3, tail, m.N)
	}
	if tr == nil {
		return
	}
	fmt.Fprintf(w, "-- per-layer (traced pass, %d ops)\n", tr.op+1)
	for _, m := range res.Layers {
		if m.Median != 0 {
			fmt.Fprintf(w, "%-40s %-7s %14.6g\n", m.Name, m.Unit, m.Median)
		}
	}
	fmt.Fprintln(w, "-- self time per layer (span duration minus child spans)")
	tr.writeSelfTimes(w)
}

// host describes the machine and build a results file was measured on.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func hostInfo(withCPUModel bool) host {
	h := host{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: "unknown", OS: runtime.GOOS, Arch: runtime.GOARCH}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+modified"
				}
			}
		}
	}
	if withCPUModel {
		h.CPUModel = cpuModel()
	}
	return h
}

// cpuModel reads the processor name from /proc/cpuinfo, where it exists.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Host      host      `json:"host"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Traced    bool      `json:"traced"`
	Workloads []*result `json:"workloads"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 42, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "how long the timed pass of each workload measures")
	traceFlag := fs.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "write the traced pass's spans to this file as Chrome-trace JSON")
	out := fs.String("out", "", "write the results file here")
	compare := fs.Bool("compare", false, "compare two results files: -compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two results files: OLD NEW")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) || *seconds < 0 {
		fs.Usage()
		return 2
	}
	traced := *traceFlag == 1
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if _, err := os.Stat(filepath.Join("artifacts", "index.md")); err != nil {
		fmt.Fprintf(stderr, "benchmark: run from the root of a plugvolt checkout: %v\n", err)
		return 1
	}

	h := hostInfo(*out != "")
	fmt.Fprintf(stdout, "plugvolt benchmark  GOMAXPROCS %d  NumCPU %d  %s  commit %s  seed %d  seconds %g\n",
		h.GOMAXPROCS, h.NumCPU, h.GoVersion, h.Commit, *seed, *seconds)
	file := resultsFile{Host: h, Seed: *seed, Seconds: *seconds, Traced: traced}
	var lines [][]byte
	var traces []*tracer
	for _, w := range selected {
		res, tr, err := run(w, runEnv{seed: *seed, repo: "."}, *seconds, traced, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		writeTable(stdout, res, tr)
		line, err := contractLine(res, traced)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		lines = append(lines, line)
		file.Workloads = append(file.Workloads, res)
		if tr != nil {
			tr.workload = w.name
			traces = append(traces, tr)
		}
	}
	if *traceOut != "" && traced {
		if err := writeFile(*traceOut, func(w io.Writer) error { return writeChrome(w, traces) }); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeFile(*out, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(file)
		}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, l := range lines {
		fmt.Fprintf(stdout, "%s\n", l)
	}
	return 0
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// errMismatch marks an oracle failure.
var errMismatch = errors.New("output differs from the oracle")
