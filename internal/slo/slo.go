// Package slo turns the paper's temporal safety argument into
// machine-checked service-level objectives over the causal span trace.
//
// The polling countermeasure's guarantee is temporal: the window between an
// unsafe `wrmsr 0x150` and the guard's corrective rewrite must stay shorter
// than the time the regulator needs to reach fault depth (PAPER.md §S2;
// V0LTpwn demonstrates how little unsafe dwell an attacker needs). A guard
// that is loaded but stalled — kthread wedged, period misconfigured, module
// unloaded by the adversary — silently forfeits that guarantee while every
// counter keeps its last healthy value. The watchdog makes the failure
// loud: declarative rules are evaluated against the virtual clock using the
// span tracer (guard_poll / guard_intervention / mailbox_write spans) and
// the event journal, and violations become journal events plus a non-zero
// exit from `plugvolt-guard -slo`.
//
// Evaluate is pure — it never mutates the journal or tracer — so live
// health endpoints can call it repeatedly; EmitJournal records a report's
// violations explicitly.
package slo

import (
	"fmt"
	"sort"
	"strings"

	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
	"plugvolt/internal/telemetry/span"
)

// Kind names one rule family.
type Kind string

// Rule kinds.
const (
	// KindPollLatencyP99 bounds the 99th percentile CPU cost of a single
	// guard poll. Limit is a duration.
	KindPollLatencyP99 Kind = "poll_latency_p99"
	// KindMaxPollGap bounds the virtual time between consecutive guard
	// polls on the same core, and from the last poll to the end of the
	// evaluation window — the stall detector. With NumCores set, a core
	// that never polls has stalled for the whole window. Limit is a
	// duration.
	KindMaxPollGap Kind = "max_poll_gap"
	// KindMaxUnsafeDwell bounds the time from an accepted unsafe non-guard
	// mailbox write to the guard intervention that closes it. Limit is a
	// duration.
	KindMaxUnsafeDwell Kind = "max_unsafe_dwell"
	// KindInterventionClosure requires every accepted unsafe non-guard
	// write to be closed by a later guard intervention on the same core
	// before the window ends, and every observed fault to fall inside an
	// open unsafe window (a fault with no unsafe write preceding it points
	// at out-of-band injection). Limit is ignored.
	KindInterventionClosure Kind = "intervention_closure"
	// KindGuardEnergyBudget bounds the guard's mean attributed power on
	// every core: kernel-attributed joules over the window divided by the
	// window length must stay under BudgetW. A guard that keeps the fault
	// guarantee by burning watts has just moved the denial of service into
	// the electricity bill; this rule makes that loud. Limit is ignored;
	// BudgetW is the bound. Skipped when the watchdog has no energy source.
	KindGuardEnergyBudget Kind = "guard_energy_budget"
)

// Rule is one declarative objective.
type Rule struct {
	Kind Kind
	// Limit is the rule's bound; its meaning depends on Kind (see the Kind
	// constants). Ignored by KindInterventionClosure and KindGuardEnergyBudget.
	Limit sim.Duration
	// BudgetW is the per-core mean-power bound of KindGuardEnergyBudget, in
	// watts. Ignored by the other kinds.
	BudgetW float64
}

// String renders the rule for reports.
func (r Rule) String() string {
	switch r.Kind {
	case KindInterventionClosure:
		return string(r.Kind)
	case KindGuardEnergyBudget:
		return fmt.Sprintf("%s<=%gW", r.Kind, r.BudgetW)
	}
	return fmt.Sprintf("%s<=%v", r.Kind, sim.Time(r.Limit))
}

// EnergyBudgetRule builds the energy-budget objective with a per-core mean
// guard power bound in watts.
func EnergyBudgetRule(budgetW float64) Rule {
	return Rule{Kind: KindGuardEnergyBudget, BudgetW: budgetW}
}

// DefaultRules derives the standard rule set from the guard's poll period:
//
//   - poll latency p99 within 2 us (a poll is two rdmsr plus at most one
//     intervention wrmsr; anything slower points at a broken cost model or
//     a runaway poll body);
//   - no poll gap beyond 4 poll periods (stall detection with slack for
//     load/unload edges);
//   - unsafe dwell within 2 poll periods plus the wrmsr cost (detection
//     latency of Algorithm 3's polling loop at the register level);
//   - full intervention closure.
func DefaultRules(pollPeriod sim.Duration) []Rule {
	return []Rule{
		{Kind: KindPollLatencyP99, Limit: 2 * sim.Microsecond},
		{Kind: KindMaxPollGap, Limit: 4 * pollPeriod},
		{Kind: KindMaxUnsafeDwell, Limit: 2*pollPeriod + 10*sim.Microsecond},
		{Kind: KindInterventionClosure},
	}
}

// Violation is one rule breach.
type Violation struct {
	Rule Rule
	// Core is the affected core, -1 when not core-specific.
	Core int
	// At is the virtual time the breach is anchored to.
	At sim.Time
	// Measured is the observed value (duration for latency/gap/dwell rules;
	// 0 for closure).
	Measured sim.Duration
	Detail   string
}

// String renders one violation line.
func (v Violation) String() string {
	core := "-"
	if v.Core >= 0 {
		core = fmt.Sprintf("%d", v.Core)
	}
	return fmt.Sprintf("SLO VIOLATION %-20s core=%s at=%v: %s", v.Rule.Kind, core, v.At, v.Detail)
}

// Stats summarizes what the evaluation saw.
type Stats struct {
	Polls           int
	Interventions   int
	AcceptedWrites  int
	UnsafeWrites    int
	GuardedWrites   int
	Faults          int
	PollLatencyP99  sim.Duration
	MaxPollGap      sim.Duration
	MaxUnsafeDwell  sim.Duration
	UnclosedWindows int
	// MaxGuardPowerW is the worst per-core mean attributed guard power seen
	// by the energy-budget rule (0 when the rule didn't run).
	MaxGuardPowerW float64
}

// Report is the outcome of one Evaluate call.
type Report struct {
	End        sim.Time
	Rules      []Rule
	Violations []Violation
	Stats      Stats
	// Truncated reports that the span buffer overflowed (drop-newest) and
	// the window was clamped to the last recorded span — verdicts beyond
	// that horizon are unknowable, not clean.
	Truncated bool
}

// OK reports whether every rule held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Summary renders a human-readable report.
func (r *Report) Summary() string {
	var sb strings.Builder
	status := "OK"
	if !r.OK() {
		status = fmt.Sprintf("%d VIOLATIONS", len(r.Violations))
	}
	fmt.Fprintf(&sb, "SLO %s (window end %v)\n", status, r.End)
	if r.Truncated {
		sb.WriteString("  WARNING: span buffer overflowed; window clamped to the recorded horizon\n")
	}
	fmt.Fprintf(&sb, "  polls=%d interventions=%d writes(accepted=%d unsafe=%d guard=%d) faults=%d\n",
		r.Stats.Polls, r.Stats.Interventions, r.Stats.AcceptedWrites,
		r.Stats.UnsafeWrites, r.Stats.GuardedWrites, r.Stats.Faults)
	fmt.Fprintf(&sb, "  poll_latency_p99=%v max_poll_gap=%v max_unsafe_dwell=%v unclosed=%d\n",
		sim.Time(r.Stats.PollLatencyP99), sim.Time(r.Stats.MaxPollGap),
		sim.Time(r.Stats.MaxUnsafeDwell), r.Stats.UnclosedWindows)
	if r.Stats.MaxGuardPowerW > 0 {
		fmt.Fprintf(&sb, "  max_guard_power=%.6gW\n", r.Stats.MaxGuardPowerW)
	}
	for _, rule := range r.Rules {
		fmt.Fprintf(&sb, "  rule %v\n", rule)
	}
	for _, v := range r.Violations {
		sb.WriteString("  " + v.String() + "\n")
	}
	return sb.String()
}

// maxViolationEvents caps the journal events EmitJournal writes per report,
// so a long stall cannot flood the bounded journal.
const maxViolationEvents = 100

// EmitJournal records the report into the journal: one slo_violation event
// per breach (capped) plus one slo_report summary event.
func (r *Report) EmitJournal(j *telemetry.Journal) {
	if j == nil {
		return
	}
	for i, v := range r.Violations {
		if i >= maxViolationEvents {
			break
		}
		j.Emit("slo_violation", map[string]any{
			"rule": string(v.Rule.Kind), "core": v.Core, "at_ps": int64(v.At),
			"measured_ps": int64(v.Measured), "limit_ps": int64(v.Rule.Limit),
			"detail": v.Detail,
		})
	}
	j.Emit("slo_report", map[string]any{
		"ok": r.OK(), "violations": len(r.Violations),
		"polls": r.Stats.Polls, "interventions": r.Stats.Interventions,
		"unsafe_writes": r.Stats.UnsafeWrites, "faults": r.Stats.Faults,
	})
}

// Watchdog evaluates SLO rules over a tracer and journal.
type Watchdog struct {
	Tracer  *span.Tracer
	Journal *telemetry.Journal
	Rules   []Rule
	// Unsafe classifies an accepted non-guard mailbox write: true when
	// (core's frequency, offset) is in the characterized unsafe set. The
	// dwell and closure rules only consider writes this reports unsafe;
	// a nil predicate treats every negative-offset write as unsafe (a
	// conservative fallback when no characterization is at hand).
	Unsafe func(core, offsetMV int) bool
	// GuardEnergyJ reports the kernel-attributed guard energy on a core in
	// joules (kernel.Kernel.EnergyJ); NumCores bounds the scan. Both must
	// be set for KindGuardEnergyBudget to run — a nil source skips the rule
	// rather than fabricating a zero reading.
	GuardEnergyJ func(core int) float64
	// NumCores is the machine's core count. KindMaxPollGap expects a poll
	// on each of cores 0..NumCores-1, so a trace that shows none on a core
	// fails instead of passing unseen.
	NumCores int
}

// window is one open unsafe interval on a core.
type window struct {
	core  int
	start sim.Time
	end   sim.Time // closure time; end == -1 while open
}

// Evaluate checks every rule against the spans and journal up to virtual
// time end. It is pure: repeated calls with the same inputs return equal
// reports and nothing is mutated.
func (w *Watchdog) Evaluate(end sim.Time) *Report {
	rep := &Report{End: end, Rules: w.Rules}
	spans := sortSpans(w.Tracer.Spans())
	// A saturated drop-newest buffer records nothing past some horizon; a
	// poll "gap" from there to end is an artifact of truncation, not a
	// stall. Clamp the window to the last recorded span so the rules only
	// judge time the trace actually covers.
	if w.Tracer.Dropped() > 0 && len(spans) > 0 {
		if horizon := spans[len(spans)-1].Start; horizon < end {
			end = horizon
			rep.End = end
			rep.Truncated = true
		}
	}
	byID := make(map[span.ID]*span.Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}

	var polls, interventions, writes []*span.Span
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "guard_poll":
			polls = append(polls, s)
		case "guard_intervention":
			interventions = append(interventions, s)
		case "mailbox_write":
			if attrString(s, "outcome") == "accepted" {
				writes = append(writes, s)
			}
		}
	}
	rep.Stats.Polls = len(polls)
	rep.Stats.Interventions = len(interventions)
	rep.Stats.AcceptedWrites = len(writes)

	// Partition accepted writes into guard-issued (parent chain reaches a
	// guard_intervention span) and foreign, and keep the unsafe foreigners.
	guarded := func(s *span.Span) bool {
		cur := s
		for depth := 0; cur != nil && depth < 64; depth++ {
			if cur.Name == "guard_intervention" {
				return true
			}
			if cur.Parent == 0 {
				return false
			}
			cur = byID[cur.Parent]
		}
		return false
	}
	unsafe := func(core, offsetMV int) bool {
		if w.Unsafe != nil {
			return w.Unsafe(core, offsetMV)
		}
		return offsetMV < 0
	}
	var unsafeWrites []*span.Span
	for _, s := range writes {
		if guarded(s) {
			rep.Stats.GuardedWrites++
			continue
		}
		if unsafe(attrInt(s, "core"), attrInt(s, "offset_mv")) {
			unsafeWrites = append(unsafeWrites, s)
		}
	}
	rep.Stats.UnsafeWrites = len(unsafeWrites)

	// Build unsafe windows: each unsafe write opens (or extends) a window on
	// its core; the next guard intervention on that core closes every window
	// open on it.
	windows := buildWindows(unsafeWrites, interventions, end)

	for _, rule := range w.Rules {
		switch rule.Kind {
		case KindPollLatencyP99:
			w.checkPollLatency(rep, rule, polls)
		case KindMaxPollGap:
			w.checkPollGap(rep, rule, polls, end)
		case KindMaxUnsafeDwell:
			w.checkDwell(rep, rule, windows)
		case KindInterventionClosure:
			w.checkClosure(rep, rule, windows, end)
		case KindGuardEnergyBudget:
			w.checkEnergyBudget(rep, rule, end)
		}
	}
	return rep
}

// checkEnergyBudget converts each core's attributed joules into mean watts
// over the window and compares against the budget. Pure: the energy source
// is a cumulative-counter read, never a mutation.
func (w *Watchdog) checkEnergyBudget(rep *Report, rule Rule, end sim.Time) {
	if w.GuardEnergyJ == nil || w.NumCores <= 0 || end <= 0 {
		return
	}
	windowS := end.Seconds()
	for core := 0; core < w.NumCores; core++ {
		avgW := w.GuardEnergyJ(core) / windowS
		if avgW > rep.Stats.MaxGuardPowerW {
			rep.Stats.MaxGuardPowerW = avgW
		}
		if avgW > rule.BudgetW {
			rep.Violations = append(rep.Violations, Violation{
				Rule: rule, Core: core, At: end,
				Detail: fmt.Sprintf("guard mean power %.6g W over budget %g W (%.6g J in %v)",
					avgW, rule.BudgetW, w.GuardEnergyJ(core), end),
			})
		}
	}
}

// sortSpans orders spans by (Start, Track, Seq) — deterministic regardless
// of emission interleaving, mirroring the exporters.
func sortSpans(spans []span.Span) []span.Span {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		return a.Seq < b.Seq
	})
	return spans
}

func attrInt(s *span.Span, key string) int {
	switch v := s.Attrs[key].(type) {
	case int:
		return v
	case int64:
		return int(v)
	case float64:
		return int(v)
	}
	return 0
}

func attrString(s *span.Span, key string) string {
	v, _ := s.Attrs[key].(string)
	return v
}

// buildWindows pairs unsafe writes with the interventions that close them.
// Both slices are in time order.
func buildWindows(unsafeWrites, interventions []*span.Span, end sim.Time) []window {
	perCore := map[int][]*span.Span{}
	for _, iv := range interventions {
		c := attrInt(iv, "core")
		perCore[c] = append(perCore[c], iv)
	}
	out := make([]window, 0, len(unsafeWrites))
	for _, uw := range unsafeWrites {
		c := attrInt(uw, "core")
		win := window{core: c, start: uw.Start, end: -1}
		for _, iv := range perCore[c] {
			if iv.Start >= uw.Start {
				win.end = iv.Start
				break
			}
		}
		out = append(out, win)
	}
	return out
}

func (w *Watchdog) checkPollLatency(rep *Report, rule Rule, polls []*span.Span) {
	if len(polls) == 0 {
		return
	}
	durs := make([]sim.Duration, len(polls))
	for i, p := range polls {
		durs[i] = p.Dur
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	// Nearest-rank p99.
	idx := (99*len(durs) + 99) / 100
	if idx > 0 {
		idx--
	}
	p99 := durs[idx]
	rep.Stats.PollLatencyP99 = p99
	if p99 > rule.Limit {
		rep.Violations = append(rep.Violations, Violation{
			Rule: rule, Core: -1, At: rep.End, Measured: p99,
			Detail: fmt.Sprintf("poll latency p99 %v over limit %v (%d polls)",
				sim.Time(p99), sim.Time(rule.Limit), len(durs)),
		})
	}
}

func (w *Watchdog) checkPollGap(rep *Report, rule Rule, polls []*span.Span, end sim.Time) {
	// Group poll start times per core (spans are already time-sorted). Every
	// core below NumCores is judged, polled or not.
	perCore := map[int][]sim.Time{}
	cores := []int{}
	for c := 0; c < w.NumCores; c++ {
		perCore[c] = nil
		cores = append(cores, c)
	}
	for _, p := range polls {
		c := attrInt(p, "core")
		if _, ok := perCore[c]; !ok {
			cores = append(cores, c)
		}
		perCore[c] = append(perCore[c], p.Start)
	}
	sort.Ints(cores)
	for _, c := range cores {
		times := perCore[c]
		worstGap := sim.Duration(0)
		worstAt := sim.Time(0)
		for i := 1; i < len(times); i++ {
			if g := times[i] - times[i-1]; g > worstGap {
				worstGap, worstAt = g, times[i]
			}
		}
		// The stall case: polls stop before the window ends, or a core
		// never polls at all and stalls for the whole window.
		last, why := sim.Time(0), "guard stalled?"
		if n := len(times); n > 0 {
			last = times[n-1]
		} else {
			why = "no poll in the window"
		}
		if g := end - last; g > worstGap {
			worstGap, worstAt = g, end
		}
		if worstGap > rep.Stats.MaxPollGap {
			rep.Stats.MaxPollGap = worstGap
		}
		if worstGap > rule.Limit {
			rep.Violations = append(rep.Violations, Violation{
				Rule: rule, Core: c, At: worstAt, Measured: worstGap,
				Detail: fmt.Sprintf("poll gap %v over limit %v (%s)",
					sim.Time(worstGap), sim.Time(rule.Limit), why),
			})
		}
	}
}

func (w *Watchdog) checkDwell(rep *Report, rule Rule, windows []window) {
	for _, win := range windows {
		if win.end < 0 {
			continue // unclosed: the closure rule reports it
		}
		dwell := win.end - win.start
		if dwell > rep.Stats.MaxUnsafeDwell {
			rep.Stats.MaxUnsafeDwell = dwell
		}
		if dwell > rule.Limit {
			rep.Violations = append(rep.Violations, Violation{
				Rule: rule, Core: win.core, At: win.start, Measured: dwell,
				Detail: fmt.Sprintf("unsafe dwell %v over limit %v before intervention",
					sim.Time(dwell), sim.Time(rule.Limit)),
			})
		}
	}
}

func (w *Watchdog) checkClosure(rep *Report, rule Rule, windows []window, end sim.Time) {
	for _, win := range windows {
		if win.end < 0 {
			rep.Stats.UnclosedWindows++
			rep.Violations = append(rep.Violations, Violation{
				Rule: rule, Core: win.core, At: win.start, Measured: end - win.start,
				Detail: fmt.Sprintf("unsafe write at %v never closed by a guard intervention",
					win.start),
			})
		}
	}
	// Every journaled fault must land inside an open unsafe window; a fault
	// with no preceding unsafe mailbox write points at out-of-band injection
	// (VoltPillager-style) or a broken trace.
	if w.Journal == nil {
		return
	}
	for _, e := range w.Journal.OfType("attack_fault") {
		if e.At > end {
			continue // past the (possibly clamped) window
		}
		rep.Stats.Faults++
		covered := false
		for _, win := range windows {
			hi := win.end
			if hi < 0 {
				hi = end
			}
			if e.At >= win.start && e.At <= hi {
				covered = true
				break
			}
		}
		if !covered {
			rep.Violations = append(rep.Violations, Violation{
				Rule: rule, Core: -1, At: e.At,
				Detail: "fault observed outside any open unsafe-write window (out-of-band injection?)",
			})
		}
	}
}
