package main

// metricKind says where a metric is reported.
type metricKind int

const (
	// endToEnd metrics are what a user of the simulator sees. Every run of
	// every workload reports them, measured with tracing off; they are
	// BENCHMARK.json's end_to_end list.
	endToEnd metricKind = iota
	// perLayer metrics are BENCHMARK.json's per_layer list. Every traced
	// run reports all of them; one of a layer or a workload the run does
	// not exercise reads 0. Those an op records itself (the parts of a
	// workload's op, such as sweep and bisect, and the exact simulated
	// counts) are measured with tracing off and also appear in every
	// run's table and results file.
	perLayer
)

// metricDef describes one metric. bound is the share of the parent's median
// by which it may worsen before -compare calls it worse; 0 marks a
// simulated value, which must repeat exactly for a seed.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
	kind   metricKind
}

// metricDefs is every metric the benchmark reports, in report order. The
// test checks the endToEnd and perLayer names against BENCHMARK.json.
var metricDefs = []metricDef{
	// On a shared 2-CPU host report-bundle's median op moves by up to a
	// fifth between runs, so op_ms has the widest bound BENCHMARK.json
	// allows; the per-layer metrics below carry the tighter bounds
	// -compare judges the parts of an op by.
	{"op_ms", "ms", "lower", 0.25, endToEnd},
	{"setup_s", "s", "lower", 0.25, endToEnd},

	// The collector's live-heap peak moves with when its cycles land, by a
	// tenth and more between runs, so it is a per-layer metric, which
	// BENCHMARK.json gives no bound.
	{"peak_heap_mb", "MiB", "lower", 0.25, perLayer},

	{"bundle_s", "s", "lower", 0.10, perLayer},
	{"figs_sweep_ms", "ms", "lower", 0.10, perLayer},
	{"figs_bisect_ms", "ms", "lower", 0.10, perLayer},
	{"machine_windows_per_s", "1/s", "higher", 0.10, perLayer},
	{"attacked_machines_per_s", "1/s", "higher", 0.10, perLayer},
	{"poll_ns", "ns", "lower", 0.10, perLayer},
	{"poll_instrumented_ns", "ns", "lower", 0.10, perLayer},
	{"guard_overhead_pct", "%", "lower", 0, perLayer},

	{"trace.overhead_pct", "%", "lower", 0.10, perLayer},
	{"trace.self_coverage_pct", "%", "higher", 0.10, perLayer},

	// Isolated calls, measured in every traced run.
	{"victim.sign_us", "us", "lower", 0.10, perLayer},
	{"cpu.imul_ns", "ns", "lower", 0.10, perLayer},
	{"cpu.predict_row_us", "us", "lower", 0.10, perLayer},
	{"cpu.new_platform_us", "us", "lower", 0.10, perLayer},
	{"core.lut_decision_ns", "ns", "lower", 0.10, perLayer},
	{"kernel.rdmsr_ns", "ns", "lower", 0.10, perLayer},

	// Spans any workload that boots and characterizes machines records.
	{"plugvolt.boot_us", "us", "lower", 0.10, perLayer},
	{"core.characterize_quick_ms", "ms", "lower", 0.10, perLayer},

	{"attack.plundervolt_polling_s", "s", "lower", 0.10, perLayer},
	{"attack.plundervolt_none_s", "s", "lower", 0.10, perLayer},
	{"attack.e1_other_s", "s", "lower", 0.10, perLayer},
	{"core.figs_quick_ms", "ms", "lower", 0.10, perLayer},
	{"spec.table2_ms", "ms", "lower", 0.10, perLayer},
	{"report.write_ms", "ms", "lower", 0.10, perLayer},
	{"cpu.retired", "count", "lower", 0, perLayer},
	{"cpu.ns_per_retired", "ns", "lower", 0.10, perLayer},
	{"sim.events", "count", "lower", 0, perLayer},
	{"sim.ns_per_event", "ns", "lower", 0.10, perLayer},

	{"core.grid_sweep_ms.skylake", "ms", "lower", 0.10, perLayer},
	{"core.grid_sweep_ms.kabylaker", "ms", "lower", 0.10, perLayer},
	{"core.grid_sweep_ms.cometlake", "ms", "lower", 0.10, perLayer},
	{"core.grid_bisect_ms.skylake", "ms", "lower", 0.10, perLayer},
	{"core.grid_bisect_ms.kabylaker", "ms", "lower", 0.10, perLayer},
	{"core.grid_bisect_ms.cometlake", "ms", "lower", 0.10, perLayer},
	{"core.probes_sweep", "count", "lower", 0, perLayer},
	{"core.probes_bisect", "count", "lower", 0, perLayer},
	{"core.fallback_rows", "count", "lower", 0, perLayer},
	{"core.ns_per_probe_sweep", "ns", "lower", 0.10, perLayer},
	{"core.ns_per_probe_bisect", "ns", "lower", 0.10, perLayer},
	{"core.bisect_speedup", "x", "higher", 0.10, perLayer},

	{"core.deploy_us", "us", "lower", 0.10, perLayer},
	{"sim.idle_window_us", "us", "lower", 0.10, perLayer},
	{"attack.campaign_ms.redteam", "ms", "lower", 0.10, perLayer},
	{"attack.campaign_ms.voltjockey", "ms", "lower", 0.10, perLayer},
	{"attack.campaign_ms.v0ltpwn", "ms", "lower", 0.10, perLayer},
	{"telemetry.collect_us", "us", "lower", 0.10, perLayer},
	{"telemetry.snapshot_us", "us", "lower", 0.10, perLayer},
	{"telemetry.merge_us", "us", "lower", 0.10, perLayer},
	{"fleet.pool_utilization", "ratio", "higher", 0.10, perLayer},
	{"core.guard_interventions_per_machine", "count", "lower", 0, perLayer},
	{"attack.mailbox_writes_per_machine", "count", "lower", 0, perLayer},
	{"attack.guard_defeats", "count", "lower", 0, perLayer},
	{"sim.events_per_machine", "count", "lower", 0, perLayer},

	{"telemetry.registry_poll_ns", "ns", "lower", 0.10, perLayer},
	{"telemetry.journal_poll_ns", "ns", "lower", 0.10, perLayer},
	{"span.poll_ns", "ns", "lower", 0.10, perLayer},
	{"flight.poll_ns", "ns", "lower", 0.10, perLayer},
	{"sim.events_per_period", "count", "lower", 0, perLayer},
	{"kernel.stolen_ns_per_period", "sim_ns", "lower", 0, perLayer},
}

// lookup finds a metric by name.
func lookup(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
