# plugvolt build / verification entry points.
#
# `make test-race` runs vet and the full suite under the race detector; CI
# runs the same `go vet ./...` and `go test -race ./...` steps directly. The
# parallel characterization sweep must stay data-race free (worker platforms
# are private; progress callbacks are serialized through the merge loop).

GO ?= go

.PHONY: build test test-race fuzz bench golden golden-update artifacts metrics-demo trace-demo fleet-demo fleet-stream-demo energy-demo

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Race hygiene: vet plus the full suite under the race detector.
test-race:
	$(GO) vet ./...
	$(GO) test -race ./...

# Short fuzz pass over every Fuzz target in the tree: the grid and
# unsafe-set codecs, the shard merge ordering, row monotonicity (what
# bisection rests on), the compiled guard LUT, the 0x150 and perf-status
# MSR codecs the guard trusts, the telemetry merge fold, and the fleet
# checkpoint and incident bundle decoders. CI runs this target.
fuzz:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzGridFromJSON$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzGridJSONRoundTrip$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzRowMergeOrdering$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzUnsafeSetFromJSON$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzRowMonotonicity$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzLUTContainsEquivalence$$' -fuzztime 10s
	$(GO) test ./internal/msr -run '^$$' -fuzz '^FuzzDecodeVoltageOffset$$' -fuzztime 10s
	$(GO) test ./internal/msr -run '^$$' -fuzz '^FuzzPerfStatus$$' -fuzztime 10s
	$(GO) test ./internal/telemetry -run '^$$' -fuzz '^FuzzMergeSnapshots$$' -fuzztime 10s
	$(GO) test ./internal/fleet -run '^$$' -fuzz '^FuzzFleetCheckpointDecode$$' -fuzztime 10s
	$(GO) test ./internal/flight -run '^$$' -fuzz '^FuzzIncidentBundleDecode$$' -fuzztime 10s

# One iteration of every benchmark in the root package. Performance is
# compared with the benchmark module instead: run
#   bash benchmark/run.sh --workload W -out new.json
# at both commits on the same host, then -compare OLD NEW.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Golden-artifact conformance: re-derive figs 2-4 at 1/2/8 workers and diff
# bit-for-bit against artifacts/. golden-update rewrites the goldens after
# an intentional engine change.
golden:
	$(GO) test ./internal/golden -run Golden -v

golden-update:
	$(GO) test ./internal/golden -run Golden -update

# Regenerate the full experiment bundle (identical bytes for any -workers).
artifacts:
	$(GO) run ./cmd/plugvolt-report -out artifacts

# Observability demo: an attack-vs-guard run that dumps the Prometheus
# metric exposition, the structured event journal, and the victim core's
# operating-point trace, then shows the guard/attack highlights.
metrics-demo:
	$(GO) run ./cmd/plugvolt-guard -window 10ms \
		-metrics-out metrics.prom -events-out events.jsonl -trace trace.csv
	@echo
	@echo "== metrics.prom highlights"
	@grep -E '^(guard_|kernel_stolen|attack_)' metrics.prom | head -20
	@echo
	@echo "== first events"
	@head -5 events.jsonl

# Causal-trace demo: the same attack-vs-guard run with the SLO watchdog
# enabled, exporting the span trace as Chrome trace JSON (open trace.json
# at https://ui.perfetto.dev) and as a folded flamegraph (feed
# trace.folded to flamegraph.pl or speedscope). Exits non-zero if the
# guard misses an SLO.
trace-demo:
	$(GO) run ./cmd/plugvolt-guard -window 10ms -slo \
		-trace-out trace.json -folded-out trace.folded
	@echo
	@echo "== top folded stacks by self time"
	@sort -t' ' -k2 -rn trace.folded | head -8

# Energy demo: the guard's joule bill measured three ways — energy overhead
# of deploying the guard (printed next to the paper's 0.28% runtime
# overhead), the measured-vs-closed-form savings of the characterized safe
# undervolt versus a full clamp, and the per-governor energy curve.
energy-demo:
	$(GO) run ./cmd/plugvolt-overhead -energy

# Fleet demo: a 24-machine mixed fleet under a VoltJockey campaign, report
# and merged metric exposition written out. Rerun with any -workers value:
# fleet.json and fleet.prom are byte-identical (the PR 1 sharding invariant
# at fleet scale).
fleet-demo:
	$(GO) run ./cmd/plugvolt-fleet -machines 24 -attack voltjockey \
		-out fleet.json -metrics-out fleet.prom
	@echo
	@echo "== merged exposition highlights"
	@grep -E '^(guard_|attack_)' fleet.prom | head -12

# Checkpointed fleet demo: an idle-guard fleet with the window sliced into
# epochs, O(batch) resident memory, and per-model rollups. Interrupt with
# ^C and rerun with -resume fleet.ckpt to continue; the final report is
# byte-identical to an uninterrupted run (EXPERIMENTS.md has the
# million-machine-window recipe).
fleet-stream-demo:
	$(GO) run ./cmd/plugvolt-fleet -machines 1000 -epochs 4 \
		-attack none -window 2ms -batch 128 -progress \
		-checkpoint fleet.ckpt -out fleet.json -metrics-out fleet.prom
	@echo
	@echo "== merged exposition highlights"
	@grep -E '^guard_' fleet.prom | head -8
