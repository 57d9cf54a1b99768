# plugvolt build / verification entry points.
#
# `make test-race` runs vet and the full suite under the race detector; CI
# runs the same `go vet ./...` and `go test -race ./...` steps directly. The
# parallel characterization sweep must stay data-race free (worker platforms
# are private; progress callbacks are serialized through the merge loop).

GO ?= go

.PHONY: build test test-race reach fuzz bench identity golden golden-update artifacts metrics-demo trace-demo fleet-demo fleet-stream-demo energy-demo

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Race hygiene: vet plus the full suite under the race detector.
test-race:
	$(GO) vet ./...
	$(GO) test -race ./...

# The static scans, which `go test -race` skips (exports_test.go is
# `!race`): every exported internal/ name has a non-test reference, every
# exported internal/ struct field has a non-test writer, and every func of
# the root package and internal/ is linked into some binary of ./cmd/... or
# the benchmark. One allowlist in exports_test.go covers all three, each
# entry with its reason; a stale entry fails. TestFieldWriteClassifier
# checks the field scan's notion of a write. CI runs this target.
reach:
	$(GO) test -count=1 -run '^(TestInternalExportsHaveNonTestUsers|TestInternalFieldsHaveNonTestWriters|TestInternalFuncsAreLinked|TestReachAllowlist|TestFieldWriteClassifier)$$' .

# Short fuzz pass over every Fuzz target in the tree. `go test -list` finds
# the targets, so a new one joins without editing this file. CI runs this
# target.
fuzz:
	@targets=$$($(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ { t[n++] = $$1 } \
		/^ok/ { for (i = 0; i < n; i++) print $$2 "," t[i]; n = 0 } \
		/^FAIL/ { bad = 1 } END { exit bad }') || exit 1; \
	for pt in $$targets; do \
		echo "$(GO) test $${pt%,*} -run '^$$' -fuzz '^$${pt#*,}$$' -fuzztime 10s"; \
		$(GO) test $${pt%,*} -run '^$$' -fuzz "^$${pt#*,}\$$" -fuzztime 10s || exit 1; \
	done

# One iteration of every package micro-benchmark, as CI's smoke job runs
# them. The system itself is timed by the benchmark module: run
#   bash benchmark/run.sh --workload W -out new.json
# at both commits on the same host, then -compare OLD NEW.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Byte identity against another revision: `make identity BASE=<rev>` builds
# the CLIs at BASE and in the working tree, runs the same fleet, attack
# matrix, overhead and guard invocations with both, and fails on any output
# that differs apart from the plugvolt_build_info line. Not a CI gate: a
# change may alter outputs by design.
identity:
	@test -n "$(BASE)" || { echo "usage: make identity BASE=<rev>" >&2; exit 2; }
	GO="$(GO)" sh scripts/identity.sh "$(BASE)"

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
