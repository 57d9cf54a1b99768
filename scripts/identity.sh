#!/bin/sh
# Byte identity of the CLIs' outputs against another revision.
#
#   sh scripts/identity.sh BASE        (or: make identity BASE=<rev>)
#
# Extracts BASE with git archive into a temporary directory, builds
# ./cmd/... there and from the working tree, runs the same invocations with
# each build in its own scratch directory, and diffs each invocation's
# stdout, exit code and every file it wrote. The invocations cover the
# fleet under every campaign and idle, the characterizer's two strategies
# at one and two workers and at paper resolution, the attack matrix, the
# overhead tables, the guard with every output, and the report bundle, plain
# and -full, at a seed artifacts/ does not pin. Only the plugvolt_build_info
# sample line is ignored. Exits 1 on any difference. Everything it writes
# goes under the temporary directory, which it removes.
set -eu

base=${1:?usage: identity.sh BASE}
go=${GO:-go}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/plugvolt-identity.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir "$tmp/src"
git -C "$root" archive "$base" | tar -x -C "$tmp/src"
(cd "$tmp/src" && "$go" build -o "$tmp/base/bin/" ./cmd/...)
(cd "$root" && "$go" build -o "$tmp/head/bin/" ./cmd/...)

# invoke NAME CLI ARGS...: run CLI with ARGS on both sides, each in its own
# directory, recording stdout and the exit code beside the files it writes.
invoke() {
	name=$1 cli=$2
	shift 2
	codes=
	for side in base head; do
		dir=$tmp/$side/run/$name
		mkdir -p "$dir"
		code=0
		(cd "$dir" && "$tmp/$side/bin/$cli" "$@" >stdout 2>"$tmp/$side/$name.stderr") || code=$?
		echo "$code" >"$dir/exit"
		codes="$codes $side=$code"
	done
	echo "ran $name: $cli $* (exit$codes)"
}

for attack in none plundervolt redteam voltjockey v0ltpwn; do
	invoke "fleet-$attack" plugvolt-fleet -machines 24 -seed 42 -attack "$attack" \
		-out fleet.json -metrics-out fleet.prom
done
for strategy in sweep bisect; do
	for workers in 1 2; do
		invoke "characterize-$strategy-w$workers" plugvolt-characterize -cpu cometlake -seed 42 \
			-strategy "$strategy" -workers "$workers" \
			-json grid.json -metrics-out m.prom -events-out e.jsonl
	done
done
invoke characterize-paper plugvolt-characterize -paper -cpu kabylaker -seed 7 \
	-json grid.json -metrics-out m.prom -events-out e.jsonl
for cpu in skylake kabylaker cometlake; do
	invoke "attack-$cpu" plugvolt-attack -matrix -cpu "$cpu" -seed 7 \
		-metrics-out m.prom -events-out e.jsonl -incidents-out incidents.bin
done
invoke overhead plugvolt-overhead -metrics-out m.prom -events-out e.jsonl
invoke guard plugvolt-guard -window 10ms -slo \
	-metrics-out m.prom -events-out e.jsonl -trace rail.csv \
	-trace-out spans.json -folded-out spans.folded -incidents-out incidents.bin
invoke report plugvolt-report -seed 7 -out bundle
invoke report-full plugvolt-report -full -seed 7 -out full

# The build-info sample names each binary's own revision; drop it on both
# sides before comparing.
for side in base head; do
	grep -rl '^plugvolt_build_info{' "$tmp/$side/run" | while read -r f; do
		sed -i '/^plugvolt_build_info{/d' "$f"
	done
done
if diff -r "$tmp/base/run" "$tmp/head/run"; then
	echo "identity: every output identical to $base"
else
	echo "identity: outputs differ from $base" >&2
	exit 1
fi
