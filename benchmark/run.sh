#!/usr/bin/env bash
# Builds the plugvolt benchmark from the sources of the checkout it is run
# in, then runs it with the given arguments. Run it from the repository
# root:
#
#   bash benchmark/run.sh --workload guard-steady --seed 42 --seconds 15 --trace 0
#
# The binary, the Go build cache, the compiler's temporary files and the go
# command's own configuration and telemetry files all stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f benchmark/go.mod ]; then
	echo "benchmark/run.sh: run from the plugvolt repository root (go.mod and benchmark/go.mod must exist)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

(cd benchmark && go build -o "$out/plugvolt-benchmark" .)
exec "$out/plugvolt-benchmark" "$@"
