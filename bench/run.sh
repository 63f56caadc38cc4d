#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): builds the benchmark from its
# own module and runs it from the root of the checkout it measures.
#
#   bash bench/run.sh --workload pay_steady --seed 1 --seconds 16 --trace 0
#   bash bench/run.sh            # all four workloads, traced, full report
#
# Everything a run writes stays inside the checkout: the go build cache and
# go's temp files are pointed at .bench_build/, next to the binaries and the
# nodes' data dirs.
set -euo pipefail

cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local

go build -C bench -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
