#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it; the `command` of
# BENCHMARK.json. Run from the repository root:
#
#   bash bench/perf/run.sh --workload udp-serial --seed 1 --seconds 24 --trace 0
#
# Everything the toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ in the checkout. CGO is off so the
# build needs no C compiler; the only cgo the program would link is the
# system resolver, which loopback addresses never reach.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" CGO_ENABLED=0 GOTOOLCHAIN=local
go -C "$here" build -o "$build/perf" .
cd "$root"
exec "$build/perf" "$@"
