#!/bin/sh
# loc.sh — the repository's non-test Go line count, the number ROADMAP.md
# and the issues quote: every .go file that is not a test, a testdata
# fixture, the benchmark module, or its build cache. Run from anywhere.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/perf/*' ! -path '*/testdata/*' ! -path './.bench_build/*' | xargs cat | wc -l
