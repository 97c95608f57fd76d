#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run it from the root of a checkout, for example:
#
#   bash bench/run.sh --workload join-overlap --seed 1 --seconds 26 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go -C bench build -o "$out/vtperf" .
exec "$out/vtperf" "$@"
