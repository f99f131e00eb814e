#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload crime-beam --seed 1 --seconds 30 --trace 0
#
# Every build artifact (Go build cache, module cache, binary) stays
# under .bench_build/ in the repository root. The last line of standard
# output is the JSON result; build output goes to standard error.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
