#!/usr/bin/env bash
# Builds the benchmark from this checkout, keeping the compiler's cache and
# every other build output inside the checkout, then runs it with the
# arguments given. This is the command BENCHMARK.json names.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
