#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout, then run it with the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the build writes stays under .bench_build/ (the Go build cache,
# module path and the toolchain's own config directory included), so a run
# reads and writes only its checkout.
# After the first build the `go build` below is a sub-second up-to-date check.
set -euo pipefail

# Without the program (a directory holding only BENCHMARK.json and benchmark/)
# there is nothing to measure: fail before starting any process.
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "benchmark/run.sh: no go.mod/internal here: run from the root of a checkout of the dmt module" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/config/go/telemetry"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# The go command's telemetry starts a detached child of itself whenever its
# config directory has no fresh upload token, which a new checkout never has;
# that child outlives `go build`. Mode "off" (what `go telemetry off` writes)
# stops it, so no process of this script is left behind.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/bin/dmt-benchmark" ./benchmark
exec "$build/bin/dmt-benchmark" "$@"
