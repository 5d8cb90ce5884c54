#!/bin/bash
# BENCHMARK.json's command: build the harness and run it with the given
# arguments. Everything the Go toolchain writes (build cache, work
# directory, telemetry counters, binary) stays in <checkout>/.bench_build,
# and nothing is fetched; a later run in the same checkout rebuilds in a
# fraction of a second. The harness runs from bench/, like
# `go run -C bench .`.
set -eu
cd "$(dirname "$0")"
build=$(cd .. && pwd)/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bench" .
exec "$build/bench" "$@"
