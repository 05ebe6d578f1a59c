#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the toolchain and the run write — build cache, temporary files,
# the binary, result files, the fleet nodes' stores — stays under
# .bench_build/ in the checkout this script belongs to.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/config/go/telemetry"
# With telemetry in its default "local" mode the go command starts a detached
# child of itself once a day per config directory, which outlives this script.
# The mode file is the only switch (GOTELEMETRY is read-only); "off" starts none.
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
