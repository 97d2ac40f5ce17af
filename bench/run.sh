#!/usr/bin/env bash
# Builds gddr-bench from the checkout's source and runs it with the given
# arguments. This is BENCHMARK.json's command: everything the Go toolchain
# writes (build cache, temporary files, telemetry) is kept inside the
# checkout, under .bench_build/, so a run touches nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
cd "$root/cmd/gddr-bench"
go build -o "$build/gddr-bench" .
cd "$root"
exec "$build/gddr-bench" "$@"
