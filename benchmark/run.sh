#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes stays inside the checkout, under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false
RELSER_BENCH_GIT_SHA="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export RELSER_BENCH_GIT_SHA
go build -C "$here" -o "$build/relser-bench" .
cd "$here"
exec "$build/relser-bench" "$@"
