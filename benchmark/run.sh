#!/usr/bin/env bash
# Builds the benchmark from source and runs it, all inside the checkout:
# the binary and Go's build cache live under .bench_build at the root.
#   bash benchmark/run.sh --workload ingest_flat --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
