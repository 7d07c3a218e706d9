#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, e.g.
#
#   bash benchsuite/run.sh --workload fig1 --seed 1 --seconds 20 --trace 0
#   bash benchsuite/run.sh suite -seed 1 -repeat-check
#
# Everything the build and the runs write stays under .bench_build/ at the
# repository root: the Go build cache, temporary files and the binary. No
# module is downloaded; the benchmark needs only the standard library and
# the repository itself.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-mod" "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

go -C "$root/benchsuite" build -o "$build/benchsuite" .
exec "$build/benchsuite" "$@"
