#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run it from the
# checkout's root:
#
#   bash perfbench/run.sh --workload mc-ports --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and traced runs' span files go under
# .bench_build/ in the checkout; nothing is written anywhere else. The
# benchmark module resolves the repository module through a relative
# replace directive, so outside a full checkout the build, and the run,
# fail.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
