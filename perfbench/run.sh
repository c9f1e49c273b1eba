#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments from the repository root, e.g.
#
#   bash perfbench/run.sh --workload mnist-train --seed 1 --seconds 30 --trace 0
#
# Build outputs (binary and Go build cache) stay in .bench_build at the
# repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
