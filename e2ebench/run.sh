#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Every build and run artifact stays under .bench_build at
# the repository root. Usage, from the repository root:
#   bash e2ebench/run.sh --workload query_planning --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# The go command's own config and telemetry go under the checkout too.
export XDG_CONFIG_HOME="$build/config"
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
