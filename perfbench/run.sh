#!/usr/bin/env bash
# Builds the serving benchmark and cmd/pulphd from the working tree and
# runs the benchmark, from any directory:
#
#   bash perfbench/run.sh --workload mixed-open --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache and the per-run state
# directories stay under .bench_build/ in the repository root.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOENV=off

(cd "$here" && go build -o "$build/perfbench" .)
(cd "$root" && go build -o "$build/pulphd" ./cmd/pulphd)
exec "$build/perfbench" -root "$root" -pulphd "$build/pulphd" "$@"
