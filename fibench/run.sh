#!/usr/bin/env bash
# Builds the fibench harness from the checkout this script sits in and
# runs it from the checkout root; all arguments pass through, e.g.
#   bash fibench/run.sh --workload figs-cold --seed 1 --seconds 20 --trace 0
# Every build artifact, cache and temporary file stays under .bench_build.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go -C fibench build -o "$build/fibench" . >&2
exec "$build/fibench" "$@"
