#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash planebench/run.sh --workload dataplane --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The Go build cache, the binary, and every
# file a run writes stay under .bench_build/ in the repository.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
  GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/planebench" && go build -o "$out/planebench-bin" .)
exec "$out/planebench-bin" "$@"
