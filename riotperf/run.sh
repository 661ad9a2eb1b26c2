#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash riotperf/run.sh --workload city --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build in that directory, the Go build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
go build -C riotperf -o "$out/riotperf" .
exec "$out/riotperf" --out "$out/trace" "$@"
