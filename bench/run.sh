#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, from the
# repository root:
#
#   bash bench/run.sh --workload sweep-a-unit --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare BASE_RESULTS_DIR HEAD_RESULTS_DIR
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory: the Go build cache, the binary, results files and spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" "$@"
