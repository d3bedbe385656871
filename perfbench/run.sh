#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# GhostDB checkout:
#
#	bash perfbench/run.sh --workload serve_point --seed 1 --seconds 10 --trace 0
#	bash perfbench/run.sh compare set-a/*.out -- set-b/*.out
#
# Everything the build and the run leave behind (Go build cache, binary,
# file-backed device directories) lives under .bench_build in the
# checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"

go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
