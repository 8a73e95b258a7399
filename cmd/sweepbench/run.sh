#!/usr/bin/env bash
# Builds sweepbench from source and runs it with the given arguments:
#
#   bash cmd/sweepbench/run.sh --workload warm-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ in that directory: the Go build and
# module caches, temporary files, the binary and the per-run store
# directories.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/cmd/sweepbench" -o "$out/sweepbench" .
exec "$out/sweepbench" -workdir "$out" "$@"
