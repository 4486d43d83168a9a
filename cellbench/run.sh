#!/usr/bin/env bash
# Builds the campaign-cell benchmark from source and runs it; every
# argument is passed to the benchmark. Run from the repository root:
#
#   bash cellbench/run.sh --workload table1-n5-d10 --seed 1 --seconds 10 --trace 0
#
# The build and every cache the Go toolchain writes stay inside
# .bench_build at the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C "$here" build -o "$out/cellbench" . >&2
exec "$out/cellbench" "$@"
