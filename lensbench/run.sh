#!/usr/bin/env bash
# Builds lensbench from this checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash lensbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache and run records stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C lensbench build -o "$out/lensbench.bin" . >&2
exec "$out/lensbench.bin" "$@"
