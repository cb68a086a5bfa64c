#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim-scale --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, binary, scratch traces)
# stays under .bench_build in the current directory. The build log goes
# to standard error, so the benchmark's result stays the last line of
# standard output.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS="" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
