#!/usr/bin/env bash
# Builds the flow benchmark from source and runs it on one core. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload tailor --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build; the last line of
# standard output is the run's JSON result.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
exec env GOMAXPROCS=1 "$out/perfbench" "$@"
