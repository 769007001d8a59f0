#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root:
#
#   bash perfbench/run.sh --workload heartbeat-bin --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/,
# including the Go build cache, so nothing is written outside the tree.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/cmd/renamed/main.go" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/renamed and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" "$@"
