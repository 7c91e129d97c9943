#!/usr/bin/env bash
# Builds the host-cost benchmark from the checkout's source and runs it.
# Run from the root of a checkout; arguments pass through, e.g.
#
#   bash hostbench/run.sh --workload scan --seed 7 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOWORK=off GOTOOLCHAIN=local

go -C hostbench build -o "$out/hostbench" .
exec "$out/hostbench" "$@"
