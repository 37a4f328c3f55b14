#!/usr/bin/env bash
# Builds streamhistd and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest-durable --seed 1 --seconds 32 --trace 0
#
# Build outputs, the Go build cache and every run's data directory live
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -C "$root/perfbench" -o "$out/perfbench" .
go build -C "$root" -o "$out/streamhistd" ./cmd/streamhistd
exec "$out/perfbench" -daemon "$out/streamhistd" -work "$out/work" "$@"
