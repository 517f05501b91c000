#!/usr/bin/env bash
# Builds kvserve and the benchmark from this checkout, then runs one
# benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot-read-pipelined --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ (the Go
# build cache included), so a fresh checkout pays for a full build once.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/kvserve" ./cmd/kvserve
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# A relative work directory keeps the Unix socket path short.
exec "$out/perfbench" -kvserve "$out/kvserve" -work .bench_build/run "$@"
