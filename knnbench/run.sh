#!/usr/bin/env bash
# Builds the kNN benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash knnbench/run.sh --workload serve-hot-2d --seed 1 --seconds 10 --trace 0
#   bash knnbench/run.sh repeat --workloads serve-hot-2d,engine-cold-10d --runs 10
#
# Run it from the repository root. Everything the build and the runs
# leave behind (Go build cache, binary, data directories, span files)
# goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/knnbench" && go build -o "$out/knnbench" .)
exec "$out/knnbench" "$@"
