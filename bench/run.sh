#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in, then runs it
# with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload paper_tvca --seed 20170327 --seconds 10 --trace 0
#
# The Go build cache, the binary, and every journal, run cache and span
# file a run writes stay under .bench_build/ in the repository root.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
