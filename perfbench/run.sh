#!/usr/bin/env bash
# Builds perfbench from the source in this checkout and runs it with the
# given arguments.  Run it from the repository root:
#
#   bash perfbench/run.sh --workload grid-dense --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and everything a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
