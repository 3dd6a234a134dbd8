#!/usr/bin/env bash
# run.sh builds wanbench and the wanperf binary under test from the
# checkout it is run in, then runs wanbench with the given arguments.
# Run it from the repository root:
#
#   bash bench/wanbench/run.sh --workload repro --seed 42 --seconds 12 --trace 0
#   bash bench/wanbench/run.sh -seed 42 -out bench/results/mylabel.json
#
# The Go build cache, temporary files and both binaries stay under
# .bench_build/, so a run writes nothing outside the checkout. The build
# happens before wanbench starts and is not part of any metric.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
    GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/wanperf" ./cmd/wanperf >&2
(cd bench/wanbench && go build -o "$out/wanbench" .) >&2

exec "$out/wanbench" -root "$root" -wanperf "$out/wanperf" "$@"
