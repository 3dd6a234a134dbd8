#!/usr/bin/env bash
# bench.sh — run the component benchmarks and record the numbers as a
# tracked artifact, so the perf trajectory across PRs is reconstructable.
#
# Usage: scripts/bench.sh [label]
#
# The label defaults to the current git SHA (12 chars, "-dirty" appended
# when the tree has uncommitted changes). Two files are written under
# bench/:
#
#   BENCH_<label>.txt   raw `go test -bench` output, benchstat-compatible
#   BENCH_<label>.json  parsed {name, iterations, ns_per_op, ...} records
#
# Tunables (environment):
#   BENCH_PATTERN      benchmark regexp     (default: component benchmarks)
#   BENCH_COUNT        -count               (default: 5)
#   BENCH_TIME         -benchtime           (default: 1x)
#   BENCH_SHARD_COUNT  -count for the shard-scaling sweep (default: 3)
#   BENCH_SERVE_COUNT  -count for the serve/code-space stage (default: 3)
#   BENCH_SERVE_TIME   -benchtime for the serve/code-space stage (default: 1s)
#   BENCH_SERVE_CPUS   -cpu matrix for the serve stage (default: 1,4,8;
#                      legs above nproc are capped at nproc, so no leg
#                      runs oversubscribed)
#   BENCH_XLARGE       set to 1 to append the paper-scale XLarge
#                      end-to-end run (>1M transfers; takes minutes)
set -eu

cd "$(dirname "$0")/.."

label="${1:-}"
if [ -z "$label" ]; then
    label="$(git rev-parse --short=12 HEAD 2>/dev/null || echo nogit)"
    if ! git diff --quiet HEAD 2>/dev/null; then
        label="${label}-dirty"
    fi
fi

# ^BenchmarkPredict$ is anchored so it matches only BenchmarkPredict,
# not BenchmarkServePredict (the serve stage below runs that one).
# Fig11HeadlineBinned is the 256-bin Fig. 11 run over every study edge.
pattern="${BENCH_PATTERN:-GBTTrainHist|Fig11HeadlineBinned|FeatureEngineering|LinregFit|SimulateSmall|^BenchmarkPredict\$|PredictAll|MIC|EngineRun}"
count="${BENCH_COUNT:-5}"
benchtime="${BENCH_TIME:-1x}"
shard_count="${BENCH_SHARD_COUNT:-3}"
serve_count="${BENCH_SERVE_COUNT:-3}"
serve_time="${BENCH_SERVE_TIME:-1s}"
ncpu="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
serve_cpus="$(printf '%s\n' "${BENCH_SERVE_CPUS:-1,4,8}" | tr ',' '\n' |
    awk -v n="$ncpu" 'NF { v = ($1 > n) ? n : $1; if (!seen[v]++) print v }' | paste -sd, -)"

mkdir -p bench
txt="bench/BENCH_${label}.txt"
json="bench/BENCH_${label}.json"

echo "running benchmarks matching '${pattern}' (count=${count}, benchtime=${benchtime})..." >&2
go test -run '^$' -bench "$pattern" -benchmem -count "$count" -benchtime "$benchtime" . | tee "$txt"

# Log I/O comparison: CSV vs columnar, read and write, over the same
# in-memory log. These are millisecond-scale, so they run many
# iterations per sample for stable per-op numbers.
echo "running log I/O comparison (CSV vs columnar)..." >&2
go test -run '^$' -bench 'LogRead|LogWrite' -benchmem -count 3 -benchtime 20x . | tee -a "$txt"

# Shard-scaling sweep: the clustered Large world at shards 1/2/4/Max
# (Max = max(GOMAXPROCS, cluster count)). Serial vs sharded on the SAME
# world is the engine-speedup headline, so it gets its own stage with a
# lower count (the serial leg alone runs ~10s per iteration).
echo "running shard-scaling sweep (count=${shard_count})..." >&2
go test -run '^$' -bench 'EngineShardLarge' -benchmem -count "$shard_count" -benchtime 1x . | tee -a "$txt"

# Serve / code-space inference stage: the quantized batch-inference
# kernel, its float-kernel twin, row quantization, and end-to-end daemon
# throughput (single-edge and mixed-edge batches), across a -cpu matrix
# capped at nproc. The batcher
# count follows GOMAXPROCS, so the matrix shows multi-batcher scaling;
# the parser below keeps the cpu width as its own field so runs don't
# merge.
echo "running serve/code-space stage (-cpu ${serve_cpus}, count=${serve_count})..." >&2
go test -run '^$' -bench 'ServeBatchInference|ServePredict|QuantizeRow' \
    -benchmem -count "$serve_count" -benchtime "$serve_time" -cpu "$serve_cpus" . | tee -a "$txt"

# Aggregate serving throughput: best singleton and batch front-door
# rows/s across the cpu matrix — the one-line numbers for
# EXPERIMENTS.md. (-cpu 1 runs have no -N name suffix.)
awk '/^BenchmarkServePredict(-[0-9]+)? / {
    for (i = 2; i <= NF; i++) if ($i == "rows/s" && $(i-1)+0 > best) best = $(i-1)+0
}
/^BenchmarkServePredictBatch(-[0-9]+)? / {
    for (i = 2; i <= NF; i++) if ($i == "rows/s" && $(i-1)+0 > bbest) bbest = $(i-1)+0
}
/^BenchmarkServePredictBatchMixed(-[0-9]+)? / {
    for (i = 2; i <= NF; i++) if ($i == "rows/s" && $(i-1)+0 > mbest) mbest = $(i-1)+0
} END {
    if (best)  printf("aggregate serving throughput: %.0f rows/s (best ServePredict across -cpu matrix)\n", best)
    if (bbest) printf("aggregate batch throughput: %.0f rows/s (best ServePredictBatch across -cpu matrix)\n", bbest)
    if (mbest) printf("aggregate mixed-edge batch throughput: %.0f rows/s (best ServePredictBatchMixed across -cpu matrix)\n", mbest)
}' "$txt" | tee -a "$txt"

# Bounds-check-elimination audit for the inference hot path, recorded
# alongside the numbers it explains. The checks that remain are the
# data-indexed gathers (tree cursors, per-feature code bytes, leaf
# weights) whose indices come from model data the prover cannot see;
# block bounds and accumulator checks are hoisted in walkBlock.
echo "recording check_bce audit for the hot path..." >&2
{
    echo ""
    echo "# go build -gcflags=-d=ssa/check_bce audit (quantized inference hot path)"
    go build -gcflags='-d=ssa/check_bce' ./internal/ml/gbt/ ./internal/ml/dataset/ 2>&1 \
        | grep -E 'cforest\.go|quantize\.go' | sed 's/^/# /' || true
} >> "$txt"

# Paper-scale end to end: generate the XLarge world (>1M transfers),
# simulate sharded, columnar round trip, feature engineering from column
# views. One iteration; opt-in because it takes minutes.
if [ "${BENCH_XLARGE:-0}" = "1" ]; then
    echo "running paper-scale XLarge end to end (one iteration)..." >&2
    go test -run '^$' -bench 'PaperScaleXLarge' -benchmem -count 1 -benchtime 1x -timeout 60m . | tee -a "$txt"
fi

# Parse the benchstat-compatible text into JSON. Benchmark lines look like:
#   BenchmarkGBTTrainHist	       2	 601234567 ns/op	 123456 B/op	   789 allocs/op
# The -N name suffix is the GOMAXPROCS the run executed under; it becomes
# its own "cpu" field rather than being discarded, so -cpu matrix runs of
# the same benchmark stay distinguishable in the JSON.
awk -v label="$label" '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
    name = $1
    cpu = ""
    if (match(name, /-[0-9]+$/)) {
        cpu = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    ns = ""; bytes = ""; allocs = ""; nsrow = ""; rowss = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "B/op")      bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
        if ($i == "ns/row")    nsrow = $(i-1)
        if ($i == "rows/s")    rowss = $(i-1)
    }
    if (ns == "") next
    if (!first) printf(",\n")
    first = 0
    printf("  {\"label\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", label, name, $2, ns)
    if (cpu != "")    printf(", \"cpu\": %s", cpu)
    if (bytes != "")  printf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "") printf(", \"allocs_per_op\": %s", allocs)
    if (nsrow != "")  printf(", \"ns_per_row\": %s", nsrow)
    if (rowss != "")  printf(", \"rows_per_s\": %s", rowss)
    printf("}")
}
END { print "\n]" }
' "$txt" > "$json"

echo "wrote $txt and $json" >&2
