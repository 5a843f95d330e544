#!/usr/bin/env bash
# Runs the simulator-core microbenchmarks and records BENCH_simcore.json for the
# perf trajectory (event queue vs. heap baseline, arrival injection, slab churn,
# chunked-vs-materialized arrival generation — BM_ArrivalGeneration/1 vs /0 —
# and the sharded-vs-serial experiment runner: compare BM_ShardedExperiment/1 —
# the serial path — against /2 and /4). BM_PaperScaleMonth is the end-to-end
# down-scaled paper-month driver: /1/1 is the legacy serial run, /5/1
# region-sharded (K=1), /1/4 serial with cells=4, /16/4 sub-region-sharded
# (K=4; a sharded run takes K = cells).
#
# Usage: bench/run_bench.sh [build_dir] [output_json]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
OUT="${2:-$REPO_ROOT/BENCH_simcore.json}"

if [ ! -x "$BUILD_DIR/bench_micro_simcore" ]; then
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCOLDSTART_BUILD_BENCH=ON
  cmake --build "$BUILD_DIR" -j --target bench_micro_simcore
fi

# The sharded-experiment benchmark sizes its own worker pools per argument; a
# stray COLDSTART_THREADS would not change results (runs are bit-identical at any
# thread count) but would distort the serial-vs-sharded wall-clock comparison.
unset COLDSTART_THREADS

"$BUILD_DIR/bench_micro_simcore" \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json \
  --benchmark_repetitions=1

echo "Wrote $OUT"
