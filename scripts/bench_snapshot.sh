#!/usr/bin/env bash
# Consolidated machine-readable benchmark snapshot (run by CI, runnable locally).
#
# Runs the benchmark suite with DIV_REPRO_BENCH_JSONL pointed at a scratch
# records file (benchmarks/conftest.py emits one JSON record per benchmark
# through benchmarks/_emit.py), then folds the records into a single
# BENCH_<date>.json in the output directory — one point of the repo's
# benchmark trajectory, stamped with the git sha it measured.
#
# Usage: scripts/bench_snapshot.sh [OUT_DIR]        (default: repo root)
#   BENCH_SELECT="benchmarks/bench_engine_throughput.py ..."  runs a subset
#                  (recorded as the snapshot's "select", so `div-repro bench
#                  compare` skips, rather than fails, benches the other side ran)
#   BENCH_OUT=BENCH_custom.json                               names the file
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
OUT_DIR=${1:-$ROOT}
OUT_NAME=${BENCH_OUT:-BENCH_$(date -u +%Y%m%d).json}
SELECT=${BENCH_SELECT:-benchmarks}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

say() { echo "[bench-snapshot] $*"; }

export DIV_REPRO_BENCH_JSONL="$WORK/records.jsonl"

say "running: pytest $SELECT"
(cd "$ROOT" && PYTHONPATH=src python -m pytest $SELECT)

if [ ! -s "$DIV_REPRO_BENCH_JSONL" ]; then
    say "FAIL: no benchmark records were emitted"
    exit 1
fi

mkdir -p "$OUT_DIR"
(cd "$ROOT" && BENCH_SELECT="$SELECT" python benchmarks/_emit.py consolidate \
    "$DIV_REPRO_BENCH_JSONL" "$OUT_DIR/$OUT_NAME")
say "snapshot written to $OUT_DIR/$OUT_NAME"
