#!/usr/bin/env bash
# Observability drill for the repro.obs layer (run by CI, runnable locally).
#
# Proves the event-log acceptance criteria end to end:
#   1. a traced quick campaign writes a JSONL event log that `div-repro
#      trace summarize` renders (the summary itself validates that every
#      engine span's per-phase steps sum to the span's total steps);
#   2. the log holds one engine span per trial record (80 for E10
#      --quick), and its opinion-change and RNG-block totals are positive;
#   3. the trace's phase-transition counts are consistent with the final
#      E10 report: support-*size* transitions are a subset of the
#      support-*set* changes the report counts as stages, so
#      mean(transitions) + 1 <= mean(#stages);
#   4. two --telemetry launchers in sequence on one campaign — the first
#      aborted by an injected fault, the second resuming it — leave logs
#      whose trial records name exactly the (batch, index) pairs the
#      checkpoint journal holds, with one engine span per trial record;
#      `campaign status` exits 0, reports 80/80 trials from the journal
#      and names exactly one unclosed launcher (the aborted one); a
#      campaign run without --telemetry gets the same progress line;
#   5. `bench compare` passes on a snapshot against itself and catches a
#      seeded >=50% regression with a nonzero exit (the CI perf gate);
#   6. a traced E2 --quick under --kernel block stays on the block kernel
#      (its phase trace is a timeline observer), every engine span
#      matches the --kernel loop trace in steps, stop reason, opinion
#      changes and phase transitions, and every block span made at
#      least one fixed-point solve (`solves` > 0, `passes` >= `solves`)
#      where the loop spans made none.
#
# Usage: scripts/trace_drill.sh [OUT_DIR]   (override the CLI with DIV_REPRO=...)
set -euo pipefail

RUN=${DIV_REPRO:-div-repro}
ROOT_SNAPSHOTS=$(cd "$(dirname "$0")/.." && pwd)
WORK=$(mktemp -d)
OUT=${1:-$WORK/obs}
trap 'rm -rf "$WORK"' EXIT

say() { echo "[trace-drill] $*"; }

say "traced quick campaign: E10 --quick --seed 0"
mkdir -p "$OUT"
$RUN run E10 --quick --seed 0 \
    --trace-dir "$OUT/trace" --json "$OUT/json" > /dev/null

say "rendering the trace summary (validates the per-phase step invariant)"
$RUN trace summarize "$OUT/trace"

say "cross-checking trace vs final report"
python - "$OUT" <<'EOF'
import json
import sys
from pathlib import Path

from repro.obs import read_log, summarize

out = Path(sys.argv[1])
records = read_log(out / "trace").records
summary = summarize(records)
report = json.loads((out / "json" / "e10.json").read_text(encoding="utf-8"))

# E10 --quick: 80 trials, one engine run each.
trials = sum(1 for record in records if record["kind"] == "trial")
assert summary.engine_spans == trials == 80, (summary.engine_spans, trials)
assert summary.total_opinion_changes > 0, summary.total_opinion_changes
assert summary.total_rng_blocks > 0, summary.total_rng_blocks

# Every support-size transition in the trace is also a support-set
# change in the report's stage count, plus the initial stage.
mean_transitions = summary.phase_transitions / summary.engine_spans
mean_stages = float(report["tables"][0]["rows"][0][0])
assert mean_transitions + 1 <= mean_stages + 1e-9, (mean_transitions, mean_stages)
assert summary.phase_transitions > 0

print(f"[trace-drill] OK: {summary.engine_spans} engine spans, "
      f"{summary.total_steps} steps, {summary.total_opinion_changes} changes, "
      f"{summary.total_rng_blocks} RNG blocks, mean transitions {mean_transitions:.2f} "
      f"<= mean stages {mean_stages:.2f}")
EOF

# ------------------------------------------------------- telemetry drill
say "telemetry drill: an aborted --telemetry launcher, then its resumer"
if $RUN run E10 --quick --seed 0 --checkpoint-dir "$WORK/ckpt" --telemetry \
    --inject-faults 'abort@40' > /dev/null 2>&1; then
    say "FAIL: the injected abort did not stop the first launcher"
    exit 1
fi
$RUN run E10 --quick --seed 0 --checkpoint-dir "$WORK/ckpt" --telemetry \
    --resume > /dev/null

say "campaign status: 80/80 trials, one unclosed launcher"
$RUN campaign status "$WORK/ckpt" | tee "$WORK/status.txt"
if ! grep -q "progress: 80/80 trial(s), .* ETA done" "$WORK/status.txt"; then
    say "FAIL: campaign status does not report 80/80 trials"
    exit 1
fi
UNCLOSED=$(grep -c "unclosed launcher" "$WORK/status.txt" || true)
if [ "$UNCLOSED" != 1 ]; then
    say "FAIL: campaign status names $UNCLOSED unclosed launcher(s), expected 1"
    exit 1
fi
$RUN trace summarize "$WORK/ckpt/e10" > /dev/null

say "matching the logs' trial records against the checkpoint journal"
python - "$WORK/ckpt/e10" <<'EOF'
import sys
from pathlib import Path

from repro.checkpoint import CheckpointJournal
from repro.obs import launcher_timelines, read_log, summarize

campaign_dir = Path(sys.argv[1])
log = read_log(campaign_dir)
launchers = launcher_timelines(log)
summary = summarize(log.records)
logged = sorted((r["batch"], r["index"]) for r in log.records if r["kind"] == "trial")
journal = CheckpointJournal(campaign_dir)
journaled = sorted((batch, index) for batch, index, _ in journal.iter_records())

assert len(launchers) == 2, sorted(launchers)
# The aborted launcher never closed its log; the resumer closed its own.
aborted, resumer = sorted(launchers.values(), key=lambda l: l.started)
assert not aborted.closed, aborted.name
assert resumer.closed, resumer.name
assert len(journaled) == 80, len(journaled)  # E10 --quick trials
# The abort fires once its chunk is journaled and logged, so the two
# logs together name each journaled trial exactly once.
assert logged == journaled, (len(logged), len(journaled))
# E10 runs one engine run per trial, in process: one engine span per
# trial record.
assert summary.engine_spans == len(logged), (summary.engine_spans, len(logged))

print(f"[trace-drill] OK: {len(launchers)} launchers, {len(logged)} trial "
      f"records equal the journal's {len(journaled)}, "
      f"{summary.engine_spans} engine spans")
EOF

say "campaign status without --telemetry: the same progress line"
$RUN run E10 --quick --seed 0 --checkpoint-dir "$WORK/plain" > /dev/null
$RUN campaign status "$WORK/plain" | tee "$WORK/plain-status.txt"
if ! grep -q "progress: 80/80 trial(s), .* ETA done" "$WORK/plain-status.txt"; then
    say "FAIL: campaign status without --telemetry prints no progress line"
    exit 1
fi
if grep -q "unclosed launcher" "$WORK/plain-status.txt"; then
    say "FAIL: a campaign without --telemetry names a launcher"
    exit 1
fi

# ------------------------------------------------------ bench-compare gate
say "bench-compare self-test: identity must pass, seeded regression must fail"
SNAPSHOT=$(ls "$ROOT_SNAPSHOTS"/BENCH_*.json 2>/dev/null | head -1 || true)
if [ -z "$SNAPSHOT" ]; then
    say "FAIL: no committed BENCH_*.json snapshot to gate against"
    exit 1
fi
$RUN bench compare "$SNAPSHOT" "$SNAPSHOT" > /dev/null
say "OK: snapshot compares clean against itself"
python - "$SNAPSHOT" "$WORK/regressed.json" <<'EOF'
import json, sys

with open(sys.argv[1], encoding="utf-8") as handle:
    snapshot = json.load(handle)
snapshot["benchmarks"][0]["mean_seconds"] *= 1.5  # seeded 50% regression
with open(sys.argv[2], "w", encoding="utf-8") as handle:
    json.dump(snapshot, handle)
EOF
if $RUN bench compare "$SNAPSHOT" "$WORK/regressed.json" > /dev/null; then
    say "FAIL: bench compare accepted a seeded 50% regression"
    exit 1
fi
say "OK: seeded regression caught with a nonzero exit"

# ------------------------------------------------ traced kernels agree
say "traced E2 --quick under --kernel block and --kernel loop"
for kernel in block loop; do
    $RUN run E2 --quick --seed 0 --kernel "$kernel" \
        --trace-dir "$WORK/e2-$kernel" > /dev/null
done
python - "$WORK/e2-block" "$WORK/e2-loop" <<'EOF'
import sys

from repro.obs import read_log

KEYS = ("steps", "stop_reason", "opinion_changes", "transitions")


def engine_spans(path):
    return [r for r in read_log(path).records if r.get("name") == "engine.run"]


block, loop = engine_spans(sys.argv[1]), engine_spans(sys.argv[2])
assert block and len(block) == len(loop), (len(block), len(loop))
kernels = {span["kernel"] for span in block}
assert kernels == {"block"}, kernels
for index, (b, l) in enumerate(zip(block, loop)):
    for key in KEYS:
        assert b[key] == l[key], (index, key, b[key], l[key])
    assert 0 < b["solves"] <= b["passes"], (index, b["solves"], b["passes"])
    assert l["solves"] == l["passes"] == 0, (index, l["solves"], l["passes"])
solves = sum(span["solves"] for span in block)
passes = sum(span["passes"] for span in block)
print(f"[trace-drill] OK: {len(block)} engine spans on block match loop in "
      f"{', '.join(KEYS)}; {solves} solves in {passes} passes")
EOF

say "all checks passed (trace kept in $OUT)"
