#!/usr/bin/env bash
# Chaos drill for the checkpoint/resume layer (run by CI, runnable locally).
#
# Proves the robustness acceptance criteria end to end:
#   1. kill-and-resume — a campaign SIGKILLed mid-run and resumed from its
#      checkpoint directory produces a report byte-identical to an
#      uninterrupted serial run, and a journal bit-identical to the
#      uninterrupted run's journal;
#   2. pool kill-and-resume — the same holds for a --workers 2 campaign
#      SIGKILLed mid-batch: the pool journals each chunk as one record
#      file as it finishes, so the kill keeps finished chunks and a
#      serial resume completes the campaign to the identical report and
#      journal;
#   3. fault drill — the same equality holds for a parallel campaign with
#      injected worker crashes and chunk timeouts (crash@I:1 / hang@I:1);
#   4. corruption drill — a corrupted checkpoint record aborts the resume
#      with a one-line error (exit 2), --discard-corrupt recovers to the
#      identical report, and `campaign status` reads the directory.
#
# Journaled trials are counted through CheckpointJournal.iter_records(),
# not by counting record files: a pool chunk's file holds many trials.
#
# Usage: scripts/chaos_drill.sh   (override the CLI with DIV_REPRO=...)
set -euo pipefail

RUN=${DIV_REPRO:-div-repro}
EXPERIMENT=E1
EXPERIMENT_LOWER=$(echo "$EXPERIMENT" | tr '[:upper:]' '[:lower:]')
SEED=7
TOTAL_TRIALS=360   # E1 --quick: 3 fractions x 120 trials
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

say() { echo "[chaos-drill] $*"; }

# journaled_trials DIR: the number of trials campaign directory DIR holds.
journaled_trials() {
    python - "$1" <<'EOF'
import sys
from repro.checkpoint import CheckpointJournal
print(sum(1 for _ in CheckpointJournal(sys.argv[1]).iter_records()))
EOF
}

# wait_for_trials DIR N: poll every 10 ms, at most 2000 times, until DIR
# holds N journaled trials (one process, so each poll stays cheap).
wait_for_trials() {
    python - "$1" "$2" <<'EOF'
import sys, time
from repro.checkpoint import CheckpointJournal
journal, wanted = CheckpointJournal(sys.argv[1]), int(sys.argv[2])
for _ in range(2000):
    if sum(1 for _ in journal.iter_records()) >= wanted:
        break
    time.sleep(0.01)
EOF
}

# ---------------------------------------------------------------- reference
say "reference: uninterrupted serial run"
$RUN run "$EXPERIMENT" --quick --seed "$SEED" \
    --checkpoint-dir "$WORK/ckpt-ref" --json "$WORK/ref" > /dev/null

# ---------------------------------------------------------- kill-and-resume
say "kill-and-resume: starting campaign, will SIGKILL mid-run"
$RUN run "$EXPERIMENT" --quick --seed "$SEED" \
    --checkpoint-dir "$WORK/ckpt-kill" --json "$WORK/out-kill" \
    > /dev/null 2>&1 &
VICTIM=$!
# Wait until some trials are journaled, then kill before the campaign ends.
wait_for_trials "$WORK/ckpt-kill/$EXPERIMENT_LOWER" 10
kill -9 "$VICTIM" 2>/dev/null || true
wait "$VICTIM" 2>/dev/null || true
COUNT=$(journaled_trials "$WORK/ckpt-kill/$EXPERIMENT_LOWER")
say "SIGKILL delivered with $COUNT/$TOTAL_TRIALS trials journaled"
if [ "$COUNT" -ge "$TOTAL_TRIALS" ] || [ -f "$WORK/out-kill/$EXPERIMENT_LOWER.json" ]; then
    say "FAIL: campaign finished before the kill landed; drill proved nothing"
    exit 1
fi

say "resuming the killed campaign"
$RUN run "$EXPERIMENT" --quick --seed "$SEED" \
    --checkpoint-dir "$WORK/ckpt-kill" --resume --json "$WORK/out-kill" > /dev/null
cmp "$WORK/ref/$EXPERIMENT_LOWER.json" "$WORK/out-kill/$EXPERIMENT_LOWER.json"
say "OK: resumed report is byte-identical to the uninterrupted run"
$RUN checkpoint diff "$WORK/ckpt-ref/$EXPERIMENT_LOWER" "$WORK/ckpt-kill/$EXPERIMENT_LOWER" > /dev/null
say "OK: resumed journal is bit-identical to the uninterrupted journal"

# ----------------------------------------------------- pool kill-and-resume
say "pool kill-and-resume: starting a --workers 2 campaign, will SIGKILL mid-batch"
# E1 runs its whole grid as one batch. slow@300 stalls the worker that
# runs trial 300 (outcomes are unaffected), so the batch is still running
# when the first chunks reach the journal and the kill lands. The campaign
# runs in its own process group so the kill takes its pool workers at the
# same instant; an orphaned worker would also end itself within a second
# or so, once it sees its launcher gone (tests/test_parallel.py).
setsid $RUN run "$EXPERIMENT" --quick --seed "$SEED" --workers 2 \
    --checkpoint-dir "$WORK/ckpt-pool-kill" --json "$WORK/out-pool-kill" \
    --inject-faults 'slow@300:3' > /dev/null 2>&1 &
VICTIM=$!
wait_for_trials "$WORK/ckpt-pool-kill/$EXPERIMENT_LOWER" 10
kill -9 -- "-$VICTIM" 2>/dev/null || true
wait "$VICTIM" 2>/dev/null || true
COUNT=$(journaled_trials "$WORK/ckpt-pool-kill/$EXPERIMENT_LOWER")
say "SIGKILL delivered with $COUNT/$TOTAL_TRIALS trials journaled"
if [ "$COUNT" -lt 10 ] || [ "$COUNT" -ge "$TOTAL_TRIALS" ] \
    || [ -f "$WORK/out-pool-kill/$EXPERIMENT_LOWER.json" ]; then
    say "FAIL: the kill did not land mid-batch with finished chunks journaled"
    exit 1
fi

say "resuming the killed pool campaign serially"
$RUN run "$EXPERIMENT" --quick --seed "$SEED" \
    --checkpoint-dir "$WORK/ckpt-pool-kill" --resume \
    --json "$WORK/out-pool-kill" > /dev/null
cmp "$WORK/ref/$EXPERIMENT_LOWER.json" "$WORK/out-pool-kill/$EXPERIMENT_LOWER.json"
say "OK: resumed pool campaign's report is byte-identical to the serial run"
$RUN checkpoint diff "$WORK/ckpt-ref/$EXPERIMENT_LOWER" "$WORK/ckpt-pool-kill/$EXPERIMENT_LOWER" > /dev/null
say "OK: resumed pool campaign's journal is bit-identical to the serial journal"

# ------------------------------------------------- crash + timeout faults
say "fault drill: workers=2 with injected crash + hang faults"
$RUN run "$EXPERIMENT" --quick --seed "$SEED" --workers 2 \
    --checkpoint-dir "$WORK/ckpt-faults" --json "$WORK/out-faults" \
    --inject-faults 'crash@3:1;hang@17:1' --trial-timeout 4 --max-retries 2 \
    > /dev/null 2>&1
$RUN checkpoint diff "$WORK/ckpt-ref/$EXPERIMENT_LOWER" "$WORK/ckpt-faults/$EXPERIMENT_LOWER" > /dev/null
say "OK: faulted parallel journal is bit-identical to the serial journal"
# Reports agree modulo the parallel run's timing note.
python - "$WORK/ref/$EXPERIMENT_LOWER.json" "$WORK/out-faults/$EXPERIMENT_LOWER.json" <<'EOF'
import json, sys

def load(path):
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    for table in report["tables"]:
        table["notes"] = [
            n for n in table["notes"] if not n.startswith("trial execution:")
        ]
    return report

left, right = load(sys.argv[1]), load(sys.argv[2])
assert left == right, "faulted parallel report diverged from serial report"
EOF
say "OK: faulted parallel report matches the serial report"

# ------------------------------------------------------- corruption drill
say "corruption drill: damaging one checkpoint record"
cp -r "$WORK/ckpt-kill" "$WORK/ckpt-corrupt"
# The victim is the record file that holds trial 5.
VICTIM_RECORD=$(python - "$WORK/ckpt-corrupt/$EXPERIMENT_LOWER" <<'EOF'
import sys
from repro.checkpoint import CheckpointJournal
records = CheckpointJournal(sys.argv[1]).iter_records()
print(next(path for _, index, path in records if index == 5))
EOF
)
printf 'garbage' > "$VICTIM_RECORD"
if $RUN run "$EXPERIMENT" --quick --seed "$SEED" \
    --checkpoint-dir "$WORK/ckpt-corrupt" --resume > /dev/null 2> "$WORK/corrupt-err"; then
    say "FAIL: resume accepted a corrupt record"
    exit 1
fi
grep -q "div-repro: error:" "$WORK/corrupt-err"
say "OK: corrupt record aborted the resume with a one-line error"
$RUN run "$EXPERIMENT" --quick --seed "$SEED" \
    --checkpoint-dir "$WORK/ckpt-corrupt" --resume --discard-corrupt \
    --json "$WORK/out-corrupt" > /dev/null
cmp "$WORK/ref/$EXPERIMENT_LOWER.json" "$WORK/out-corrupt/$EXPERIMENT_LOWER.json"
say "OK: --discard-corrupt re-ran the damaged trial to an identical report"
$RUN campaign status "$WORK/ckpt-corrupt" > /dev/null
say "OK: campaign status reads the recovered checkpoint directory"

say "all drills passed"
