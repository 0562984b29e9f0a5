#!/usr/bin/env bash
# Kernel-equivalence drill: the same experiment must produce
# byte-identical reports under every execution kernel.
#
# Runs E1 (--quick) once per backend — loop, block, auto, compiled —
# and byte-compares the JSON reports pairwise against the loop
# reference. The auto leg runs block for DIV, pull and push (every
# dynamics with step_block) and loop for the rest
# (`RunResult.kernel_reason` says which and why), so its reports must
# match the fixed legs byte for byte; E2 runs DIV on every graph class.
# E1 runs on the count engine, so E11 (run_div on star and lollipop
# graphs) adds a static-graph run_div report: under block (and auto)
# its runs solve prefixes sized by their pass counts and commit whole
# windows around run_div's two-adjacent mark, under loop they step one
# pair at a time, and the reports must not differ. E7 (path graphs) and E12 (the λk
# ablation's poorly connected graphs) are where long chains of changes
# make the block kernel shrink its prefixes most, so they cover the
# shrinking half of the prefix schedule.
# Then repeats the comparison for the non-static substrate scenarios:
# E17 (zealots: frozen vertices through every commit path) and E18
# (edge churn: epoch-crossing runs with scheduler cache rebuilds) —
# the kernel contract must hold on dynamic substrates too, not just
# static graphs. E10 (a StageRecorder, a change observer that is not a
# timeline observer) and E13 (an opaque epsilon stop) resolve every
# request to loop before their runs start, so their reports must match
# too. E19 is the only experiment that draws from the
# state-bound schedulers (BiasedScheduler, AdversarialScheduler); its
# report carries a per-row `kernel` column that names the backend, so
# that one column is removed before the byte comparison and every other
# byte must still match. The compiled leg only measures something when its jit
# runtime (numba) is importable; without it the spec would silently
# resolve to block and the comparison would be vacuous, so it is
# skipped with a notice instead.
#
# Usage: scripts/kernel_equivalence_drill.sh [WORK_DIR]   (default: mktemp)
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=${1:-$(mktemp -d)}
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

say() { echo "[kernel-drill] $*"; }

KERNELS="loop block auto"
if python -c "import sys; from repro.core.kernels import NUMBA_AVAILABLE; sys.exit(0 if NUMBA_AVAILABLE else 1)"; then
    KERNELS="$KERNELS compiled"
else
    say "numba not installed - compiled leg skipped (would resolve to block)"
fi

# E1, E2 and E11: the static-substrate reference comparisons (count
# engine, DIV across graph classes, and run_div on hubs). E7/E12:
# chain-heavy graphs, where the prefixes shrink. E17/E18:
# zealots and edge churn — the scenario legs added with the substrate
# contract. E6/E8: pull voting to consensus on the block kernel, next to
# median and DIV in E8. E10/E13: runs that resolve to loop whatever is
# asked.
EXPERIMENTS="E1 E2 E6 E7 E8 E10 E11 E12 E13 E17 E18 E19"

# Rewrite a report without its tables' `kernel` column (which must exist).
strip_kernel_column() {
    python - "$1" "$2" <<'PY'
import json
import sys

with open(sys.argv[1]) as handle:
    report = json.load(handle)
stripped = 0
for table in report["tables"]:
    if "kernel" in table["headers"]:
        col = table["headers"].index("kernel")
        del table["headers"][col]
        for row in table["rows"]:
            del row[col]
        stripped += 1
if not stripped:
    sys.exit(f"{sys.argv[1]}: no table has a kernel column to strip")
with open(sys.argv[2], "w") as handle:
    json.dump(report, handle, indent=2)
PY
}

for experiment in $EXPERIMENTS; do
    for kernel in $KERNELS; do
        say "running $experiment --quick under kernel=$kernel"
        python -m repro.cli run "$experiment" --quick --seed 7 \
            --kernel "$kernel" --json "$WORK/$kernel"
    done
done

for experiment in $EXPERIMENTS; do
    name=$(echo "$experiment" | tr '[:upper:]' '[:lower:]')
    for kernel in $KERNELS; do
        [ "$kernel" = loop ] && continue
        if [ "$experiment" = E19 ]; then
            strip_kernel_column "$WORK/loop/$name.json" "$WORK/loop/$name.nokernel.json"
            strip_kernel_column "$WORK/$kernel/$name.json" "$WORK/$kernel/$name.nokernel.json"
            cmp "$WORK/loop/$name.nokernel.json" "$WORK/$kernel/$name.nokernel.json"
            say "$experiment: loop and $kernel reports are byte-identical bar the kernel column"
            continue
        fi
        cmp "$WORK/loop/$name.json" "$WORK/$kernel/$name.json"
        say "$experiment: loop and $kernel reports are byte-identical"
    done
done

say "OK: kernels agree on $EXPERIMENTS ($KERNELS)"
