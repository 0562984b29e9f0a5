"""Reference model of the K_n count engine: the float-scan step loop.

``run_div_complete`` in :mod:`repro.core.fast_complete` draws the same
two uniform blocks and must reproduce this model bit for bit: same
steps, stop reason, counts, two-adjacent step, ``S(t)`` samples and
trace span. This model keeps the textbook form of the
chain: per step, two float-accumulating linear scans over the counts
pick the updating opinion ``i`` (``P = N_i / n``) and the observed
opinion ``j`` (``P = (N_j - [j = i]) / (n - 1)``).

Inputs are assumed valid; the engine owns argument validation.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Dict, List, Optional

from repro.core.fast_complete import _BLOCK, CompleteRunResult
from repro.core.stopping import MAX_STEPS_REASON
from repro.obs.log import active_log
from repro.rng import make_rng


def reference_run_div_complete(
    n: int,
    initial_counts: Dict[int, int],
    *,
    stop: str = "consensus",
    rng=None,
    max_steps: Optional[int] = None,
    weight_interval: Optional[int] = None,
) -> CompleteRunResult:
    """The count chain on ``K_n``, one linear scan per draw."""
    present = sorted(o for o, c in initial_counts.items() if c > 0)
    offset = present[0]
    width = present[-1] - offset + 1
    counts = [0] * width
    for opinion, count in initial_counts.items():
        if count > 0:
            counts[opinion - offset] = count

    generator = make_rng(rng)
    lo, hi = 0, width - 1
    total = sum(idx * count for idx, count in enumerate(counts))
    step = 0
    two_adjacent_step: Optional[int] = 0 if hi - lo <= 1 else None
    weight_steps: List[int] = []
    weights: List[int] = []
    if weight_interval is not None:
        weight_steps.append(0)
        weights.append(total + offset * n)

    def stopped() -> Optional[str]:
        if hi == lo:
            return "consensus"
        if stop == "two_adjacent" and hi - lo == 1:
            return "two_adjacent"
        return None

    log = active_log()
    support = len(present)
    initial_support = support
    transitions: List[tuple] = []
    phase_steps: Dict[int, int] = {}
    last_step = 0

    def accrue(at_step: int) -> None:
        nonlocal last_step
        if at_step > last_step or support not in phase_steps:
            phase_steps[support] = phase_steps.get(support, 0) + at_step - last_step
        last_step = at_step

    stack = ExitStack()
    span = (
        stack.enter_context(log.span("engine.run_complete"))
        if log is not None
        else None
    )
    reason = stopped()
    nm1 = n - 1
    blocks = 0
    changes = 0
    while reason is None:
        block = _BLOCK
        if max_steps is not None:
            block = min(block, max_steps - step)
            if block <= 0:
                reason = MAX_STEPS_REASON
                break
        u1 = generator.random(block).tolist()
        u2 = generator.random(block).tolist()
        blocks += 1
        for b in range(block):
            step += 1
            target = u1[b] * n
            acc = 0.0
            i = hi
            for idx in range(lo, hi + 1):
                acc += counts[idx]
                if target < acc:
                    i = idx
                    break
            target = u2[b] * nm1
            acc = 0.0
            j = hi
            for idx in range(lo, hi + 1):
                acc += counts[idx] - (1 if idx == i else 0)
                if target < acc:
                    j = idx
                    break
            if j == i:
                if weight_interval is not None and step % weight_interval == 0:
                    weight_steps.append(step)
                    weights.append(total + offset * n)
                continue
            dest = i + 1 if j > i else i - 1
            counts[i] -= 1
            counts[dest] += 1
            total += dest - i
            changes += 1
            new_support = (
                support + (1 if counts[dest] == 1 else 0) - (1 if counts[i] == 0 else 0)
            )
            if new_support != support:
                accrue(step)
                transitions.append((step, new_support))
                support = new_support
            while counts[lo] == 0 and lo < hi:
                lo += 1
            while counts[hi] == 0 and hi > lo:
                hi -= 1
            if two_adjacent_step is None and hi - lo <= 1:
                two_adjacent_step = step
            if weight_interval is not None and step % weight_interval == 0:
                weight_steps.append(step)
                weights.append(total + offset * n)
            reason = stopped()
            if reason is not None:
                break

    if weight_interval is not None and weight_steps[-1] != step:
        weight_steps.append(step)
        weights.append(total + offset * n)

    if span is not None:
        accrue(step)
        span.update(
            engine="complete",
            steps=step,
            stop_reason=reason,
            opinion_changes=changes,
            rng_blocks=blocks,
            n=n,
            initial_support=initial_support,
            phase_transitions=len(transitions),
            phases=[
                {"support": s, "steps": phase_steps[s], "seconds": 0.0}
                for s in sorted(phase_steps, reverse=True)
            ],
            transitions=transitions,
        )
    stack.close()

    final_counts = {idx + offset: counts[idx] for idx in range(width) if counts[idx] > 0}
    return CompleteRunResult(
        n=n,
        steps=step,
        stop_reason=reason,
        counts=final_counts,
        two_adjacent_step=two_adjacent_step,
        weight_steps=weight_steps,
        weights=weights,
    )
