"""Compiled execution: the per-pair recurrence in machine code.

The block kernel removed the per-step Python dispatch for the pairwise
dynamics, but each block still pays numpy call overhead for every pass
of its fixed-point solve.  This kernel removes that too: it runs the
exact sequential per-pair update loop (the loop kernel's semantics, not
the block kernel's fixed-point reformulation) over the state's flat
int64 buffers in a single numba ``@njit`` function, consuming whole
scheduler segments per call.  Sequential execution needs no dependency
solve at all; the machine-code loop simply is the reference loop.

Equivalence is structural rather than reconstructed:

* scheduler pairs are drawn at the Python level by the real scheduler,
  one ``draw_block`` of the same size per outer iteration — the RNG
  stream is identical to both other kernels by construction;
* the jitted core applies pairs one at a time, maintaining counts,
  support size and the extreme pointers exactly as
  :meth:`OpinionState.apply` does, and checks the stopping condition
  after every opinion change — in its *canonical conjunction form*
  ``support <= S and width <= W`` (:class:`~repro.core.stopping.
  StopTerm.support_at_most` / ``width_at_most``), which every built-in
  condition publishes;
* sampled observers clip segments at their next due step, exactly like
  the block kernel's commits, and read a fully re-synced state
  (:meth:`OpinionState.kernel_commit`).

Anything outside that contract — change observers, opaque stop
callables, terms without canonical thresholds, dynamics without a
``compiled_id`` — never reaches this kernel:
:func:`~repro.core.kernels.resolve_kernel` resolves such a run to the
block kernel (or on to the loop) before it starts.

numba is an *optional* dependency (``pip install div-repro[compiled]``).
Without it :func:`compiled_runtime_available` is false and
``resolve_kernel("compiled")`` resolves to the block kernel, so CI
and tier-1 stay dependency-free; the pure-Python twin of the jitted
core (the same function object, undecorated) keeps the backend testable
everywhere via :func:`interpreted_compiled`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dynamics import Dynamics
from repro.core.kernels.base import KernelContext, KernelRun, epoch_window
from repro.core.kernels.block import BlockKernel
from repro.core.stopping import MAX_STEPS_REASON, StopTerm, support_range_terms

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the default in CI
    _njit = None
    NUMBA_AVAILABLE = False

#: Threshold sentinel for "unbounded" (every support/width satisfies it).
_UNBOUNDED = np.iinfo(np.int64).max

# Test override stack: forces the interpreted core (and reports the
# runtime as available) so the sweep exercises the compiled kernel's
# control flow on machines without numba.
_INTERPRETED: list = []


def supports_compiled(dynamics: Dynamics) -> bool:
    """Whether ``dynamics`` publishes a compiled-kernel dispatch code."""
    return isinstance(getattr(dynamics, "compiled_id", None), int)


def compiled_runtime_available() -> bool:
    """Whether the compiled backend can execute here (numba importable).

    :func:`interpreted_compiled` overrides this for tests; production
    resolution falls back to the block kernel when this is false.
    """
    return NUMBA_AVAILABLE or bool(_INTERPRETED)


@contextmanager
def interpreted_compiled() -> Iterator[None]:
    """Force the compiled kernel's pure-Python core (tests only).

    Inside the context :func:`compiled_runtime_available` reports true
    and :class:`CompiledKernel` runs the undecorated twin of the jitted
    function, so the equivalence sweep covers the backend's control
    flow bit-for-bit on machines without numba.
    """
    _INTERPRETED.append(True)
    try:
        yield
    finally:
        _INTERPRETED.pop()


def _consume_pairs(
    values: np.ndarray,
    counts: np.ndarray,
    offset: int,
    min_idx: int,
    max_idx: int,
    support_size: int,
    v_seg: np.ndarray,
    w_seg: np.ndarray,
    dyn_id: int,
    frozen: np.ndarray,
    term_support: np.ndarray,
    term_width: np.ndarray,
) -> Tuple[int, int, int, int, int, int]:
    """Apply one scheduler segment pair by pair over the flat buffers.

    This is the whole sequential engine in one (jittable) function:
    per pair the dynamics update (``dyn_id``: 0 = DIV's one-unit move,
    1 = pull, 2 = push), the count/support/extreme bookkeeping of
    :meth:`OpinionState.apply`, and the stopping check after every
    change — a term ``t`` fires iff ``support <= term_support[t] and
    width <= term_width[t]`` (checked in term order, so ties report the
    earliest term like ``first_of``).  New values never leave the
    current ``[min, max]`` range for these dynamics, so the extreme
    pointers only ever move inward.

    ``frozen`` is the zealot mask over all ``n`` vertices (all-false
    when the scenario has none): a pair whose write target is frozen is
    a no-change step, mirroring :meth:`OpinionState.apply`'s no-op and
    the block kernel's frozen-target mask.

    Returns ``(pairs_done, changes, fired_term or -1, support_size,
    min_idx, max_idx)``; ``pairs_done`` counts the firing pair.
    """
    changes = 0
    n_terms = term_support.shape[0]
    for i in range(v_seg.shape[0]):
        v = v_seg[i]
        w = w_seg[i]
        xv = values[v]
        xw = values[w]
        if xv == xw:
            continue
        if dyn_id == 0:  # DIV: v moves one unit toward w
            target = v
            new_value = xv + 1 if xw > xv else xv - 1
        elif dyn_id == 1:  # pull: v adopts w's opinion
            target = v
            new_value = xw
        else:  # push: v imposes its opinion on w
            target = w
            new_value = xv
        if frozen[target]:
            continue
        old_value = values[target]
        values[target] = new_value
        old_idx = old_value - offset
        new_idx = new_value - offset
        counts[old_idx] -= 1
        if counts[old_idx] == 0:
            support_size -= 1
        if counts[new_idx] == 0:
            support_size += 1
        counts[new_idx] += 1
        if counts[min_idx] == 0:
            while counts[min_idx] == 0 and min_idx < max_idx:
                min_idx += 1
        if counts[max_idx] == 0:
            while counts[max_idx] == 0 and max_idx > min_idx:
                max_idx -= 1
        changes += 1
        width = max_idx - min_idx
        for t in range(n_terms):
            if support_size <= term_support[t] and width <= term_width[t]:
                return i + 1, changes, t, support_size, min_idx, max_idx
    return v_seg.shape[0], changes, -1, support_size, min_idx, max_idx


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only with numba
    _consume_pairs_jit = _njit(cache=True)(_consume_pairs)
else:
    _consume_pairs_jit = None


def term_thresholds(
    terms: Optional[Sequence[StopTerm]],
) -> Optional[Tuple[List[str], np.ndarray, np.ndarray]]:
    """Canonical ``(reasons, support, width)`` thresholds, or ``None``.

    ``None`` means at least one term publishes no canonical conjunction
    form (or the condition is opaque), so the compiled core cannot
    check it.
    """
    if terms is None:
        return None
    reasons: List[str] = []
    supports = np.empty(len(terms), dtype=np.int64)
    widths = np.empty(len(terms), dtype=np.int64)
    for i, term in enumerate(terms):
        if term.support_at_most is None and term.width_at_most is None:
            return None
        supports[i] = (
            term.support_at_most if term.support_at_most is not None else _UNBOUNDED
        )
        widths[i] = (
            term.width_at_most if term.width_at_most is not None else _UNBOUNDED
        )
        reasons.append(term.reason)
    return reasons, supports, widths


class CompiledKernel:
    """Machine-code execution of the sequential per-pair recurrence."""

    name = "compiled"
    reason = ""

    def execute(self, ctx: KernelContext) -> KernelRun:
        reasons, term_support, term_width = term_thresholds(
            support_range_terms(ctx.stop_condition)
        )
        core = _consume_pairs
        if _consume_pairs_jit is not None and not _INTERPRETED:
            core = _consume_pairs_jit

        state = ctx.state
        generator = ctx.generator
        scheduler = ctx.scheduler
        max_steps = ctx.max_steps
        block_size = ctx.block_size
        sampled = ctx.sampled
        intervals = ctx.intervals
        dyn_id = ctx.dynamics.compiled_id

        for obs in sampled:
            obs.sample(0, state)
        last_sampled = {id(obs): 0 for obs in sampled}
        next_due = list(intervals)

        reason = ctx.stop_condition(state)
        step = 0
        blocks = 0
        changes = 0
        values, counts, offset, min_idx, max_idx, support_size = (
            state.kernel_buffers()
        )
        # The jit core takes the zealot mask unconditionally (one stable
        # signature); scenario-free runs pass a shared all-false array.
        if state.has_frozen:
            frozen = state.frozen_mask.astype(np.bool_)
        else:
            frozen = np.zeros(state.graph.n, dtype=np.bool_)
        # Whether the flat buffers were mutated since the last commit
        # (drives the exact lazy weight rebuild observers read through).
        pending_mutation = False
        while reason is None:
            remaining = block_size
            if max_steps is not None:
                remaining = min(remaining, max_steps - step)
                if remaining <= 0:
                    reason = MAX_STEPS_REASON
                    break
            remaining = epoch_window(ctx, step, remaining)
            v_block, w_block = scheduler.draw_block(generator, remaining)
            blocks += 1
            base = step  # steps completed before this block
            pos = 0
            while pos < remaining:
                end = remaining
                if next_due:
                    # Never let a sampled observer come due strictly
                    # inside a segment; the clipped tail resumes next
                    # iteration (same clipping as the block kernel).
                    end = min(end, min(next_due) - base)
                done, seg_changes, fired, support_size, min_idx, max_idx = core(
                    values,
                    counts,
                    offset,
                    min_idx,
                    max_idx,
                    support_size,
                    v_block[pos:end],
                    w_block[pos:end],
                    dyn_id,
                    frozen,
                    term_support,
                    term_width,
                )
                changes += int(seg_changes)
                pending_mutation = pending_mutation or seg_changes > 0
                step = base + pos + int(done)
                if fired >= 0:
                    reason = reasons[fired]
                    break
                pos = end
                if sampled:
                    state.kernel_commit(
                        support_size, min_idx, max_idx, pending_mutation
                    )
                    pending_mutation = False
                    step = BlockKernel._fire_due(
                        sampled, intervals, next_due, last_sampled, step, state
                    )

        state.kernel_commit(support_size, min_idx, max_idx, pending_mutation)
        for obs in sampled:
            if last_sampled[id(obs)] != step:
                obs.sample(step, state)
        return KernelRun(
            steps=step, stop_reason=reason, blocks=blocks, changes=changes
        )
