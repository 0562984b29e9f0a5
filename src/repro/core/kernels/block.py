"""Vectorized execution: each drawn block solved as one fixed point.

The reference loop pays one Python-level ``Dynamics.step`` call per
asynchronous step — the single hot path under every paper-scale sweep
(Theorem 1's ``T = o(n²)`` budget means hundreds of millions of steps).
This kernel removes it for the pairwise dynamics (DIV, pull, push),
whose update is a pure rule ``step_block(xv, xw)`` writing one endpoint.

A drawn block of ``B`` pairs is a *triangular* system. Pair ``t``
writes ``out[t] = rule(x, y)``, where ``x`` and ``y`` are its two
endpoints' values just before it: ``out`` of the last earlier pair that
wrote that vertex, or the block-start state if none did. So

1. draw the block exactly like the loop (identical RNG use);
2. find every pair's two inputs with one sort of the block's event keys
   ``vertex << s | 2t | is_write`` — in sorted order, the last write
   event before an event on the same vertex is its input
   (:func:`solve_block`);
3. iterate ``out = rule(out[inputs])`` from the no-change guess. Pair
   ``t`` depends only on pairs before it, so after each pass everything
   up to the first entry that moved already solves the system; the next
   pass re-evaluates only the suffix behind it. The fixed point is
   unique and *is* the sequential run. The passes follow the longest
   chain of changes: about a dozen on an 8192-pair block of a
   10-regular expander, one per pair on a chain where each pair reads
   the last pair's write;
4. the pairs whose output differs from their input are the block's
   changes, in step order. Their old and new values feed
   :meth:`OpinionState.support_range_timeline`, which reconstructs the
   exact step a stopping condition (:class:`~repro.core.stopping.
   StopTerm`) first fires, and is handed to each timeline observer
   (:func:`~repro.core.observers.is_timeline_observer`); one
   :meth:`OpinionState.apply_block` then commits the last write of each
   vertex up to that step.

A block is drawn whole but solved in *prefixes*, each from the
committed state. A run's first solve takes :data:`FIRST_PREFIX` pairs;
:func:`next_prefix` sizes each later one from the passes of the last:
few passes grow the prefix toward the block size, many shrink it, so a
chain-heavy graph (a path, a lollipop's tail, a star's hub) solves
short prefixes in a few passes each instead of block-sized ones in
hundreds, and a run that stops early pays for about the pairs it used.
The prefix does not reset between blocks. A block that cannot stop the
run (:func:`_may_fire` rules out every stop term) is solved whole and
leaves the prefix as it was.

Sampled observers split the commit at their due steps, without changing
the solve. A run whose stop publishes no :class:`StopTerm`, or with a
change observer that is not a timeline observer, needs the live state
after every change; :func:`~repro.core.kernels.resolve_kernel` sends it
to the loop kernel before it starts.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels.base import KernelContext, KernelRun, epoch_window
from repro.core.observers import is_timeline_observer
from repro.core.stopping import MAX_STEPS_REASON, StopTerm, first_fire, support_range_terms

#: Pairs in a run's first solve; :func:`next_prefix` sizes each later
#: one from the passes of the last. Large enough that an expander's
#: prefix reaches the block size within a few solves and a hub run of
#: a few thousand steps makes few solves; small enough that a run ending
#: within a few hundred steps solves about what it uses.
FIRST_PREFIX = 256

#: The smallest prefix a run of long solves shrinks to.
MIN_PREFIX = 16


def next_prefix(prefix: int, passes: int, block_size: int) -> int:
    """The pair count of the solve after one of ``prefix`` pairs took
    ``passes`` passes.

    A solve's passes follow its longest chain of changes, and each pass
    re-evaluates the whole unsolved suffix, so a prefix is worth
    growing while its passes are few: fewer than 8 quadruple it, fewer
    than 16 double it, 16 to 48 keep it, and more than 48 halve it,
    down to :data:`MIN_PREFIX`. The result never exceeds the block size.
    """
    if passes < 8:
        prefix *= 4
    elif passes < 16:
        prefix *= 2
    elif passes > 48:
        prefix = max(prefix // 2, MIN_PREFIX)
    return min(prefix, block_size)


def solve_block(
    rule,
    writes_v: bool,
    values: np.ndarray,
    v_block: np.ndarray,
    w_block: np.ndarray,
    frozen: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """The sequential outcome of one block of pairs.

    ``rule(xv, xw)`` returns the written endpoint's new value
    (``writes_v``: ``v`` is written, else ``w``); ``values`` is the
    opinion vector at block start and ``frozen`` the zealot mask, whose
    vertices keep their values. Returns ``(targets, before, after,
    next_write, passes)``: per pair, the written vertex, its value just
    before and just after the pair, and the index of the next pair
    writing the same vertex (``len(v_block)`` when none does); then the
    number of passes the fixed point took, which sizes the kernel's
    next solve (:func:`next_prefix`).

    The event keys and the linking arithmetic are int32 when every key
    fits, ``values.size << shift < 2**31``, and int64 otherwise: the
    width follows from ``n`` and the block size, on one code path. An
    int32 sort of 16,384 keys takes about a third of the int64 time.
    ``inputs`` stays ``intp`` so that the passes' ``take`` calls index
    without a conversion.
    """
    size = int(v_block.size)
    targets, others = (v_block, w_block) if writes_v else (w_block, v_block)
    # Event keys: write of pair t at 2t+1, read of its other endpoint at
    # 2t, so a pair reading its own target (v == w) reads before writing.
    # Selections below are arithmetic (x + (y - x) * flag): a data-bound
    # np.where is several times slower on these random masks.
    shift = (2 * size).bit_length()
    low = (1 << shift) - 1
    dtype = np.int32 if values.size << shift < 2**31 else np.int64
    # A sentinel key of the non-vertex n heads the sorted keys: an event
    # with no earlier write links to it, which is never the same vertex.
    padded = np.empty(2 * size + 1, dtype=dtype)
    padded[0] = values.size << shift
    keys = padded[1:]
    keys[:size] = targets
    keys[size:] = others
    keys <<= shift
    twice = np.arange(0, 2 * size, 2, dtype=dtype)
    keys[size:] |= twice
    twice |= 1
    keys[:size] |= twice
    keys.sort()
    order = keys & low
    is_write = order & 1
    # last_write[p]: the position in ``padded`` of the last write at or
    # before p (0, the sentinel, if none). Event i sits at p = i + 1, so
    # last_write[i] is the last write strictly before it.
    last_write = np.arange(2 * size + 1, dtype=dtype)
    last_write[1:] *= is_write
    np.maximum.accumulate(last_write, out=last_write)
    source = padded.take(last_write[:-1])
    linked = (source ^ keys) <= low  # the same vertex
    # In place from here on: source, order and is_write are not read again.
    writer = source
    writer &= low
    writer >>= 1
    # inputs[t] / inputs[size + t]: where pair t reads its target / its
    # other endpoint, as an index into [after | targets' start values |
    # others' start values].
    slot = order
    slot >>= 1
    is_write ^= 1
    is_write *= size
    slot += is_write
    unlinked = slot + size
    writer -= unlinked
    writer *= linked
    writer += unlinked
    inputs = np.empty(2 * size, dtype=np.intp)
    inputs[slot] = writer
    table = np.empty(3 * size, dtype=np.int64)
    values.take(targets, out=table[size : 2 * size], mode="clip")
    values.take(others, out=table[2 * size :], mode="clip")
    table[:size] = table[size : 2 * size]  # the no-change guess
    target_in = inputs[:size]
    other_in = inputs[size:]
    # Pair t is the next write of the pair its target input points at;
    # unlinked inputs point past ``size``, at distinct spare slots.
    next_write = np.full(2 * size, size, dtype=np.int64)
    next_write[target_in] = np.arange(size)
    keep = None if frozen is None else frozen[targets]
    start = passes = 0
    while start < size:
        passes += 1
        before = table.take(target_in[start:])
        other = table.take(other_in[start:])
        after = rule(before, other) if writes_v else rule(other, before)
        if keep is not None:
            after = np.where(keep[start:], before, after)
        moved = after != table[start:size]
        first = int(moved.argmax())
        if not moved[first]:
            break
        table[start + first : size] = after[first:]
        start += first + 1
    return targets, table.take(target_in), table[:size], next_write[:size], passes


def _may_fire(state, pending_changes: int, terms: Sequence[StopTerm]) -> bool:
    """Whether any term could fire within ``pending_changes`` changes.

    Reaching a term's ``support_at_most`` means emptying whole opinion
    classes, which takes at least
    :meth:`OpinionState.min_changes_to_support` changes; a block with
    fewer pending changes provably cannot fire the term. This skips the
    timeline reconstruction for much of a run under the common
    ``consensus`` / ``two_adjacent`` conditions — e.g. consensus stays
    out of reach while the minority classes outnumber the block's
    changes.
    """
    for term in terms:
        ceiling = term.support_at_most
        if ceiling is None or state.min_changes_to_support(ceiling) <= pending_changes:
            return True
    return False


def _gate_terms(terms: Sequence[StopTerm], observers) -> List[StopTerm]:
    """The clauses a commit must be able to fire to need its timeline."""
    return list(terms) + [term for obs in observers for term in support_range_terms(obs)]


class BlockKernel:
    """Vectorized execution: each drawn block solved as fixed points of
    prefixes sized by their pass counts."""

    name = "block"
    reason = ""

    def execute(self, ctx: KernelContext) -> KernelRun:
        state = ctx.state
        generator = ctx.generator
        scheduler = ctx.scheduler
        stop_condition = ctx.stop_condition
        rule = ctx.dynamics.step_block
        writes_v = ctx.dynamics.writes == "v"
        max_steps = ctx.max_steps
        block_size = ctx.block_size
        sampled = ctx.sampled
        intervals = ctx.intervals
        terms = support_range_terms(stop_condition)
        # resolve_kernel admits only timeline observers here.
        timeline = ctx.change_observers

        for obs in sampled:
            obs.sample(0, state)
        last_sampled = {id(obs): 0 for obs in sampled}
        next_due = list(intervals)

        # Unless a sampled observer can read the degree-weighted
        # aggregates mid-run (timeline observers read only support and
        # width), their bookkeeping is deferred to the first read after
        # the run (bit-identical, see apply_block).
        defer_weights = all(is_timeline_observer(obs) for obs in sampled)
        gate_terms = _gate_terms(terms, timeline)

        reason = stop_condition(state)
        step = 0
        blocks = changes = solves = passes = 0
        drawn = used = 0  # pairs in the current block / solved from it
        prefix = FIRST_PREFIX
        while reason is None:
            if used == drawn:
                remaining = block_size
                if max_steps is not None:
                    remaining = min(remaining, max_steps - step)
                    if remaining <= 0:
                        reason = MAX_STEPS_REASON
                        break
                remaining = epoch_window(ctx, step, remaining)
                v_block, w_block = scheduler.draw_block(generator, remaining)
                blocks += 1
                drawn, used = remaining, 0
                # A block that cannot stop the run is solved whole.
                whole = not _may_fire(state, drawn, terms)
            size = drawn - used if whole else min(prefix, drawn - used)
            v_part = v_block[used : used + size]
            w_part = w_block[used : used + size]
            used += size
            base = step  # steps completed before this solve
            targets, before, after, next_write, solve_passes = solve_block(
                rule, writes_v, state.values, v_part, w_part, state.frozen_mask
            )
            solves += 1
            passes += solve_passes
            if not whole:
                prefix = next_prefix(prefix, solve_passes, block_size)
            moved = np.flatnonzero(before != after)
            pos = 0  # pairs of this solve committed so far
            done = 0  # entries of ``moved`` committed so far
            while pos < size:
                end = size
                if next_due:
                    # A sampled observer never comes due strictly inside
                    # a commit: split it at the next due step.
                    end = min(end, min(next_due) - base)
                upto = done + int(np.searchsorted(moved[done:], end))
                at = moved[done:upto]  # this commit's changes, as pair indices
                fire_index, fire_reason = None, None
                if at.size and _may_fire(state, at.size, gate_terms):
                    support_sizes, range_widths = state.support_range_timeline(
                        before[at], after[at]
                    )
                    fire_index, fire_reason = first_fire(
                        terms, support_sizes, range_widths
                    )
                    if timeline:
                        # Observers see only the changes that commit,
                        # the stop's own change included, as the loop
                        # calls on_change before the stop.
                        seen = at.size if fire_index is None else fire_index + 1
                        steps = base + 1 + at[:seen]
                        for obs in timeline:
                            obs.on_timeline(
                                steps, support_sizes[:seen], range_widths[:seen]
                            )
                        gate_terms = _gate_terms(terms, timeline)
                if fire_index is not None:
                    end = int(at[fire_index]) + 1
                    changes += fire_index + 1
                else:
                    changes += int(at.size)
                if at.size:
                    # The last write of each vertex in [pos, end) holds
                    # its value at ``end``; commit those that differ.
                    last = pos + np.flatnonzero(next_write[pos:end] >= end)
                    vertices = targets[last]
                    values = after[last]
                    fresh = state.values[vertices] != values
                    state.apply_block(
                        vertices[fresh], values[fresh], defer_weights=defer_weights
                    )
                step = base + end
                if fire_index is not None:
                    reason = fire_reason
                    break
                pos = end
                done = upto
                if sampled:
                    step = self._fire_due(
                        sampled, intervals, next_due, last_sampled, step, state
                    )

        for obs in sampled:
            if last_sampled[id(obs)] != step:
                obs.sample(step, state)
        return KernelRun(
            steps=step,
            stop_reason=reason,
            blocks=blocks,
            changes=changes,
            solves=solves,
            passes=passes,
        )

    @staticmethod
    def _fire_due(sampled, intervals, next_due, last_sampled, step, state) -> int:
        """Fire every sampled observer whose next due step was reached."""
        for i, obs in enumerate(sampled):
            if step >= next_due[i]:
                obs.sample(step, state)
                last_sampled[id(obs)] = step
                next_due[i] = step + intervals[i]
        return step
