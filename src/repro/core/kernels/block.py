"""Vectorized execution: conflict-free block application.

The reference loop pays one Python-level ``Dynamics.step`` call per
asynchronous step — the single hot path under every paper-scale sweep
(Theorem 1's ``T = o(n²)`` budget means hundreds of millions of steps).
This kernel removes it for the pairwise dynamics (DIV, pull, push):

1. draw the scheduler block exactly like the loop (identical RNG use);
2. let the dynamics propose updates for a *lookahead* of upcoming pairs
   in one numpy pass (:meth:`Dynamics.step_block`), computed from the
   current state;
3. find the first pair that reads or writes a vertex an earlier pair in
   the lookahead *changed* — every proposal before that point saw
   exactly the state the sequential loop would have seen, so the prefix
   (a conflict-free *window*) commits in one batch through
   :meth:`OpinionState.apply_block`, bit-identically;
4. reconstruct the exact step a stopping condition first fires *inside*
   an applied window from the cumulative support/range deltas
   (:meth:`OpinionState.support_range_timeline` +
   :class:`~repro.core.stopping.StopTerm`), truncating the commit so
   outcomes, stop reasons and step counts match the loop exactly.

The window rule is *optimistic*: only vertices whose opinion actually
changed can invalidate a later read, so windows stretch far beyond the
value-independent segmentation of :func:`conflict_free_bounds` (which
splits on any reappearance) — crucially so late in a run, when almost
no interaction changes anything and windows grow to whole blocks.  The
lookahead length adapts to the realised window so little proposal work
is thrown away when conflicts are frequent.

Change observers need the live state after every single change, so in
their presence (and for opaque stop callables that publish no
:class:`StopTerm`) the kernel degrades to *replay*: the block is split
with :func:`conflict_free_bounds` into segments whose proposals are
still vectorized and whose no-change steps are skipped, but each
segment's changes are committed one at a time with observers and the
stop condition evaluated in between — exact for any observer or
condition.  Sampled observers are handled without replay by clipping
windows and segments at their next due step, and *marks* — change
observers that publish :class:`StopTerm` clauses plus a ``mark(step)``
hook, like ``run_div``'s two-adjacent tracker — by finding their first
firing change in the same timeline the stop is reconstructed from.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels.base import KernelContext, KernelRun, epoch_window
from repro.core.stopping import MAX_STEPS_REASON, StopTerm, support_range_terms

#: ``first_write`` sentinel for "vertex not changed in this lookahead";
#: larger than any pair index so the ``< index`` conflict test is false.
_NEVER = np.iinfo(np.int64).max

#: Smallest proposal lookahead (pairs).  Windows shorter than this are
#: conflict-dominated anyway; proposing at least this many pairs keeps
#: the per-window numpy overhead amortized.
_MIN_LOOKAHEAD = 128


def conflict_free_bounds(v_block: np.ndarray, w_block: np.ndarray) -> List[int]:
    """Split a block of pairs into maximal conflict-free segments.

    Returns ascending pair-index boundaries ``[0, b1, ..., size]``; each
    half-open range ``[b_i, b_{i+1})`` is conflict-free: no vertex
    appears in two different pairs of the range, in either role. A pair
    whose own ``v == w`` is a single appearance (it reads one vertex and
    can never change anything), so it does not conflict with itself —
    but a *repeat* of it does conflict, like any other reappearance.

    The segmentation is greedy, i.e. each segment is the longest
    conflict-free prefix of what remains, matching the sequential
    engine's order of application.  It is value-independent — any
    reappearance splits, changed or not — which is what the replay path
    needs: proposals for a whole segment must be valid *before* knowing
    which of them the stop condition will let commit.
    """
    size = int(v_block.size)
    if size == 0:
        return [0]
    interleaved = np.empty(2 * size, dtype=np.int64)
    interleaved[0::2] = v_block
    interleaved[1::2] = w_block
    order = np.argsort(interleaved, kind="stable")
    ordered = interleaved[order]
    same = ordered[1:] == ordered[:-1]
    previous = np.full(2 * size, -1, dtype=np.int64)
    previous[order[1:][same]] = order[:-1][same]
    v_previous = previous[0::2]
    w_previous = previous[1::2]
    # A v == w pair links its w slot straight back to its own v slot;
    # skip that self-link and chase the v slot's predecessor instead.
    self_link = w_previous == np.arange(0, 2 * size, 2)
    w_previous = np.where(self_link, v_previous, w_previous)
    last_seen = np.maximum(v_previous, w_previous) // 2

    bounds = [0]
    start = 0
    conflicts = np.flatnonzero(last_seen >= 0)
    for pair, seen in zip(conflicts.tolist(), last_seen[conflicts].tolist()):
        if pair > start and seen >= start:
            bounds.append(pair)
            start = pair
    bounds.append(size)
    return bounds


def _first_fire(
    terms: Sequence[StopTerm],
    support_sizes: np.ndarray,
    range_widths: np.ndarray,
) -> Tuple[Optional[int], Optional[str]]:
    """First change index at which any term fires, with its reason.

    Terms are evaluated in order and ties go to the earlier term —
    exactly the sequential semantics of ``first_of``.
    """
    best: Optional[int] = None
    best_reason: Optional[str] = None
    for term in terms:
        mask = term.fires(support_sizes, range_widths)
        if mask.any():
            index = int(mask.argmax())
            if best is None or index < best:
                best = index
                best_reason = term.reason
    return best, best_reason


def _may_fire(state, pending_changes: int, terms: Sequence[StopTerm]) -> bool:
    """Whether any term could fire within ``pending_changes`` changes.

    Reaching a term's ``support_ceiling`` means emptying whole opinion
    classes, which takes at least
    :meth:`OpinionState.min_changes_to_support` changes; a window with
    fewer pending changes provably cannot fire the term. This skips the
    timeline reconstruction for almost the entire run under the common
    ``consensus`` / ``two_adjacent`` conditions — e.g. consensus stays
    out of reach while the minority class outnumbers the window.
    """
    for term in terms:
        ceiling = term.support_ceiling
        if ceiling is None or state.min_changes_to_support(ceiling) <= pending_changes:
            return True
    return False


def _is_mark(observer) -> bool:
    """Whether ``observer`` follows the mark contract.

    A mark publishes ``support_range_terms`` and a ``mark(step)`` hook
    (see :class:`~repro.core.observers.FirstTimeTracker`): the kernel
    reconstructs its first firing step from each committed window's
    support/width timeline instead of replaying every change to it.
    """
    return support_range_terms(observer) is not None and callable(
        getattr(observer, "mark", None)
    )


def _gate_terms(terms: Sequence[StopTerm], pending_marks) -> List[StopTerm]:
    """The clauses a window must be able to fire to need its timeline."""
    return list(terms) + [term for _, mark_terms in pending_marks for term in mark_terms]


class BlockKernel:
    """Vectorized execution of conflict-free scheduler windows."""

    name = "block"
    reason = ""

    def execute(self, ctx: KernelContext) -> KernelRun:
        state = ctx.state
        generator = ctx.generator
        scheduler = ctx.scheduler
        stop_condition = ctx.stop_condition
        step_block = ctx.dynamics.step_block
        max_steps = ctx.max_steps
        block_size = ctx.block_size
        sampled = ctx.sampled
        intervals = ctx.intervals
        terms = support_range_terms(stop_condition)
        marks = [obs for obs in ctx.change_observers if _is_mark(obs)]
        replay = terms is None or len(marks) < len(ctx.change_observers)

        for obs in sampled:
            obs.sample(0, state)
        last_sampled = {id(obs): 0 for obs in sampled}
        next_due = list(intervals)

        # Fast-path scratch: first pair index that changed each vertex
        # within the current lookahead (reset after every window), a
        # reusable pair-index ramp for the conflict comparison, and
        # per-run gather/mask buffers so the conflict test allocates
        # nothing per window.
        first_write = np.full(state.graph.n, _NEVER, dtype=np.int64)
        pair_index = np.arange(block_size, dtype=np.int64)
        gather_v = np.empty(block_size, dtype=np.int64)
        gather_w = np.empty(block_size, dtype=np.int64)
        mask_v = np.empty(block_size, dtype=np.bool_)
        mask_w = np.empty(block_size, dtype=np.bool_)
        lookahead = _MIN_LOOKAHEAD
        # Unless a sampled observer can read the degree-weighted
        # aggregates mid-run (marks read only support and width), their
        # bookkeeping is deferred to the first read after the run
        # (bit-identical, see apply_block).
        defer_weights = all(_is_mark(obs) for obs in sampled)
        # Unfired marks, each with its clauses; a mark leaves the list
        # once its first firing step is recorded.
        pending_marks = [(obs, support_range_terms(obs)) for obs in marks]
        gate_terms = [] if replay else _gate_terms(terms, pending_marks)

        reason = stop_condition(state)
        step = 0
        blocks = 0
        changes = 0
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

            if replay:
                bounds = conflict_free_bounds(v_block, w_block)
                bound_index = 1
                while pos < remaining:
                    end = bounds[bound_index]
                    while end <= pos:
                        bound_index += 1
                        end = bounds[bound_index]
                    if next_due:
                        # Never let a sampled observer come due strictly
                        # inside a segment; a clipped tail stays
                        # conflict-free and resumes next iteration.
                        end = min(end, min(next_due) - base)
                    seg_v = v_block[pos:end]
                    seg_w = w_block[pos:end]
                    changed, targets, new_values = step_block(state, seg_v, seg_w)
                    fired_at, fire_reason = self._replay_segment(
                        ctx, seg_v, seg_w, changed, targets, new_values, base + pos
                    )
                    changes += fired_at[1]
                    if fire_reason is not None:
                        step = fired_at[0]
                        reason = fire_reason
                        break
                    step = base + end
                    pos = end
                    if sampled:
                        step = self._fire_due(
                            sampled, intervals, next_due, last_sampled, step, state
                        )
                continue

            while pos < remaining:
                look = remaining - pos
                if next_due:
                    # Never let a sampled observer come due strictly
                    # inside a window; the clipped tail resumes next
                    # iteration with fresh proposals.
                    look = min(look, min(next_due) - base - pos)
                look = min(look, lookahead)
                seg_v = v_block[pos:pos + look]
                seg_w = w_block[pos:pos + look]
                changed, targets, new_values = step_block(state, seg_v, seg_w)
                positions = np.flatnonzero(changed)
                window = look
                if positions.size:
                    # Earliest changing pair per vertex: reversed fancy
                    # assignment lets the first occurrence win.
                    first_write[targets[::-1]] = positions[::-1]
                    index = pair_index[:look]
                    fw_v = gather_v[:look]
                    fw_w = gather_w[:look]
                    # mode="clip" skips the bounds check; seg_v/seg_w are
                    # scheduler-drawn vertices, always < n.
                    first_write.take(seg_v, out=fw_v, mode="clip")
                    first_write.take(seg_w, out=fw_w, mode="clip")
                    conflict = mask_v[:look]
                    np.less(fw_v, index, out=conflict)
                    np.less(fw_w, index, out=mask_w[:look])
                    np.logical_or(conflict, mask_w[:look], out=conflict)
                    first_write[targets] = _NEVER
                    if conflict.any():
                        # Proposals past the first conflict read state an
                        # earlier pair rewrote; drop them (recomputed
                        # from the true state next iteration).
                        window = int(conflict.argmax())
                        kept = int(np.searchsorted(positions, window))
                        positions = positions[:kept]
                        targets = targets[:kept]
                        new_values = new_values[:kept]
                pending = int(targets.size)
                if pending:
                    if _may_fire(state, pending, gate_terms):
                        old_values = state.values[targets]
                        support_sizes, range_widths = state.support_range_timeline(
                            old_values, new_values
                        )
                        fire_index, fire_reason = _first_fire(
                            terms, support_sizes, range_widths
                        )
                        if pending_marks:
                            # Marks see only the changes that commit; one
                            # firing at the stop's own change is recorded,
                            # as the loop calls on_change before the stop.
                            end = pending if fire_index is None else fire_index + 1
                            unfired = []
                            for obs, mark_terms in pending_marks:
                                mark_index, _ = _first_fire(
                                    mark_terms, support_sizes[:end], range_widths[:end]
                                )
                                if mark_index is None:
                                    unfired.append((obs, mark_terms))
                                else:
                                    obs.mark(base + pos + int(positions[mark_index]) + 1)
                            pending_marks = unfired
                            gate_terms = _gate_terms(terms, pending_marks)
                        if fire_index is not None:
                            kept = fire_index + 1
                            state.apply_block(
                                targets[:kept],
                                new_values[:kept],
                                defer_weights=defer_weights,
                            )
                            changes += kept
                            step = base + pos + int(positions[fire_index]) + 1
                            reason = fire_reason
                            break
                    state.apply_block(
                        targets, new_values, defer_weights=defer_weights
                    )
                    changes += pending
                step = base + pos + window
                pos += window
                # Conflict-dominated phases keep the lookahead near the
                # realised window (≈2× so growth is detectable); once
                # changes dry up it doubles out to whole blocks.
                lookahead = min(block_size, max(_MIN_LOOKAHEAD, 2 * window))
                if sampled:
                    step = self._fire_due(
                        sampled, intervals, next_due, last_sampled, step, state
                    )

        for obs in sampled:
            if last_sampled[id(obs)] != step:
                obs.sample(step, state)
        return KernelRun(
            steps=step, stop_reason=reason, blocks=blocks, changes=changes
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

    @staticmethod
    def _replay_segment(
        ctx: KernelContext,
        seg_v: np.ndarray,
        seg_w: np.ndarray,
        changed: np.ndarray,
        targets: np.ndarray,
        new_values: np.ndarray,
        steps_before: int,
    ) -> Tuple[Tuple[int, int], Optional[str]]:
        """Commit one segment's changes one at a time (exact fallback).

        Proposals are already vectorized; this path only walks the
        changed positions, firing change observers and evaluating the
        stop condition after each commit exactly like the loop kernel.
        Returns ``((step, applied_changes), reason)`` where ``reason``
        is ``None`` when the whole segment was applied; ``step`` is only
        meaningful when the stop fired.
        """
        state = ctx.state
        stop_condition = ctx.stop_condition
        change_observers = ctx.change_observers
        positions = np.flatnonzero(changed)
        if positions.size == 0:
            return (0, 0), None
        target_list = targets.tolist()
        value_list = new_values.tolist()
        v_list = seg_v[positions].tolist()
        w_list = seg_w[positions].tolist()
        applied = 0
        for j, offset in enumerate(positions.tolist()):
            state.apply(target_list[j], value_list[j])
            applied += 1
            at_step = steps_before + offset + 1
            for obs in change_observers:
                obs.on_change(at_step, v_list[j], w_list[j], state)
            reason = stop_condition(state)
            if reason is not None:
                return (at_step, applied), reason
        return (0, applied), None
