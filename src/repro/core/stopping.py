"""Composable stopping conditions for the asynchronous engines.

A stopping condition is a callable taking the :class:`OpinionState` and
returning a reason string when the run should stop, or ``None`` to
continue. The engine evaluates conditions only after an actual opinion
change (the tracked predicates cannot become true otherwise) and at
step 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.state import OpinionState
from repro.errors import StoppingConditionError

StopCondition = Callable[[OpinionState], Optional[str]]

#: What engine entry points accept as a stopping condition: a registered
#: name (``"consensus"``, ``"two_adjacent"``, ``"never"``) or a callable.
StopLike = Union[str, StopCondition]

#: Reason reported when the engine exhausts its step budget.
MAX_STEPS_REASON = "max_steps"


@dataclass(frozen=True)
class StopTerm:
    """One vectorizable clause of a stopping condition.

    The block execution kernel (:mod:`repro.core.kernels.block`) commits
    whole scheduler blocks in one numpy pass and then has to
    report the *exact* step the sequential loop would have stopped at.
    Every condition in this module is a predicate over the two aggregate
    trajectories the kernel can reconstruct from cumulative support
    deltas — the support size ``|support(t)|`` and the range width
    ``ℓ(t) - s(t)`` — so each publishes its clauses as ``StopTerm``
    objects via a ``support_range_terms`` attribute.

    Attributes
    ----------
    reason:
        The reason string reported when this clause fires.
    fires:
        Vectorized predicate ``(support_sizes, range_widths) -> bool
        array``; both inputs are aligned per-opinion-change timelines.
    support_at_most / width_at_most:
        The clause in *canonical conjunction form*: it fires exactly
        when ``support <= support_at_most AND width <= width_at_most``
        (``None`` meaning unbounded). ``support_at_most`` is thus also
        the largest support size at which the clause can fire; the
        block kernel skips the timeline reconstruction while emptying
        enough opinion classes to reach it takes more changes than a
        block has pending. Every built-in condition is such
        a conjunction — note ``two_adjacent`` (``support == 1`` or
        ``support == 2 and width == 1``) is equivalent to
        ``support <= 2 and width <= 1`` because width 0 forces support
        1. The compiled kernel checks these two integer thresholds
        inside its machine-code loop; a term publishing neither field
        leaves ``fires`` as the only contract, and a compiled request
        resolves to the block kernel instead.
    """

    reason: str
    fires: Callable
    support_at_most: Optional[int] = None
    width_at_most: Optional[int] = None


def support_range_terms(condition: StopCondition) -> Optional[Tuple[StopTerm, ...]]:
    """The :class:`StopTerm` clauses of ``condition``, or ``None``.

    ``None`` means the condition is an opaque callable the block kernel
    cannot reconstruct mid-segment, so
    :func:`~repro.core.kernels.resolve_kernel` runs it on the reference
    loop, which evaluates it on the live state after every change. An
    empty tuple means the condition never fires (:func:`never`).
    """
    return getattr(condition, "support_range_terms", None)


def first_fire(
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


def consensus(state: OpinionState) -> Optional[str]:
    """Stop once a single opinion remains (the absorbing states)."""
    return "consensus" if state.is_consensus else None


consensus.support_range_terms = (
    StopTerm(
        reason="consensus",
        fires=lambda support, widths: support == 1,
        support_at_most=1,
    ),
)


def two_adjacent(state: OpinionState) -> Optional[str]:
    """Stop once at most two consecutive opinions remain (Theorem 1's event)."""
    return "two_adjacent" if state.is_two_adjacent else None


two_adjacent.support_range_terms = (
    StopTerm(
        reason="two_adjacent",
        fires=lambda support, widths: (support == 1)
        | ((support == 2) & (widths == 1)),
        support_at_most=2,
        width_at_most=1,
    ),
)


def range_at_most(width: int) -> StopCondition:
    """Stop once ``max - min <= width`` (e.g. 2 for 'three consecutive values')."""
    if width < 0:
        raise StoppingConditionError(f"width must be >= 0, got {width}")

    def condition(state: OpinionState) -> Optional[str]:
        if state.range_width <= width:
            return f"range<={width}"
        return None

    condition.support_range_terms = (
        StopTerm(
            reason=f"range<={width}",
            fires=lambda support, widths: widths <= width,
            width_at_most=width,
        ),
    )
    return condition


def support_at_most(size: int) -> StopCondition:
    """Stop once at most ``size`` distinct opinions remain."""
    if size < 1:
        raise StoppingConditionError(f"size must be >= 1, got {size}")

    def condition(state: OpinionState) -> Optional[str]:
        if state.support_size <= size:
            return f"support<={size}"
        return None

    condition.support_range_terms = (
        StopTerm(
            reason=f"support<={size}",
            fires=lambda support, widths: support <= size,
            support_at_most=size,
        ),
    )
    return condition


def frozen_consensus(state: OpinionState) -> StopCondition:
    """Stop at the tightest support a zealot scenario can reach.

    With zealots pinned at ``f`` distinct opinions the support can never
    drop below ``max(1, f)`` — plain ``consensus`` would spin to the
    step budget.  This factory reads the frozen opinions off ``state``
    (they are a run invariant: frozen vertices never change) and returns
    a ``support <= max(1, f)`` condition with reason
    ``"frozen_consensus"``.  It publishes the canonical conjunction
    form, so zealot runs stay on the block/compiled fast paths.  On a
    zealot-free state it degenerates to exactly :func:`consensus`'s
    threshold.
    """
    floor = max(1, len(state.frozen_support()))

    def condition(state: OpinionState) -> Optional[str]:
        if state.support_size <= floor:
            return "frozen_consensus"
        return None

    condition.support_range_terms = (
        StopTerm(
            reason="frozen_consensus",
            fires=lambda support, widths: support <= floor,
            support_at_most=floor,
        ),
    )
    return condition


def never(state: OpinionState) -> Optional[str]:
    """Never stop early — run to the step budget (martingale traces)."""
    return None


never.support_range_terms = ()


def first_of(*conditions: StopCondition) -> StopCondition:
    """Stop at the first condition that fires, reporting its reason."""
    if not conditions:
        raise StoppingConditionError("first_of needs at least one condition")

    def condition(state: OpinionState) -> Optional[str]:
        for candidate in conditions:
            reason = candidate(state)
            if reason is not None:
                return reason
        return None

    # The composite is reconstructible exactly when every member is; the
    # flat term tuple preserves member order, which is what makes the
    # block kernel report the same reason as the sequential evaluation
    # when several members fire at the same step.
    member_terms = [support_range_terms(c) for c in conditions]
    if all(terms is not None for terms in member_terms):
        condition.support_range_terms = tuple(
            term for terms in member_terms for term in terms
        )
    return condition


_NAMED: dict = {
    "consensus": consensus,
    "two_adjacent": two_adjacent,
    "never": never,
}


def make_stop_condition(spec) -> StopCondition:
    """Resolve a stop condition from a name or pass a callable through."""
    if callable(spec):
        return spec
    try:
        return _NAMED[spec]
    except (KeyError, TypeError):
        known = ", ".join(sorted(_NAMED))
        raise StoppingConditionError(
            f"unknown stop condition {spec!r}; known names: {known}"
        ) from None
