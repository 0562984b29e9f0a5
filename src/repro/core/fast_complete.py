"""Count-based DIV engine for the complete graph ``K_n``.

On ``K_n`` the holders of each opinion are exchangeable, so DIV is a
Markov chain on the opinion counts ``(N_1, ..., N_k)`` alone. Simulating
that chain costs one bisection over the opinion range per step instead
of O(n) memory traffic, and lets the scaling experiment E3 reach vertex
counts far beyond the generic engine. On ``K_n`` the vertex and edge
processes coincide (regular graph), so the engine serves both.

The chain: pick the updating vertex's opinion ``i`` with probability
``N_i / n``, then the observed vertex's opinion ``j`` with probability
``N_j / (n-1)`` (``(N_i - 1)/(n-1)`` for ``j = i``), and move one holder
of ``i`` one unit toward ``j``.

How a step is computed:

- **Draws.** Each block of ``_BLOCK`` steps makes the same two
  ``generator.random(block)`` calls as the float form of the chain:
  ``u1`` picks the updater, ``u2`` the observed vertex. Inverse-CDF
  sampling takes the first opinion whose prefix count ``C`` exceeds
  ``u1 * n``. ``C`` is an integer, so ``u1 * n < C`` iff
  ``floor(u1 * n) < C``, and the engine compares the integers
  ``a = floor(u1 * n)`` and ``b = floor(u2 * (n - 1))`` instead. numpy
  forms the same IEEE products as Python, so every seed keeps its
  outcome; ``tests/complete_reference.py`` keeps the float form and the
  tests hold the engine to it bit for bit. Since ``u < 1``,
  ``a <= n - 1`` and ``b <= n - 2``.
- **General phase.** The state is the prefix-sum list ``cum`` over the
  slots of the opinion range (``cum[0] = 0``). The updater's slot is
  ``i = bisect_right(cum, a)``. The observed vertex is one of the other
  ``n - 1``, so its slot is below ``i`` iff ``b < cum[i - 1]`` and above
  iff ``b >= cum[i] - 1``. Moving one holder from ``i`` to ``i ± 1``
  changes one entry: ``cum[i] -= 1`` for up, ``cum[i - 1] += 1`` for
  down. A step costs one bisection and O(1) updates.
- **Endgame.** Once only two adjacent opinions remain, which is where
  most of a consensus run is spent, the chain is a lazy ±1 walk on the
  lower opinion's count ``x``: it falls iff ``a < x <= b + 1`` and rises
  iff ``b < x <= a``. A tight loop runs that walk until ``x`` hits 0 or
  ``n``, the block ends or the next ``S(t)`` sample step comes.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.results import BaseRunResult
from repro.core.stopping import MAX_STEPS_REASON
from repro.errors import ProcessError
from repro.obs.profile import active_profiler
from repro.obs.log import PhaseTraceObserver, active_log
from repro.rng import RngLike, make_rng

#: Steps per RNG block; each block draws this many uniforms twice.
_BLOCK = 16384


@dataclass
class CompleteRunResult(BaseRunResult):
    """Outcome of a count-based run on ``K_n``.

    ``weight_steps`` / ``weights`` hold the sampled ``S(t)`` trace when a
    ``weight_interval`` was requested.
    """

    n: int
    steps: int
    counts: Dict[int, int]
    two_adjacent_step: Optional[int]
    weight_steps: List[int] = field(default_factory=list)
    weights: List[int] = field(default_factory=list)

    @property
    def winner(self) -> Optional[int]:
        """The consensus opinion, or ``None`` if consensus was not reached."""
        if len(self.counts) != 1:
            return None
        return next(iter(self.counts))

    @property
    def support(self) -> List[int]:
        """Sorted opinions still present at the end of the run."""
        return sorted(self.counts)


def run_div_complete(
    n: int,
    initial_counts: Dict[int, int],
    *,
    stop: str = "consensus",
    rng: RngLike = None,
    max_steps: Optional[int] = None,
    weight_interval: Optional[int] = None,
) -> CompleteRunResult:
    """Run DIV on ``K_n`` from the given opinion histogram.

    Parameters
    ----------
    n:
        Number of vertices (must equal ``sum(initial_counts.values())``).
    initial_counts:
        Mapping ``opinion -> number of initial holders``.
    stop:
        ``"consensus"`` or ``"two_adjacent"``.
    max_steps:
        Optional hard budget; the run reports ``"max_steps"`` on expiry.
    weight_interval:
        When set, ``S(t)`` is recorded every that many steps.
    """
    if stop not in ("consensus", "two_adjacent"):
        raise ProcessError(f"stop must be 'consensus' or 'two_adjacent', got {stop!r}")
    if n < 2:
        raise ProcessError(f"K_n needs n >= 2, got {n}")
    if any(c < 0 for c in initial_counts.values()):
        raise ProcessError("negative opinion count")
    if max_steps is not None and max_steps < 0:
        raise ProcessError(f"max_steps must be >= 0, got {max_steps}")
    if weight_interval is not None and weight_interval <= 0:
        raise ProcessError(
            f"non-positive sample interval {weight_interval}; "
            "weight_interval must be >= 1"
        )
    if sum(initial_counts.values()) != n:
        raise ProcessError(
            f"counts sum to {sum(initial_counts.values())}, expected n={n}"
        )

    present = sorted(o for o, c in initial_counts.items() if c > 0)
    # Slot p in 1..width holds opinion offset + p, and cum[p] is the
    # number of holders of slots 1..p. cum[0] = 0 is a sentinel, so
    # cum[i - 1] is defined for every occupied slot i.
    offset = present[0] - 1
    width = present[-1] - offset
    cum = [0] * (width + 1)
    for opinion, count in initial_counts.items():
        if count > 0:
            cum[opinion - offset] = count
    for p in range(1, width + 1):
        cum[p] += cum[p - 1]
    lo, hi = 1, width
    # S(t) = sum_p (offset + p) * N_p = top - sum(cum).
    top = (offset + width + 1) * n

    generator = make_rng(rng)
    step = 0
    two_adjacent_step: Optional[int] = 0 if hi - lo <= 1 else None
    weight_steps: List[int] = []
    weights: List[int] = []
    next_sample = 0  # no sampling; steps start at 1
    if weight_interval is not None:
        weight_steps.append(0)
        weights.append(top - sum(cum))
        next_sample = weight_interval

    log = active_log()
    profiler = active_profiler()
    # Phase tracking (the paper's |support| decomposition) follows the
    # count updates; the generic engine feeds the same observer through
    # its hooks.
    support = len(present)
    phases: Optional[PhaseTraceObserver] = None
    if log is not None:
        phases = PhaseTraceObserver()
        phases.begin(0, support)

    with ExitStack() as stack:
        span = (
            stack.enter_context(log.span("engine.run_complete"))
            if log is not None
            else None
        )
        if profiler is not None:
            stack.enter_context(profiler.section("engine.run_complete"))

        reason: Optional[str] = None
        if hi == lo:
            reason = "consensus"
        elif hi - lo == 1 and stop == "two_adjacent":
            reason = "two_adjacent"
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
            # Integer thresholds: u*n < c  <=>  floor(u*n) < c for integer c.
            draws_i = (generator.random(block) * n).astype(np.int64).tolist()
            draws_j = (generator.random(block) * nm1).astype(np.int64).tolist()
            blocks += 1
            # One segment per pass: it ends at the block's end, at the
            # next S(t) sample step, or where the run changes phase.
            k = 0
            while k < block and reason is None:
                start = k
                end = block
                if next_sample:
                    end = min(block, start + next_sample - step)
                if hi - lo > 1:
                    # General phase. The updater's slot i is the first with
                    # a < cum[i]. The observed slot j is the first with
                    # b < cum[j] - [j >= i] (the updater observes one of
                    # the other n - 1), so j < i iff b < cum[i - 1] and
                    # j > i iff b >= cum[i] - 1. A move changes one entry.
                    for k in range(start, end):
                        step += 1
                        i = bisect_right(cum, draws_i[k])
                        v = draws_j[k]
                        if v >= cum[i] - 1:
                            cum[i] -= 1
                            dest = i + 1
                        elif v < cum[i - 1]:
                            cum[i - 1] += 1
                            dest = i - 1
                        else:
                            continue
                        changes += 1
                        emptied = cum[i] == cum[i - 1]
                        if phases is not None:
                            new_support = (
                                support
                                + (1 if cum[dest] - cum[dest - 1] == 1 else 0)
                                - (1 if emptied else 0)
                            )
                            if new_support != support:
                                phases.advance(step, new_support)
                                support = new_support
                        if emptied:
                            if i == lo:
                                lo = dest
                            elif i == hi:
                                hi = dest
                            if hi - lo == 1:
                                two_adjacent_step = step
                                if stop == "two_adjacent":
                                    reason = "two_adjacent"
                                break
                else:
                    # Endgame: opinions lo and lo + 1 only, x = N_lo. The
                    # updater holds lo iff a < x; it then moves up iff it
                    # sees a hi-holder, b >= x - 1. A hi-holder moves down
                    # iff it sees a lo-holder, b < x. So x does a lazy +-1
                    # walk until it hits 0 or n.
                    x = cum[lo]
                    for k in range(start, end):
                        if draws_i[k] < x:
                            if draws_j[k] >= x - 1:
                                x -= 1
                                changes += 1
                                if x == 0:
                                    break
                        elif draws_j[k] < x:
                            x += 1
                            changes += 1
                            if x == n:
                                break
                    step += k + 1 - start
                    cum[lo] = x
                    if x == 0 or x == n:
                        lo = hi = hi if x == 0 else lo
                        reason = "consensus"
                        if phases is not None:
                            phases.advance(step, 1)
                k += 1  # both loops leave k on the last draw they used
                if step == next_sample:
                    weight_steps.append(step)
                    weights.append(top - sum(cum))
                    next_sample += weight_interval

        # Always close the S(t) trace at the stopping step, matching the
        # generic engine's final-sample guarantee (the stop step is usually
        # not divisible by weight_interval).
        if weight_interval is not None and weight_steps[-1] != step:
            weight_steps.append(step)
            weights.append(top - sum(cum))

        if span is not None and phases is not None:
            phases.end(step)
            span.update(
                engine="complete",
                steps=step,
                stop_reason=reason,
                opinion_changes=changes,
                rng_blocks=blocks,
                n=n,
                **phases.attrs(),
            )

    final_counts = {
        p + offset: cum[p] - cum[p - 1]
        for p in range(1, width + 1)
        if cum[p] > cum[p - 1]
    }
    return CompleteRunResult(
        n=n,
        steps=step,
        stop_reason=reason,
        counts=final_counts,
        two_adjacent_step=two_adjacent_step,
        weight_steps=weight_steps,
        weights=weights,
    )
