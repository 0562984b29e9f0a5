"""Two-opinion pull voting — the final stage of DIV (§2 of the paper).

When only two adjacent opinions remain, DIV *is* two-opinion pull
voting, and eq. (3) gives the exact winning probabilities:
``N_i / n`` (edge process) and ``d(A_i) / 2m`` (vertex process).
Experiment E6 validates both formulas on irregular graphs where they
differ substantially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.div import run_div
from repro.core.theory import two_opinion_win_probability
from repro.errors import InvalidOpinionsError
from repro.graphs.graph import Graph
from repro.rng import RngLike


@dataclass
class TwoOpinionResult:
    """Outcome of a two-opinion pull-voting run."""

    winner: int
    steps: int
    one_won: bool
    predicted_p_one: float


def opinions_from_set(graph: Graph, ones: Sequence[int]) -> np.ndarray:
    """Opinion vector that is 1 on ``ones`` and 0 elsewhere."""
    ones_idx = np.asarray(ones, dtype=np.int64)
    opinions = np.zeros(graph.n, dtype=np.int64)
    if ones_idx.size:
        if ones_idx.min() < 0 or ones_idx.max() >= graph.n:
            raise InvalidOpinionsError("holders out of range")
        opinions[ones_idx] = 1
    return opinions


def run_two_opinion_voting(
    graph: Graph,
    ones: Sequence[int],
    *,
    process: str = "vertex",
    rng: RngLike = None,
    max_steps: Optional[int] = None,
    kernel: str = "auto",
) -> TwoOpinionResult:
    """Run {0,1} pull voting with opinion 1 planted on ``ones``.

    The returned ``predicted_p_one`` is eq. (3)'s winning probability for
    opinion 1 under the chosen process.
    """
    ones_idx = np.asarray(ones, dtype=np.int64)
    if ones_idx.size == 0 or ones_idx.size == graph.n:
        raise InvalidOpinionsError("both opinions must be initially present")
    opinions = opinions_from_set(graph, ones_idx)
    outcome = run_div(
        graph,
        opinions,
        dynamics="pull",
        process=process,
        stop="consensus",
        rng=rng,
        max_steps=max_steps,
        kernel=kernel,
    )
    if outcome.winner is None:
        raise InvalidOpinionsError(
            f"no consensus within {max_steps} steps; raise the budget"
        )
    return TwoOpinionResult(
        winner=outcome.winner,
        steps=outcome.steps,
        one_won=outcome.winner == 1,
        predicted_p_one=two_opinion_win_probability(graph, ones_idx, process),
    )
