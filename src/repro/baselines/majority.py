"""Asynchronous local majority polling (cf. [1, 21] in the paper).

The selected vertex polls its whole neighbourhood and adopts the
majority opinion. Stronger (and costlier) than the sampling dynamics:
one update reads ``d(v)`` opinions. Included as the deterministic-ish
endpoint of the "how much does a vertex observe per step" spectrum:
DIV (1 sample, ±1 move) — best-of-k (k samples) — local majority (all).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.div import DIVResult, run_div
from repro.core.observers import EngineObserver
from repro.graphs.graph import Graph
from repro.rng import RngLike

#: Default step budget: local majority can freeze in non-consensus
#: stable states (e.g. two tight communities), so runs must be bounded.
DEFAULT_MAX_STEPS_PER_VERTEX = 5_000


def run_local_majority(
    graph: Graph,
    opinions: Sequence[int],
    *,
    process: str = "vertex",
    rng: RngLike = None,
    max_steps: Optional[int] = None,
    observers: Sequence[EngineObserver] = (),
    kernel: str = "auto",
) -> DIVResult:
    """Run local majority polling until consensus or the step budget.

    Unlike the sampling dynamics, local majority has stable
    non-consensus fixed points (each vertex already agrees with its
    neighbourhood majority); check ``stop_reason`` on the result.
    """
    if max_steps is None:
        max_steps = DEFAULT_MAX_STEPS_PER_VERTEX * graph.n
    return run_div(
        graph,
        opinions,
        dynamics="local_majority",
        process=process,
        stop="consensus",
        rng=rng,
        max_steps=max_steps,
        observers=observers,
        kernel=kernel,
    )
