"""Discrete load balancing (Berenbrink, Friedetzky, Kaaser, Kling; IPDPS'19).

The paper's intro contrasts DIV with this classic averaging protocol: a
random edge's endpoints replace their loads ``a, b`` by
``⌊(a+b)/2⌋, ⌈(a+b)/2⌉``. It conserves ``S(t)`` exactly and reaches a
state of ~3 consecutive values around the average within
``O(n log n + n log k)`` steps — but requires a *coordinated* update of
both endpoints, whereas DIV updates one vertex at a time. Unless the
average is an integer, it can never reach a single common value.

Absorption caveat: the process's absorbing states are the *locally
balanced* configurations (every edge's loads differ by at most 1). On a
diameter-``D`` graph a locally balanced state can span up to ``D + 1``
consecutive values, so the safe stopping target on expanders is
``target_width=2`` ("three consecutive values", as in [5]);
``target_width=1`` may be unreachable from some inputs.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.div import DIVResult, run_div
from repro.core.observers import EngineObserver
from repro.core.state import OpinionState
from repro.core.stopping import range_at_most
from repro.graphs.graph import Graph
from repro.rng import RngLike

#: Default step budget: far above the O(n log n + n log k) bound of [5].
DEFAULT_MAX_STEPS_PER_VERTEX = 10_000


def is_locally_balanced(state: OpinionState) -> bool:
    """Whether every edge's loads differ by at most 1 (absorbing states)."""
    values = state.values
    edges = state.graph.edge_array
    if edges.shape[0] == 0:
        return True
    return bool(np.all(np.abs(values[edges[:, 0]] - values[edges[:, 1]]) <= 1))


def run_load_balancing(
    graph: Graph,
    loads: Sequence[int],
    *,
    target_width: int = 2,
    rng: RngLike = None,
    max_steps: Optional[int] = None,
    observers: Sequence[EngineObserver] = (),
    kernel: str = "auto",
) -> DIVResult:
    """Run edge-averaging until the load range is at most ``target_width``.

    ``target_width=2`` matches the "three consecutive values" statement
    of [5] and is always reachable on diameter-2 graphs. A generous
    default step budget guards against absorbing locally balanced states
    whose global range exceeds the target (possible on high-diameter
    graphs); check ``stop_reason`` and :func:`is_locally_balanced` on the
    returned state when running on such graphs. Always uses the edge
    process — the protocol is defined on edges.
    """
    if max_steps is None:
        max_steps = DEFAULT_MAX_STEPS_PER_VERTEX * graph.n
    return run_div(
        graph,
        loads,
        dynamics="load_balancing",
        process="edge",
        stop=range_at_most(target_width),
        rng=rng,
        max_steps=max_steps,
        observers=observers,
        kernel=kernel,
    )
