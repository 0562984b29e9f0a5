"""High-level entry points for running discrete incremental voting.

:func:`run_div` is the one-call public API: give it a graph, an initial
opinion vector and a process name and it returns a :class:`DIVResult`
with the winner, step counts and the two-adjacent stage time that
Theorems 1 and 2 are about. Its ``dynamics`` parameter runs the paper's
comparison rules (pull, median, best-of-k, ...) through the same
engine, so their step counts are directly comparable with DIV's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.core.dynamics import Dynamics, make_dynamics
from repro.core.engine import run_dynamics
from repro.core.observers import EngineObserver, FirstTimeTracker
from repro.core.results import BaseRunResult
from repro.core.schedulers import make_scheduler
from repro.core.state import OpinionState
from repro.core.stopping import (
    StopLike,
    frozen_consensus,
    make_stop_condition,
    two_adjacent,
)
from repro.core.substrate import SubstrateLike, as_substrate
from repro.graphs.graph import Graph
from repro.rng import RngLike


@dataclass
class DIVResult(BaseRunResult):
    """Outcome of one run of DIV or of a comparison dynamics.

    Attributes
    ----------
    dynamics:
        Name of the update rule that ran (``"div"``, ``"pull"``, ...).
    stop_reason:
        Why the run ended (``"consensus"``, ``"two_adjacent"``,
        ``"max_steps"``, ...).
    winner:
        The consensus opinion, or ``None`` when consensus was not reached
        within the budget (some rules stop short of consensus, e.g. load
        balancing at a floor/ceil mixture).
    steps:
        Asynchronous steps executed.
    two_adjacent_step:
        First step at which at most two consecutive opinions remained
        (the ``τ`` of Theorem 1), or ``None`` if never reached.
    initial_mean:
        ``c = S(0)/n`` — the edge-process average of the initial opinions.
    initial_weighted_mean:
        ``c = Z(0)/n`` — the degree-weighted average (what the vertex
        process converges to; equal to ``initial_mean`` on regular
        graphs).
    final_support:
        Opinions still present at the end of the run.
    state:
        The final :class:`OpinionState`.
    kernel, kernel_reason:
        The execution backend that ran and why, copied from the
        engine's :class:`~repro.core.engine.RunResult`.
    """

    dynamics: str
    winner: Optional[int]
    steps: int
    two_adjacent_step: Optional[int]
    initial_mean: float
    initial_weighted_mean: float
    final_support: List[int]
    state: OpinionState
    kernel: str = "loop"
    kernel_reason: str = ""


def run_div(
    graph: SubstrateLike,
    opinions: Sequence[int],
    *,
    dynamics: Union[str, Dynamics] = "div",
    process: str = "vertex",
    stop: StopLike = "consensus",
    rng: RngLike = None,
    max_steps: Optional[int] = None,
    observers: Sequence[EngineObserver] = (),
    kernel: str = "auto",
    frozen: Optional[Sequence[int]] = None,
) -> DIVResult:
    """Run discrete incremental voting (or another rule) and summarize.

    Parameters
    ----------
    graph:
        The (connected) interaction topology — a plain
        :class:`~repro.graphs.graph.Graph` or a
        :class:`~repro.core.substrate.Substrate` carrying a churn plan
        (the scenario contract in ``docs/scenarios.md``).
    opinions:
        Initial integer opinion per vertex.
    dynamics:
        The update rule: a name for
        :func:`~repro.core.dynamics.make_dynamics` (``"div"``, ``"pull"``,
        ``"push"``, ``"median"``, ``"best_of_two"``, ...) or a
        :class:`~repro.core.dynamics.Dynamics` instance.
    process:
        ``"vertex"`` (uniform vertex, uniform neighbour) or ``"edge"``
        (uniform edge, uniform endpoint).
    stop:
        Stopping condition name or callable; default runs to consensus.
    rng:
        Seed or generator.
    max_steps:
        Hard step budget (required when ``stop`` never fires).
    observers:
        Extra observers, e.g. :class:`~repro.core.observers.WeightTrace`.
    kernel:
        Execution backend (``"auto"``, ``"loop"``, ``"block"`` or
        ``"compiled"``); see :func:`repro.core.engine.run_dynamics`. ``run_div`` tracks the
        two-adjacent hitting time with a :class:`FirstTimeTracker`, a
        timeline observer the block kernel feeds from its committed
        blocks, so plain runs stay on its vectorized path (a change
        observer in ``observers`` that is not a timeline observer
        resolves the run to the loop).
    frozen:
        Optional zealot specification — a boolean mask of length ``n``
        or a sequence of vertex ids whose opinions never change (see
        :class:`OpinionState`). With zealots at several distinct
        opinions, pass ``stop="frozen_consensus"`` — plain consensus
        may be unreachable, while
        :func:`repro.core.stopping.frozen_consensus` stops at the
        tightest support the zealots permit.
    """
    substrate = as_substrate(graph)
    state = OpinionState(substrate.graph, opinions, frozen=frozen)
    if stop == "frozen_consensus":
        # The factory reads the frozen opinions off the state this
        # function just built, so resolve the name here, not in the
        # generic registry.
        stop = frozen_consensus(state)
    initial_mean = state.mean()
    initial_weighted_mean = state.weighted_mean()
    rule = make_dynamics(dynamics)
    tracker = FirstTimeTracker(two_adjacent, label="two_adjacent")
    result = run_dynamics(
        state,
        make_scheduler(substrate, process),
        rule,
        stop=make_stop_condition(stop),
        rng=rng,
        max_steps=max_steps,
        observers=list(observers) + [tracker],
        kernel=kernel,
    )
    return DIVResult(
        dynamics=rule.name,
        winner=state.consensus_value(),
        steps=result.steps,
        stop_reason=result.stop_reason,
        two_adjacent_step=tracker.first_step,
        initial_mean=initial_mean,
        initial_weighted_mean=initial_weighted_mean,
        final_support=state.support(),
        state=state,
        kernel=result.kernel,
        kernel_reason=result.kernel_reason,
    )


def expected_consensus_average(graph: Graph, opinions: Sequence[int], process: str) -> float:
    """The average ``c`` that Theorem 2 predicts the process rounds.

    Simple average for the edge process, degree-weighted average for the
    vertex process.
    """
    state = OpinionState(graph, opinions)
    if process == "edge":
        return state.mean()
    return state.weighted_mean()


def counts_to_opinions(counts: Dict[int, int]) -> List[int]:
    """Expand an ``opinion -> multiplicity`` histogram into a vector.

    Vertices are filled in opinion order; combine with a shuffle or a
    deliberate placement for adversarial layouts.
    """
    opinions: List[int] = []
    for opinion in sorted(counts):
        opinions.extend([opinion] * counts[opinion])
    return opinions
