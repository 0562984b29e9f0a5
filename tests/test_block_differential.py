"""Differential fuzz of the block kernel against the loop kernel.

Hypothesis draws small runs — star, path, random regular and complete
graphs; DIV, pull and push; optional zealots; block sizes 1, 7, 64 and
8192; every stop specification, including an opaque callable; a
first-time tracker, a phase trace, a change log or sampled observers —
and runs each under both kernels. The block kernel solves every drawn
block as one fixed point, so any dependency it misreads shows up as a
different step count, stop reason, final opinion vector or observer
record. An opaque stop or a change log must resolve to the loop before
the run starts, so those runs only check the resolved kernel. A second property
feeds :func:`~repro.core.kernels.block.solve_block` raw pair lists over
a handful of vertices, so repeated pairs, self pairs and long write
chains are common, and checks it against the pair-by-pair reference.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    IncrementalVoting,
    OpinionState,
    PullVoting,
    PushVoting,
    frozen_consensus,
    make_scheduler,
    run_dynamics,
)
from repro.core.observers import (
    ChangeLog,
    FirstTimeTracker,
    SupportTrace,
    TraceBuffer,
    WeightTrace,
)
from repro.core.stopping import (
    first_of,
    range_at_most,
    support_at_most,
    two_adjacent,
)
from repro.graphs import complete_graph, path_graph, random_regular_graph, star_graph
from repro.obs import PhaseTraceObserver
from tests.test_kernels import NO_STOP_TERM, NOT_TIMELINE, assert_solves

DYNAMICS = (IncrementalVoting, PullVoting, PushVoting)
BLOCK_SIZES = (1, 7, 64, 8192)
STOPS = (
    "consensus",
    "two_adjacent",
    "never",
    "range_at_most",
    "support_at_most",
    "first_of",
    "frozen_consensus",
    "opaque",
)
OBSERVERS = ("none", "mark", "phase_trace", "change_log", "sampled")


def _graph(kind: str, n: int, seed: int):
    if kind == "star":
        return star_graph(n)
    if kind == "path":
        return path_graph(n)
    if kind == "complete":
        return complete_graph(n)
    return random_regular_graph(n + (n % 2), 3, rng=seed)


def _stop(name: str, state: OpinionState):
    if name == "range_at_most":
        return range_at_most(1)
    if name == "support_at_most":
        return support_at_most(2)
    if name == "first_of":
        return first_of(support_at_most(3), range_at_most(2))
    if name == "frozen_consensus":
        return frozen_consensus(state)
    if name == "opaque":
        return lambda s: "narrow" if s.max_opinion - s.min_opinion <= 1 else None
    return name


def _observers(name: str):
    if name == "mark":
        return [FirstTimeTracker(two_adjacent)]
    if name == "phase_trace":
        return [PhaseTraceObserver()]
    if name == "change_log":
        return [ChangeLog()]
    if name == "sampled":
        return [SupportTrace(interval=5), WeightTrace("vertex", interval=11)]
    return []


def _record(observer):
    if isinstance(observer, FirstTimeTracker):
        return observer.first_step
    if isinstance(observer, PhaseTraceObserver):
        # Per-phase seconds are wall time, not part of the record.
        phases = [(phase["support"], phase["steps"]) for phase in observer.phases()]
        return observer.initial_support, observer.transitions, phases
    return {
        key: list(value)
        for key, value in vars(observer).items()
        if isinstance(value, (list, TraceBuffer))
    }


@st.composite
def runs(draw):
    kind = draw(st.sampled_from(("star", "path", "regular", "complete")))
    n = draw(st.integers(4, 24))
    seed = draw(st.integers(0, 2**16))
    k = draw(st.integers(2, 6))
    opinions = draw(st.lists(st.integers(0, k - 1), min_size=n + 1, max_size=n + 1))
    frozen = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    return dict(
        graph=(kind, n, seed),
        opinions=opinions,
        frozen=frozen,
        dynamics=draw(st.sampled_from(DYNAMICS)),
        process=draw(st.sampled_from(("vertex", "edge"))),
        block_size=draw(st.sampled_from(BLOCK_SIZES)),
        stop=draw(st.sampled_from(STOPS)),
        observers=draw(st.sampled_from(OBSERVERS)),
        rng=draw(st.integers(0, 2**16)),
    )


def _run(case, kernel):
    graph = _graph(*case["graph"])
    # n + 1 opinions were drawn: enough for the evened-up regular graph.
    opinions = case["opinions"][: graph.n]
    state = OpinionState(graph, opinions, frozen=case["frozen"] or None)
    observers = _observers(case["observers"])
    result = run_dynamics(
        state,
        make_scheduler(graph, case["process"]),
        case["dynamics"](),
        stop=_stop(case["stop"], state),
        rng=case["rng"],
        max_steps=4000,
        block_size=case["block_size"],
        observers=observers,
        kernel=kernel,
    )
    return result, [_record(obs) for obs in observers]


class TestBlockMatchesLoop:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(runs())
    def test_run_is_bit_identical(self, case):
        block, block_records = _run(case, "block")
        if case["stop"] == "opaque":
            assert (block.kernel, block.kernel_reason) == (
                "loop",
                f"kernel='block'; {NO_STOP_TERM}",
            )
            return
        if case["observers"] == "change_log":
            assert (block.kernel, block.kernel_reason) == (
                "loop",
                f"kernel='block'; {NOT_TIMELINE}",
            )
            return
        loop, loop_records = _run(case, "loop")
        assert block.kernel == "block"
        assert (block.steps, block.stop_reason) == (loop.steps, loop.stop_reason)
        np.testing.assert_array_equal(block.state.values, loop.state.values)
        block.state.check_consistency()
        assert block_records == loop_records

    @settings(max_examples=200, deadline=None)
    @given(
        dynamics=st.sampled_from(DYNAMICS),
        values=st.lists(st.integers(0, 4), min_size=5, max_size=5),
        pairs=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=60
        ),
        repeats=st.integers(1, 3),
        frozen=st.lists(st.integers(0, 4), max_size=2, unique=True),
    )
    def test_pair_lists_with_repeats(self, dynamics, values, pairs, repeats, frozen):
        # Repeating the whole list makes every pair recur, so each block
        # is full of repeated pairs and chains of writes to one vertex.
        v_block = [v for v, _ in pairs] * repeats
        w_block = [w for _, w in pairs] * repeats
        assert_solves(dynamics(), values, v_block, w_block, frozen)
