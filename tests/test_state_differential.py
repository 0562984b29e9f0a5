"""Differential fuzz of :class:`~repro.core.state.OpinionState`.

Hypothesis drives random operation sequences — scalar ``apply``,
conflict-free ``apply_block`` (with and without ``defer_weights``),
``copy`` and ``rebind_graph`` — against a naive model that keeps the
opinions in a plain list and answers every query by scanning it. Reads
happen only at explicit check points, so weight aggregates deferred by
one block stay deferred across later updates and are read back long
after. Every copy taken along the way must still match the model's
snapshot at the end: later updates to the copy never leak back.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.state import OpinionState
from repro.errors import InvalidOpinionsError
from repro.graphs import Graph, path_graph


@st.composite
def connected_graphs(draw, n: int) -> Graph:
    """A connected graph on ``n`` vertices: a random tree plus extra edges."""
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(0, v - 1)), v))
    for _ in range(draw(st.integers(0, n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


class NaiveState:
    """Opinions as a list; every query is a scan."""

    def __init__(self, graph: Graph, opinions: List[int], frozen: Set[int]):
        self.values = list(opinions)
        self.frozen = set(frozen)
        self.lo, self.hi = min(opinions), max(opinions)
        self.bind(graph)

    def bind(self, graph: Graph) -> None:
        self.degrees = [int(d) for d in graph.degrees]
        self.m = graph.m

    def copy(self) -> "NaiveState":
        clone = object.__new__(NaiveState)
        clone.__dict__.update(self.__dict__)
        clone.values = list(self.values)
        return clone

    def in_range(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def apply(self, v: int, value: int) -> int:
        old = self.values[v]
        if value == old or v in self.frozen:
            return old
        if not self.in_range(value):
            raise InvalidOpinionsError("out of range")
        self.values[v] = value
        return old

    def apply_block(self, vertices: List[int], values: List[int]) -> List[int]:
        rows = [(v, x) for v, x in zip(vertices, values) if v not in self.frozen]
        if any(not self.in_range(x) for _, x in rows):
            raise InvalidOpinionsError("out of range")
        old = [self.values[v] for v, _ in rows]
        for v, x in rows:
            self.values[v] = x
        return old

    def count(self, opinion: int) -> int:
        return sum(1 for x in self.values if x == opinion)

    def degree_count(self, opinion: int) -> int:
        return sum(d for x, d in zip(self.values, self.degrees) if x == opinion)

    def support(self) -> List[int]:
        return sorted(set(self.values))

    def counts_dict(self) -> Dict[int, int]:
        return {o: self.count(o) for o in self.support()}

    def degree_sum(self) -> int:
        return sum(x * d for x, d in zip(self.values, self.degrees))

    def min_changes_to_support(self, target: int) -> int:
        sizes = sorted(self.counts_dict().values())
        excess = min(len(sizes) - target, len(sizes) - 1)
        return sum(sizes[:excess]) if excess > 0 else 0

    def frozen_support(self) -> List[int]:
        return sorted({self.values[v] for v in self.frozen})


def assert_matches(state: OpinionState, model: NaiveState) -> None:
    """Every query of ``state`` agrees with the naive scan of ``model``."""
    n = len(model.values)
    assert state.values.tolist() == model.values
    assert [state.value(v) for v in range(n)] == model.values
    for opinion in range(model.lo - 1, model.hi + 2):
        assert state.count(opinion) == model.count(opinion)
        assert state.degree_count(opinion) == model.degree_count(opinion)
        assert state.stationary_measure(opinion) == (
            model.degree_count(opinion) / (2.0 * model.m)
        )
        assert state.holders(opinion).tolist() == [
            v for v in range(n) if model.values[v] == opinion
        ]
    support = model.support()
    assert state.support() == support
    assert state.support_size == len(support)
    assert state.counts_dict() == model.counts_dict()
    assert state.min_opinion == support[0]
    assert state.max_opinion == support[-1]
    assert state.range_width == support[-1] - support[0]
    assert state.is_consensus == (len(support) == 1)
    assert state.is_two_adjacent == (support[-1] - support[0] <= 1)
    assert state.consensus_value() == (support[0] if len(support) == 1 else None)
    total = sum(model.values)
    assert state.total_sum == total
    assert state.degree_weighted_sum == model.degree_sum()
    assert state.mean() == total / n
    assert state.weighted_mean() == model.degree_sum() / (2.0 * model.m)
    assert state.total_weight("edge") == float(total)
    assert state.total_weight("vertex") == n * (model.degree_sum() / (2.0 * model.m))
    for target in range(len(support) + 2):
        assert state.min_changes_to_support(target) == (
            model.min_changes_to_support(target)
        )
    assert state.has_frozen == bool(model.frozen)
    assert [state.is_frozen(v) for v in range(n)] == [
        v in model.frozen for v in range(n)
    ]
    assert state.frozen_vertices().tolist() == sorted(model.frozen)
    assert state.frozen_support() == model.frozen_support()
    if model.frozen:
        assert not state.frozen_mask.flags.writeable
    state.check_consistency()


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 9))
    graph = draw(connected_graphs(n))
    lo = draw(st.integers(-4, 3))
    opinions = draw(
        st.lists(st.integers(lo, lo + draw(st.integers(0, 5))), min_size=n, max_size=n)
    )
    frozen = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    frozen_form = draw(st.sampled_from(["ids", "mask"]))
    # One past each end of the legal range, to drive the range checks.
    value = st.integers(min(opinions) - 1, max(opinions) + 1)
    vertex = st.integers(0, n - 1)
    operation = st.one_of(
        st.tuples(st.just("apply"), vertex, value),
        st.lists(vertex, unique=True, max_size=n).flatmap(
            lambda vs: st.tuples(
                st.just("block"),
                st.just(vs),
                st.lists(value, min_size=len(vs), max_size=len(vs)),
                st.booleans(),
            )
        ),
        st.tuples(st.just("copy")),
        st.tuples(st.just("rebind"), connected_graphs(n)),
        st.tuples(st.just("check")),
    )
    operations = draw(st.lists(operation, max_size=30))
    return graph, opinions, frozen, frozen_form, operations


def _frozen_argument(n: int, frozen: Set[int], form: str):
    if form == "ids":
        return sorted(frozen)
    mask = np.zeros(n, dtype=np.bool_)
    mask[sorted(frozen)] = True
    return mask


@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenarios())
def test_state_matches_naive_model(scenario):
    graph, opinions, frozen, frozen_form, operations = scenario
    state = OpinionState(
        graph, opinions, frozen=_frozen_argument(graph.n, frozen, frozen_form)
    )
    model = NaiveState(graph, opinions, frozen)
    assert_matches(state, model)
    copies = []
    for op in operations:
        kind = op[0]
        if kind == "apply":
            _, v, value = op
            try:
                expected: Optional[int] = model.apply(v, value)
            except InvalidOpinionsError:
                expected = None
            if expected is None:
                with pytest.raises(InvalidOpinionsError):
                    state.apply(v, value)
            else:
                assert state.apply(v, value) == expected
        elif kind == "block":
            _, vertices, values, defer = op
            try:
                expected_old: Optional[List[int]] = model.apply_block(
                    vertices, values
                )
            except InvalidOpinionsError:
                expected_old = None
            vertex_array = np.asarray(vertices, dtype=np.int64)
            value_array = np.asarray(values, dtype=np.int64)
            if expected_old is None:
                with pytest.raises(InvalidOpinionsError):
                    state.apply_block(vertex_array, value_array, defer)
            else:
                old = state.apply_block(vertex_array, value_array, defer)
                assert old.tolist() == expected_old
        elif kind == "copy":
            copies.append((state, model.copy()))
            state, model = state.copy(), model.copy()
        elif kind == "rebind":
            state.rebind_graph(op[1])
            model.bind(op[1])
        else:
            assert_matches(state, model)
    assert_matches(state, model)
    for original, snapshot in copies:
        assert_matches(original, snapshot)


def test_rebind_graph_needs_the_same_vertex_set():
    state = OpinionState(path_graph(4), [0, 1, 1, 2])
    with pytest.raises(InvalidOpinionsError, match="equal vertex set"):
        state.rebind_graph(path_graph(5))
