"""Unit tests for the substrate contract: churn plans, epochs, zealots."""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.core import (
    ChurnPlan,
    OpinionState,
    Substrate,
    as_substrate,
    rewire_edges,
    run_div,
)
from repro.core.stopping import frozen_consensus
from repro.core.substrate import _check_rows
from repro.errors import InvalidOpinionsError, ProcessError
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    lollipop_graph,
    random_regular_graph,
    star_graph,
)
from repro.rng import make_rng


class TestChurnPlan:
    def test_validation(self):
        with pytest.raises(ProcessError, match="period"):
            ChurnPlan(period=0, swaps=1, seed=0)
        with pytest.raises(ProcessError, match="swaps"):
            ChurnPlan(period=5, swaps=0, seed=0)
        with pytest.raises(ProcessError, match="events"):
            ChurnPlan(period=5, swaps=1, seed=0, events=-1)
        # Non-integral counts fail at construction, not deep in a draw.
        with pytest.raises(ProcessError, match="period must be an integer"):
            ChurnPlan(period=2.5, swaps=1, seed=0)
        with pytest.raises(ProcessError, match="swaps must be an integer"):
            ChurnPlan(period=5, swaps=2.5, seed=0)
        with pytest.raises(ProcessError, match="events must be an integer"):
            ChurnPlan(period=5, swaps=1, seed=0, events=2.5)
        with pytest.raises(ProcessError, match="period must be an integer"):
            ChurnPlan(period=5.0, swaps=1, seed=0)
        with pytest.raises(ProcessError, match="swaps must be an integer"):
            ChurnPlan(period=5, swaps=True, seed=0)
        with pytest.raises(ProcessError, match="events must be an integer"):
            ChurnPlan(period=5, swaps=1, seed=0, events=False)
        plan = ChurnPlan(period=np.int64(5), swaps=np.int32(2), seed=0, events=np.int64(3))
        assert plan == ChurnPlan(period=5, swaps=2, seed=0, events=3)

    def test_plans_are_hashable_value_objects(self):
        assert ChurnPlan(5, 2, seed=1) == ChurnPlan(5, 2, seed=1)
        assert hash(ChurnPlan(5, 2, seed=1)) == hash(ChurnPlan(5, 2, seed=1))


class TestRewireEdges:
    def test_preserves_degrees_edge_count_and_simplicity(self):
        rng = make_rng(0)
        graph = random_regular_graph(30, 4, rng=rng)
        rewired = rewire_edges(graph, make_rng(7), swaps=50)
        assert rewired is not graph
        assert rewired.n == graph.n
        assert rewired.m == graph.m
        assert np.array_equal(rewired.degrees, graph.degrees)
        undirected = {tuple(sorted(e)) for e in rewired.edge_array.tolist()}
        assert len(undirected) == rewired.m  # simple: no duplicate edges
        assert all(a != b for a, b in undirected)  # no self-loops

    def test_deterministic_given_generator_state(self):
        graph = random_regular_graph(30, 4, rng=make_rng(0))
        a = rewire_edges(graph, make_rng(3), swaps=20)
        b = rewire_edges(graph, make_rng(3), swaps=20)
        assert np.array_equal(a.edge_array, b.edge_array)

    def test_too_small_graph_is_returned_unchanged(self):
        graph = Graph(2, [(0, 1)])
        assert rewire_edges(graph, make_rng(0), swaps=10) is graph

    def test_input_graph_never_mutated(self):
        graph = random_regular_graph(20, 4, rng=make_rng(1))
        before = graph.edge_array.copy()
        rewire_edges(graph, make_rng(2), swaps=30)
        assert np.array_equal(graph.edge_array, before)


def _rebuild_rewire(graph: Graph, rng: np.random.Generator, swaps: int) -> Graph:
    """Reference churn event: the full-rebuild algorithm ``rewire_edges`` replaced.

    Applies the swaps to a copy of the edge list against a set of every
    edge, then builds a whole new :class:`Graph`.  Kept verbatim as the
    oracle for the in-place patching version.
    """
    m = graph.m
    if m < 2:
        return graph
    edges = graph.edge_array.copy()
    present = {(int(u), int(v)) for u, v in edges}
    changed = False
    for _ in range(swaps):
        i, j = (int(x) for x in rng.integers(0, m, size=2))
        flip = int(rng.integers(0, 2))
        if i == j:
            continue
        a, b = int(edges[i, 0]), int(edges[i, 1])
        c, d = int(edges[j, 0]), int(edges[j, 1])
        if flip:
            c, d = d, c
        if a == d or c == b:
            continue
        e1 = (min(a, d), max(a, d))
        e2 = (min(c, b), max(c, b))
        if e1 == e2 or e1 in present or e2 in present:
            continue
        present.discard((min(a, b), max(a, b)))
        present.discard((min(c, d), max(c, d)))
        present.add(e1)
        present.add(e2)
        edges[i] = e1
        edges[j] = e2
        changed = True
    if not changed:
        return graph
    return Graph(graph.n, edges, name=graph.name)


def _dense_graph() -> Graph:
    """K_9 minus a few edges: most swap attempts hit a present edge."""
    missing = {(0, 1), (2, 5), (3, 8), (4, 6)}
    edges = [e for e in complete_graph(9).edges() if e not in missing]
    return Graph(9, edges, name="dense9")


class TestRewireMatchesRebuild:
    """The patched event equals the full-rebuild reference, event by event."""

    GRAPHS = {
        "regular": lambda: random_regular_graph(40, 4, rng=make_rng(2)),
        "lollipop": lambda: lollipop_graph(6, 5),
        "star": lambda: star_graph(9),
        "cycle": lambda: cycle_graph(12),
        "dense": _dense_graph,
        "sparse-random": lambda: gnp_random_graph(30, 0.15, rng=make_rng(4)),
    }

    @pytest.mark.parametrize("family", sorted(GRAPHS))
    @pytest.mark.parametrize("swaps", [1, 3, 17, 150])
    def test_events_match_reference(self, family, swaps):
        start = self.GRAPHS[family]()
        for seed in range(3):
            patched, rebuilt = start, start
            rng_patched, rng_rebuilt = make_rng(seed), make_rng(seed)
            for _ in range(6):
                after_patched = rewire_edges(patched, rng_patched, swaps)
                after_rebuilt = _rebuild_rewire(rebuilt, rng_rebuilt, swaps)
                assert (after_patched is patched) == (after_rebuilt is rebuilt)
                for name in ("indptr", "indices", "edge_array", "degrees"):
                    assert np.array_equal(
                        getattr(after_patched, name), getattr(after_rebuilt, name)
                    ), name
                self._assert_canonical(after_patched)
                patched, rebuilt = after_patched, after_rebuilt
            # Same generator consumption: the next draws coincide.
            assert rng_patched.integers(0, 2**62) == rng_rebuilt.integers(0, 2**62)

    def test_indptr_and_degrees_are_shared(self):
        graph = random_regular_graph(40, 4, rng=make_rng(2))
        rewired = rewire_edges(graph, make_rng(0), swaps=20)
        assert rewired is not graph
        assert rewired.indptr is graph.indptr
        assert rewired.degrees is graph.degrees
        assert not rewired.indices.flags.writeable
        assert not rewired.edge_array.flags.writeable

    @staticmethod
    def _assert_canonical(graph: Graph) -> None:
        rebuilt = Graph(graph.n, graph.edge_array)
        assert rebuilt == graph
        assert np.array_equal(rebuilt.indices, graph.indices)
        for v in range(graph.n):
            row = graph.neighbors(v)
            assert np.all(row[1:] > row[:-1])


class TestOneCallDraws:
    """The numpy behaviour ``rewire_edges`` relies on, with no graph involved.

    Bounded integers are drawn element by element from the bit
    generator's shared 32-bit buffer, so one call with per-element bounds
    ``[m, m, 2] * swaps`` yields the per-attempt sequence
    ``integers(0, m, size=2)``, ``integers(0, 2)`` and leaves the
    generator in the same state.  Edge counts on both sides of 2**32
    cover the 32-bit and 64-bit sampling paths.
    """

    @pytest.mark.parametrize("m", [7, 50_000, 2**31 + 11, 2**32 - 1, 2**32, 2**32 + 5, 2**33 + 5])
    def test_one_call_equals_per_attempt_calls(self, m):
        swaps = 32
        for seed in range(5):
            one, per_attempt = make_rng(seed), make_rng(seed)
            drawn = one.integers(0, [m, m, 2] * swaps).tolist()
            expected = []
            for _ in range(swaps):
                expected += per_attempt.integers(0, m, size=2).tolist()
                expected.append(int(per_attempt.integers(0, 2)))
            assert drawn == expected
            assert one.integers(0, 2**62) == per_attempt.integers(0, 2**62)


class TestLazyEdgeList:
    """A churned graph builds ``edge_array`` only when something reads it."""

    @staticmethod
    def _churned() -> Graph:
        graph = random_regular_graph(60, 4, rng=make_rng(3))
        rng = make_rng(8)
        for _ in range(4):
            graph = rewire_edges(graph, rng, swaps=25)
        return graph

    def test_edge_list_is_built_on_first_read(self):
        graph = self._churned()
        assert graph._edge_array is None
        rebuilt = Graph(graph.n, graph.edge_array)
        assert graph._edge_array is not None
        assert not graph.edge_array.flags.writeable
        assert np.array_equal(graph.upper_offsets, rebuilt.upper_offsets)

    def test_survives_pickle_round_trip(self):
        graph = self._churned()
        loaded = pickle.loads(pickle.dumps(graph))
        assert loaded._edge_array is None
        assert np.array_equal(loaded.indices, graph.indices)
        assert np.array_equal(loaded.edge_array, graph.edge_array)
        assert loaded == graph

    def test_equality_and_hash_agree_with_a_rebuilt_graph(self):
        graph = self._churned()
        rebuilt = Graph(graph.n, self._churned().edge_array)
        assert graph == rebuilt
        assert hash(graph) == hash(rebuilt)
        assert graph != random_regular_graph(60, 4, rng=make_rng(3))

    @pytest.mark.parametrize("kernel", ["loop", "block"])
    def test_vertex_process_churn_never_builds_the_edge_list(self, kernel):
        graph = random_regular_graph(200, 6, rng=make_rng(1))
        substrate = Substrate(graph, ChurnPlan(period=50, swaps=16, seed=4))
        opinions = make_rng(2).integers(1, 4, size=200).tolist()
        run_div(
            substrate, opinions, process="vertex", rng=5, max_steps=2_000, kernel=kernel
        )
        assert substrate.epoch > 0
        assert substrate.graph._edge_array is None


class TestRowCheck:
    """``_check_rows`` guards every row a churn event wrote back."""

    @staticmethod
    def _check(rows):
        owner = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
        neighbours = np.array([v for r in rows for v in r], dtype=np.int64)
        _check_rows(len(rows), owner, neighbours)

    def test_accepts_sorted_simple_rows(self):
        self._check([[1, 2], [0, 2], [0, 1]])

    def test_duplicate_neighbour_raises(self):
        with pytest.raises(ProcessError, match="churn produced an invalid graph"):
            self._check([[1, 2, 2], [0], [0, 0]])

    def test_self_loop_raises(self):
        with pytest.raises(ProcessError, match="churn produced an invalid graph"):
            self._check([[1, 2], [0, 1], [0]])

    def test_unsorted_row_raises(self):
        with pytest.raises(ProcessError, match="churn produced an invalid graph"):
            self._check([[2, 1], [0], [0]])


class TestPinnedChurnTrajectory:
    """Churn trajectories are pinned bit for bit (E18 depends on them)."""

    PLAN = ChurnPlan(period=1000, swaps=32, seed=7)
    EDGE_DIGEST = "2690825b5aca9515084a7c216e27d2287850f97f0a563697f5ec9b8730d2f816"

    @staticmethod
    def _graph() -> Graph:
        return random_regular_graph(2000, 10, rng=1)

    def test_edge_array_digest_after_twenty_events(self):
        substrate = Substrate(self._graph(), self.PLAN)
        substrate.advance_to(20 * self.PLAN.period)
        assert substrate.epoch == 20
        edges = np.ascontiguousarray(substrate.graph.edge_array, dtype="<i8")
        assert hashlib.sha256(edges.tobytes()).hexdigest() == self.EDGE_DIGEST

    @pytest.mark.parametrize(
        "process, expected",
        [("vertex", (90425, 2, 38257)), ("edge", (409054, 2, 50101))],
    )
    def test_run_div_outcome(self, process, expected):
        opinions = make_rng(3).choice([1, 2, 3], size=2000, p=[0.04, 0.92, 0.04])
        result = run_div(
            Substrate(self._graph(), self.PLAN), opinions.tolist(), process=process, rng=11
        )
        assert (result.steps, result.winner, result.two_adjacent_step) == expected


class TestSubstrate:
    def _substrate(self, seed=5, period=10, swaps=12, events=None):
        graph = random_regular_graph(24, 4, rng=make_rng(0))
        return Substrate(graph, ChurnPlan(period, swaps, seed=seed, events=events))

    def test_static_substrate(self):
        graph = complete_graph(5)
        substrate = Substrate(graph)
        assert substrate.is_static
        assert substrate.epoch == 0
        assert substrate.next_boundary(0) is None
        assert not substrate.advance_to(10**9)
        assert substrate.graph is graph

    def test_as_substrate_coerces_and_passes_through(self):
        graph = complete_graph(4)
        substrate = as_substrate(graph)
        assert isinstance(substrate, Substrate)
        assert substrate.graph is graph
        assert as_substrate(substrate) is substrate
        with pytest.raises(ProcessError):
            as_substrate("not a graph")

    def test_boundaries_and_epoch_progression(self):
        substrate = self._substrate(period=10)
        assert not substrate.is_static
        assert substrate.next_boundary(0) == 10
        assert substrate.next_boundary(9) == 10
        assert substrate.next_boundary(10) == 20
        first = substrate.graph
        assert substrate.advance_to(10)
        assert substrate.epoch == 1
        assert substrate.graph is not first
        # Idempotent per step: nothing more due until the next boundary.
        assert not substrate.advance_to(10)
        assert substrate.epoch == 1

    def test_skipping_several_boundaries_applies_all_events(self):
        a = self._substrate(seed=9, period=10)
        b = self._substrate(seed=9, period=10)
        for step in (10, 20, 30):
            a.advance_to(step)
        b.advance_to(30)  # one jump
        assert a.epoch == b.epoch
        assert np.array_equal(a.graph.edge_array, b.graph.edge_array)

    def test_equal_plans_evolve_identically(self):
        a = self._substrate(seed=21)
        b = self._substrate(seed=21)
        a.advance_to(50)
        b.advance_to(50)
        assert np.array_equal(a.graph.edge_array, b.graph.edge_array)

    def test_bounded_plans_go_static_after_last_event(self):
        substrate = self._substrate(period=10, events=2)
        assert substrate.next_boundary(15) == 20
        assert substrate.next_boundary(20) is None
        substrate.advance_to(100)
        assert substrate.is_static
        assert substrate.epoch <= 2
        assert not substrate.advance_to(1000)

    def test_degrees_preserved_across_epochs(self):
        substrate = self._substrate()
        degrees = substrate.graph.degrees.copy()
        substrate.advance_to(200)
        assert substrate.epoch > 0
        assert np.array_equal(substrate.graph.degrees, degrees)


class TestFrozenState:
    def _state(self, frozen):
        graph = complete_graph(6)
        return OpinionState(graph, [1, 2, 3, 4, 5, 3], frozen=frozen)

    def test_no_zealots_by_default(self):
        state = self._state(None)
        assert not state.has_frozen
        assert state.frozen_mask is None
        assert not state.is_frozen(0)
        assert state.frozen_vertices().size == 0
        assert state.frozen_support() == []

    def test_vertex_ids_and_mask_spellings_agree(self):
        by_ids = self._state([0, 4])
        mask = np.zeros(6, dtype=bool)
        mask[[0, 4]] = True
        by_mask = self._state(mask)
        assert np.array_equal(by_ids.frozen_mask, by_mask.frozen_mask)
        assert by_ids.frozen_support() == [1, 5]
        assert list(by_ids.frozen_vertices()) == [0, 4]

    def test_apply_is_a_noop_on_frozen_vertices(self):
        state = self._state([0])
        before = state.value(0)
        assert state.apply(0, 3) == before
        assert state.value(0) == before
        assert state.apply(1, 3) == 2  # unfrozen vertices still move
        assert state.value(1) == 3

    def test_apply_block_drops_frozen_rows(self):
        state = self._state([0, 4])
        state.apply_block(
            np.array([0, 1, 4, 2]), np.array([5, 5, 1, 5])
        )
        assert state.value(0) == 1
        assert state.value(4) == 5
        assert state.value(1) == 5
        assert state.value(2) == 5
        state.check_consistency()

    def test_writable_masks_frozen_targets(self):
        state = self._state([0, 4])
        vertices = np.array([0, 1, 4, 5])
        proposal = np.array([True, True, False, True])
        assert list(state.writable(vertices, proposal)) == [
            False,
            True,
            False,
            True,
        ]

    def test_copy_preserves_the_mask(self):
        state = self._state([2])
        clone = state.copy()
        assert clone.is_frozen(2)
        clone.apply(2, 5)
        assert clone.value(2) == 3

    def test_invalid_frozen_specs_rejected(self):
        with pytest.raises(InvalidOpinionsError):
            self._state([99])
        with pytest.raises(InvalidOpinionsError):
            self._state(np.zeros(4, dtype=bool))  # wrong mask length

    def test_frozen_consensus_floor(self):
        state = self._state([0, 4])  # pinned at opinions 1 and 5
        condition = frozen_consensus(state)
        assert condition(state) is None
        # Support can never drop below 2; the factory publishes that.
        (term,) = condition.support_range_terms
        assert term.support_at_most == 2
        assert term.reason == "frozen_consensus"
        no_zealots = frozen_consensus(self._state(None))
        (term,) = no_zealots.support_range_terms
        assert term.support_at_most == 1


class TestRebindGraph:
    def test_rebinds_and_recomputes_weights(self):
        graph = random_regular_graph(16, 4, rng=make_rng(0))
        state = OpinionState(graph, list(range(1, 17)))
        z_before = state.degree_weighted_sum
        rewired = rewire_edges(graph, make_rng(5), swaps=20)
        state.rebind_graph(rewired)
        assert state.graph is rewired
        # Degree-preserving churn keeps the weighted sum invariant.
        assert state.degree_weighted_sum == z_before
        state.check_consistency()

    def test_rejects_mismatched_vertex_count(self):
        state = OpinionState(complete_graph(5), [1, 2, 3, 4, 5])
        with pytest.raises(InvalidOpinionsError):
            state.rebind_graph(complete_graph(6))
