"""Graph construction pinned bit for bit.

The digests below were recorded with the per-edge Python builders that
the numpy ones replaced (commit d572ac8).  They pin ``edge_array``,
``indices`` and ``indptr`` together, so a change to the RNG use of the
random regular repair, to the CSR order of the constructor, or to the
edge lists of the deterministic families shows up here before it shows
up as a changed report.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from repro.errors import GraphConstructionError
from repro.graphs import Graph, generators


def _digest(graph: Graph) -> str:
    sha = hashlib.sha1()
    for array in (graph.edge_array, graph.indices, graph.indptr):
        assert array.dtype == np.int64
        sha.update(array.tobytes())
    return sha.hexdigest()[:16]


#: (n, d, seed) -> (digest, pairing attempts). An ``RR(n, n-1)`` cell
#: is K_n, built without drawing a pairing; its digest is the one the
#: pairing model gave on the seeds where it found K_n.
RR_PINS = {
    (4, 3, 0): ("b544fdf762383bd1", 0),
    (4, 3, 4): ("b544fdf762383bd1", 0),
    (6, 5, 4): ("a6cb792271499efb", 0),
    (10, 3, 0): ("417ea46c8b180668", 1),
    (10, 3, 5): ("686a39c7ab395d16", 1),
    (16, 14, 0): ("867ee5776da759d3", 4),
    (16, 15, 0): ("392ba2427301c250", 0),
    (20, 19, 1): ("74c5ac1e3845725b", 0),
    (22, 20, 0): ("b6a896f51bf9ebac", 3),
    (30, 28, 0): ("16c13cd60ab2116c", 5),
    (56, 8, 0): ("b3518d9dc01545f7", 1),
    (56, 8, 1): ("d951544fe30a39be", 1),
    (150, 64, 0): ("2da035abff715c81", 1),
    (501, 6, 0): ("2cc67327fa01176d", 1),
    (2000, 10, 0): ("bb16bdc011bf2214", 1),
    (10000, 10, 0): ("29a87431c82239eb", 1),
    (10000, 10, 1): ("c0227712250ef31f", 1),
}

FAMILY_PINS = {
    ("complete_graph", (1,)): "e129f27c5103bc5c",
    ("complete_graph", (2,)): "42bf7654e388734b",
    ("complete_graph", (7,)): "f5a9e61933cabd3b",
    ("complete_graph", (300,)): "de17c00dddbe6952",
    ("hypercube_graph", (1,)): "42bf7654e388734b",
    ("hypercube_graph", (4,)): "d68adc0726335e04",
    ("hypercube_graph", (10,)): "cf1fac267fabbc28",
    ("grid_graph", (1, 1)): "e129f27c5103bc5c",
    ("grid_graph", (1, 5)): "a1b817d9a20d667d",
    ("grid_graph", (4, 1)): "dff055d40a2c42c7",
    ("grid_graph", (3, 7)): "0070846aedf37e55",
    ("grid_graph", (3, 3, True)): "2fd1d97d11db90d3",
    ("grid_graph", (4, 6, True)): "5d4f6313fabd4fb6",
    ("grid_graph", (30, 20, True)): "ad852464c52534d5",
}


@pytest.fixture
def repair_log(monkeypatch):
    """Spy on the repair: one ``(needed_repair, repaired)`` per pairing.

    Whether a pairing needs repair is decided here, from Python sets, not
    by the code under test.
    """
    log = []
    repair = generators._repair_multigraph

    def spy(edges, *args):
        pairs = [tuple(sorted(map(int, edge))) for edge in edges]
        needed = any(a == b for a, b in pairs) or len(set(pairs)) < len(pairs)
        repaired = repair(edges, *args)
        log.append((needed, repaired))
        return repaired

    monkeypatch.setattr(generators, "_repair_multigraph", spy)
    return log


class TestRandomRegularPinned:
    def test_pinned_digests_and_attempts(self, repair_log):
        for (n, d, seed), (digest, attempts) in RR_PINS.items():
            repair_log.clear()
            graph = generators.random_regular_graph(n, d, rng=seed)
            assert _digest(graph) == digest, (n, d, seed)
            assert len(repair_log) == attempts, (n, d, seed)
            assert [ok for _, ok in repair_log] == [
                attempt == attempts - 1 for attempt in range(attempts)
            ]

    def test_grid_covers_repair_and_redraw(self, repair_log):
        repaired, redrawn, clean = set(), set(), set()
        for cell in RR_PINS:
            repair_log.clear()
            generators.random_regular_graph(*cell[:2], rng=cell[2])
            if not repair_log:  # K_n: no pairing drawn
                continue
            if repair_log[-1][0]:
                repaired.add(cell)
            else:
                clean.add(cell)
            if len(repair_log) > 1:
                redrawn.add(cell)
        # Large cells must repair a pairing; some cells must redraw one.
        assert {(2000, 10, 0), (10000, 10, 0), (10000, 10, 1)} <= repaired
        assert {(16, 14, 0), (22, 20, 0), (30, 28, 0)} <= redrawn
        assert clean == {(10, 3, 5)}

    def test_budget_exhaustion_is_pinned(self, repair_log):
        # Seed 0 of RR(16,14) needs four pairings; allow three.
        with pytest.raises(GraphConstructionError, match="after 3 pairing attempts"):
            generators.random_regular_graph(16, 14, rng=0, max_attempts=3)
        assert repair_log == [(True, False)] * 3

    @pytest.mark.parametrize("n", [16, 20])
    def test_degree_n_minus_1_is_complete_for_every_seed(self, repair_log, n):
        for seed in range(6):
            graph = generators.random_regular_graph(n, n - 1, rng=seed)
            assert graph == generators.complete_graph(n)
            assert graph.name == f"RR({n},{n - 1})"
        assert repair_log == []


@pytest.mark.parametrize("family, args", sorted(FAMILY_PINS))
def test_deterministic_family_pinned(family, args):
    assert _digest(getattr(generators, family)(*args)) == FAMILY_PINS[family, args]


class TestConstructorInputs:
    def test_every_input_form_gives_identical_arrays(self):
        edges = generators.random_regular_graph(300, 6, rng=2).edge_array
        rng = np.random.default_rng(5)
        shuffled = edges[rng.permutation(len(edges))]
        shuffled[::3] = shuffled[::3, ::-1]
        tuples = [(int(u), int(v)) for u, v in edges]
        forms = {
            "tuples": tuples,
            "reversed": [(v, u) for u, v in reversed(tuples)],
            "shuffled array": shuffled,
            "int32 array": shuffled.astype(np.int32),
            "generator": (pair for pair in tuples),
        }
        for label, form in forms.items():
            graph = Graph(300, form)
            assert _digest(graph) == "7cbdeb77802cb970", label
            assert graph.m == 900

    def test_array_input_left_unchanged(self):
        edges = np.array([[2, 0], [1, 0], [2, 1]], dtype=np.int64)
        before = edges.copy()
        graph = Graph(3, edges)
        assert np.array_equal(edges, before)
        assert graph.edge_array.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert not np.shares_memory(graph.edge_array, edges)

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (3, [(0, 0)], "self-loops are not allowed"),
            (3, [(0, 1), (2, 2)], "self-loops are not allowed"),
            (3, [(1, 2), (2, 1)], "duplicate edges are not allowed"),
            (3, [(1, 2), (1, 2)], "duplicate edges are not allowed"),
            (3, np.array([[0, 1], [1, 2], [1, 0]]), "duplicate edges are not allowed"),
            (3, [(0, 3)], "edge endpoints must lie in [0, 2]"),
            (3, [(-1, 2)], "edge endpoints must lie in [0, 2]"),
            (3, [(0, 1, 2)], "edges must be (u, v) pairs"),
            (3, np.array([0, 1, 2]), "edges must be (u, v) pairs"),
            (0, [], "graph needs at least one vertex, got n=0"),
        ],
    )
    def test_error_messages(self, n, edges, message):
        with pytest.raises(GraphConstructionError, match=re.escape(message)):
            Graph(n, edges)

    @pytest.mark.parametrize("n", [1, 3])
    def test_edgeless(self, n):
        graph = Graph(n, [])
        assert graph.m == 0
        assert graph.name == f"graph(n={n},m=0)"
        assert graph.indptr.tolist() == [0] * (n + 1)
        assert graph.indices.shape == (0,)
        assert graph.edge_array.shape == (0, 2)
        for array in (graph.edge_array, graph.indices, graph.indptr):
            assert array.dtype == np.int64
