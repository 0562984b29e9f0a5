"""Unit tests for repro.core.schedulers — eq. (2) and the edge process."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import (
    AdversarialScheduler,
    BiasedScheduler,
    ChurnPlan,
    EdgeScheduler,
    OpinionState,
    Substrate,
    VertexScheduler,
    make_scheduler,
)
from repro.errors import ProcessError
from repro.graphs import (
    Graph,
    complete_graph,
    lollipop_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)
from repro.rng import make_rng


class TestVertexScheduler:
    def test_pairs_are_adjacent(self, any_graph, rng):
        scheduler = VertexScheduler(any_graph)
        v, w = scheduler.draw_block(rng, 500)
        assert v.shape == w.shape == (500,)
        for a, b in zip(v, w):
            assert any_graph.has_edge(int(a), int(b))

    def test_updating_vertex_uniform(self, rng):
        # P(v chosen) = 1/n regardless of degree.
        graph = star_graph(5)
        scheduler = VertexScheduler(graph)
        v, _ = scheduler.draw_block(rng, 20000)
        counts = Counter(v.tolist())
        for vertex in range(graph.n):
            assert counts[vertex] / 20000 == pytest.approx(1 / 5, abs=0.02)

    def test_neighbour_uniform_given_vertex(self, rng):
        graph = path_graph(3)  # middle vertex has two neighbours
        scheduler = VertexScheduler(graph)
        v, w = scheduler.draw_block(rng, 30000)
        picks = w[v == 1]
        share = np.mean(picks == 0)
        assert share == pytest.approx(0.5, abs=0.02)

    def test_eq2_pair_probability(self, rng):
        # P(v chooses w) = 1/(n d(v)) — eq. (2) — measured on the star.
        graph = star_graph(5)
        scheduler = VertexScheduler(graph)
        v, w = scheduler.draw_block(rng, 40000)
        hub_to_leaf1 = np.mean((v == 0) & (w == 1))
        leaf1_to_hub = np.mean((v == 1) & (w == 0))
        assert hub_to_leaf1 == pytest.approx(1 / (5 * 4), abs=0.01)
        assert leaf1_to_hub == pytest.approx(1 / 5, abs=0.01)

    def test_rejects_isolated_vertices(self):
        with pytest.raises(ProcessError):
            VertexScheduler(Graph(3, [(0, 1)]))


class TestEdgeScheduler:
    def test_pairs_are_adjacent(self, any_graph, rng):
        scheduler = EdgeScheduler(any_graph)
        v, w = scheduler.draw_block(rng, 500)
        for a, b in zip(v, w):
            assert any_graph.has_edge(int(a), int(b))

    def test_updating_vertex_degree_proportional(self, rng):
        # P(v updates) = d(v)/2m under the edge process.
        graph = star_graph(5)  # hub degree 4, 2m = 8
        scheduler = EdgeScheduler(graph)
        v, _ = scheduler.draw_block(rng, 30000)
        hub_share = np.mean(v == 0)
        assert hub_share == pytest.approx(0.5, abs=0.02)

    def test_pair_probability_uniform_over_directed_edges(self, rng):
        graph = path_graph(4)  # 3 edges, 6 directed pairs
        scheduler = EdgeScheduler(graph)
        v, w = scheduler.draw_block(rng, 30000)
        counts = Counter(zip(v.tolist(), w.tolist()))
        assert len(counts) == 6
        for pair, count in counts.items():
            assert count / 30000 == pytest.approx(1 / 6, abs=0.02)

    def test_rejects_edgeless(self):
        with pytest.raises(ProcessError):
            EdgeScheduler(Graph(2, []))


class TestFactory:
    def test_make_scheduler(self, small_complete):
        assert isinstance(make_scheduler(small_complete, "vertex"), VertexScheduler)
        assert isinstance(make_scheduler(small_complete, "edge"), EdgeScheduler)

    def test_unknown_process(self, small_complete):
        with pytest.raises(ProcessError):
            make_scheduler(small_complete, "gossip")

    def test_deterministic_given_seed(self, small_complete):
        scheduler = VertexScheduler(small_complete)
        v1, w1 = scheduler.draw_block(make_rng(5), 100)
        v2, w2 = scheduler.draw_block(make_rng(5), 100)
        assert np.array_equal(v1, v2)
        assert np.array_equal(w1, w2)

    def test_scenario_schedulers_require_state(self, small_complete):
        for process in ("biased", "adversarial"):
            with pytest.raises(ProcessError, match="state"):
                make_scheduler(small_complete, process)

    @pytest.mark.parametrize("process", ["vertex", "edge"])
    def test_neutral_processes_refuse_strength(self, small_complete, process):
        with pytest.raises(ProcessError, match="strength"):
            make_scheduler(small_complete, process, strength=0.9)

    def test_scenario_schedulers_constructed(self, small_complete):
        state = OpinionState(small_complete, [1, 2, 3, 4, 5, 1, 2, 3])
        biased = make_scheduler(small_complete, "biased", state=state, strength=0.5)
        assert isinstance(biased, BiasedScheduler)
        assert biased.bias == pytest.approx(0.5)
        adversarial = make_scheduler(
            small_complete, "adversarial", state=state, strength=0.25
        )
        assert isinstance(adversarial, AdversarialScheduler)
        assert adversarial.strength == pytest.approx(0.25)


class TestFrequenciesOnHeterogeneousDegrees:
    """Eq. (2) and the 1/2m rule measured on a genuinely mixed-degree graph."""

    DRAWS = 60000

    @pytest.fixture
    def lollipop(self):
        # K_5 plus a pendant path: degrees range from 1 to 5.
        return lollipop_graph(5, 4)

    def test_vertex_process_pair_frequencies(self, lollipop, rng):
        scheduler = VertexScheduler(lollipop)
        v, w = scheduler.draw_block(rng, self.DRAWS)
        counts = Counter(zip(v.tolist(), w.tolist()))
        degrees = lollipop.degrees
        for a in range(lollipop.n):
            for b in lollipop.neighbors(a):
                expected = 1.0 / (lollipop.n * degrees[a])
                measured = counts[(a, int(b))] / self.DRAWS
                assert measured == pytest.approx(expected, abs=0.006), (a, b)

    def test_edge_process_pair_frequencies(self, lollipop, rng):
        scheduler = EdgeScheduler(lollipop)
        v, w = scheduler.draw_block(rng, self.DRAWS)
        counts = Counter(zip(v.tolist(), w.tolist()))
        expected = 1.0 / (2 * lollipop.m)
        assert len(counts) == 2 * lollipop.m
        for pair, count in counts.items():
            assert count / self.DRAWS == pytest.approx(expected, abs=0.006), pair


class TestBiasedScheduler:
    def test_pairs_are_adjacent(self, any_graph, rng):
        state = OpinionState(any_graph, list(range(1, any_graph.n + 1)))
        scheduler = BiasedScheduler(any_graph, state, bias=1.5)
        v, w = scheduler.draw_block(rng, 400)
        for a, b in zip(v, w):
            assert any_graph.has_edge(int(a), int(b))

    def test_deterministic_given_seed(self, small_complete):
        state = OpinionState(small_complete, [1, 1, 2, 3, 4, 5, 5, 3])
        scheduler = BiasedScheduler(small_complete, state, bias=2.0)
        v1, w1 = scheduler.draw_block(make_rng(7), 200)
        v2, w2 = scheduler.draw_block(make_rng(7), 200)
        assert np.array_equal(v1, v2)
        assert np.array_equal(w1, w2)

    def test_positive_bias_targets_extreme_holders(self, small_complete, rng):
        # Vertices 0/1 hold the extremes; they must update strictly more
        # often than the centre holders under positive bias.
        state = OpinionState(small_complete, [1, 5, 3, 3, 3, 3, 3, 3])
        scheduler = BiasedScheduler(small_complete, state, bias=3.0)
        v, _ = scheduler.draw_block(rng, 20000)
        extreme_share = np.mean((v == 0) | (v == 1))
        # Unbiased share would be 2/8; weights (1+3)/(1+0) quadruple it
        # relative to centre vertices: expect 8/(8+6) ≈ 0.571.
        assert extreme_share == pytest.approx(8 / 14, abs=0.02)

    def test_negative_bias_shelters_extreme_holders(self, small_complete, rng):
        state = OpinionState(small_complete, [1, 5, 3, 3, 3, 3, 3, 3])
        scheduler = BiasedScheduler(small_complete, state, bias=-1.0)
        v, _ = scheduler.draw_block(rng, 20000)
        # Weight 1 + (-1)·1 = 0: the extreme holders never update.
        assert not np.any((v == 0) | (v == 1))

    def test_zero_bias_matches_vertex_process_stream(self, small_complete):
        state = OpinionState(small_complete, [1, 2, 3, 4, 5, 1, 2, 3])
        biased = BiasedScheduler(small_complete, state, bias=0.0)
        plain = VertexScheduler(small_complete)
        v1, w1 = biased.draw_block(make_rng(3), 300)
        v2, w2 = plain.draw_block(make_rng(3), 300)
        assert np.array_equal(v1, v2)
        assert np.array_equal(w1, w2)

    def test_rejects_bias_below_minus_one(self, small_complete):
        state = OpinionState(small_complete, [1] * 8)
        with pytest.raises(ProcessError, match="bias"):
            BiasedScheduler(small_complete, state, bias=-1.5)

    @pytest.mark.parametrize("bias", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_bias(self, small_complete, bias):
        state = OpinionState(small_complete, [1] * 8)
        with pytest.raises(ProcessError, match="bias"):
            BiasedScheduler(small_complete, state, bias=bias)


class TestAdversarialScheduler:
    def test_pairs_are_adjacent(self, any_graph, rng):
        state = OpinionState(any_graph, list(range(1, any_graph.n + 1)))
        scheduler = AdversarialScheduler(any_graph, state, strength=0.7)
        v, w = scheduler.draw_block(rng, 400)
        for a, b in zip(v, w):
            assert any_graph.has_edge(int(a), int(b))

    def test_deterministic_given_seed(self, small_complete):
        state = OpinionState(small_complete, [1, 1, 2, 3, 4, 5, 5, 3])
        scheduler = AdversarialScheduler(small_complete, state, strength=0.5)
        v1, w1 = scheduler.draw_block(make_rng(11), 200)
        v2, w2 = scheduler.draw_block(make_rng(11), 200)
        assert np.array_equal(v1, v2)
        assert np.array_equal(w1, w2)

    def test_full_strength_always_shows_most_extreme_neighbour(
        self, small_complete, rng
    ):
        values = [1, 5, 3, 3, 3, 3, 3, 3]
        state = OpinionState(small_complete, values)
        scheduler = AdversarialScheduler(small_complete, state, strength=1.0)
        v, w = scheduler.draw_block(rng, 2000)
        # Centre = 6; on K_8 the most extreme neighbour of anyone is
        # vertex 0 (|2·1-6| = 4) — argmax ties resolve to the first.
        assert np.all(w[v != 0] == 0)

    def test_zero_strength_matches_vertex_process_stream(self, small_complete):
        state = OpinionState(small_complete, [1, 2, 3, 4, 5, 1, 2, 3])
        adversarial = AdversarialScheduler(small_complete, state, strength=0.0)
        plain = VertexScheduler(small_complete)
        v1, w1 = adversarial.draw_block(make_rng(3), 300)
        v2, w2 = plain.draw_block(make_rng(3), 300)
        assert np.array_equal(v1, v2)
        assert np.array_equal(w1, w2)

    def test_rejects_strength_outside_unit_interval(self, small_complete):
        state = OpinionState(small_complete, [1] * 8)
        with pytest.raises(ProcessError, match="strength"):
            AdversarialScheduler(small_complete, state, strength=1.2)


@pytest.mark.parametrize(
    "build",
    [
        lambda graph, state: BiasedScheduler(graph, state, bias=1.0),
        lambda graph, state: AdversarialScheduler(graph, state, strength=0.5),
    ],
    ids=["biased", "adversarial"],
)
def test_state_bound_scheduler_rejects_foreign_vertex_set(build):
    state = OpinionState(complete_graph(9), [1, 2, 3, 4, 5, 1, 2, 3, 4])
    with pytest.raises(ProcessError, match="9 vertices"):
        build(complete_graph(8), state)


def reference_adversarial_draw(scheduler, rng, size):
    """The per-pair redirect loop, kept as the naive reference.

    Same RNG calls in the same order as ``AdversarialScheduler``; each
    redirected pair scans its CSR row and takes ``argmax``'s first
    farthest-from-centre neighbour.
    """
    graph = scheduler.graph
    v = rng.integers(0, graph.n, size=size)
    offsets = rng.integers(0, graph.degrees[v])
    w = graph.indices[graph.indptr[v] + offsets]
    redirect = rng.random(size) < scheduler.strength
    values = scheduler.state.values
    centre = scheduler.state.min_opinion + scheduler.state.max_opinion
    for idx in np.flatnonzero(redirect).tolist():
        nbrs = graph.indices[graph.indptr[v[idx]] : graph.indptr[v[idx] + 1]]
        w[idx] = nbrs[int(np.argmax(np.abs(2 * values[nbrs] - centre)))]
    return v, w


def churned_regular():
    """RR(40, 6) after a few ChurnPlan rewirings; the scheduler's
    construction-time rebuild() snapshots the rewired epoch."""
    substrate = Substrate(
        random_regular_graph(40, 6, rng=5), ChurnPlan(period=10, swaps=12, seed=3)
    )
    for step in range(10, 60, 10):
        substrate.advance_to(step)
    assert substrate.epoch > 0
    return substrate


class TestAdversarialRedirectDifferential:
    """The vectorized redirect against the per-pair loop, draw for draw."""

    GRAPHS = {
        "star": lambda: star_graph(9),
        "lollipop": lambda: lollipop_graph(6, 5),
        "path": lambda: path_graph(12),
        "complete": lambda: complete_graph(10),
        "churned_rr": churned_regular,
    }

    @staticmethod
    def _opinions(kind, n):
        if kind == "spread":
            return make_rng(n).integers(1, 8, size=n)
        if kind == "extremes":  # every opinion at one of the two extremes
            return np.where(np.arange(n) % 3 == 0, 1, 7)
        return np.full(n, 4)  # a single opinion: min == max

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("opinions", ["spread", "extremes", "single"])
    @pytest.mark.parametrize("strength", [0.3, 1.0])
    def test_matches_per_pair_loop(self, graph_name, opinions, strength):
        source = self.GRAPHS[graph_name]()
        graph = source.graph if isinstance(source, Substrate) else source
        state = OpinionState(graph, self._opinions(opinions, graph.n))
        scheduler = AdversarialScheduler(source, state, strength=strength)
        for size in (1, 7, 8192):
            v, w = scheduler.draw_block(make_rng(size), size)
            v_ref, w_ref = reference_adversarial_draw(scheduler, make_rng(size), size)
            assert np.array_equal(v, v_ref)
            assert np.array_equal(w, w_ref), (graph_name, opinions, strength, size)

    def test_tie_shows_first_neighbour_in_csr_order(self):
        # Hub 0 sits at the centre; its leaves alternate between the two
        # extremes, so every neighbour is equally far from the centre.
        graph = star_graph(7)
        state = OpinionState(graph, [4, 1, 7, 1, 7, 1, 7])
        scheduler = AdversarialScheduler(graph, state, strength=1.0)
        v, w = scheduler.draw_block(make_rng(0), 2000)
        assert np.any(v == 0)
        assert np.all(w[v == 0] == graph.indices[graph.indptr[0]])


class TestEpochStaleness:
    """The scheduler cache-staleness guard (substrate contract)."""

    def _churning(self, rng):
        graph = Graph(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)]
        )
        return Substrate(graph, ChurnPlan(period=10, swaps=8, seed=42))

    @pytest.mark.parametrize("cls", [VertexScheduler, EdgeScheduler])
    def test_stale_cache_draw_raises(self, cls, rng):
        substrate = self._churning(rng)
        scheduler = cls(substrate)
        scheduler.draw_block(rng, 10)
        advanced = False
        step = 0
        while not advanced:  # swaps can all be rejected on tiny graphs
            step += 10
            advanced = substrate.advance_to(step)
        with pytest.raises(ProcessError, match="stale scheduler cache"):
            scheduler.draw_block(rng, 10)
        scheduler.rebuild()
        v, w = scheduler.draw_block(rng, 50)
        for a, b in zip(v, w):
            assert substrate.graph.has_edge(int(a), int(b))

    def test_static_substrate_never_goes_stale(self, small_complete, rng):
        substrate = Substrate(small_complete)
        scheduler = VertexScheduler(substrate)
        assert not substrate.advance_to(10**6)
        scheduler.draw_block(rng, 10)  # no rebuild needed, no raise
