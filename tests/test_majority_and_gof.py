"""Tests for local majority polling and the chi-square GoF helper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.gof import chi_square_gof
from repro.baselines import run_local_majority
from repro.core import OpinionState
from repro.core.dynamics import LocalMajority
from repro.errors import AnalysisError
from repro.graphs import Graph, complete_graph, path_graph, star_graph


class TestLocalMajorityDynamic:
    def test_adopts_neighbourhood_majority(self, rng):
        graph = star_graph(5)
        state = OpinionState(graph, [9, 1, 1, 1, 2])
        assert LocalMajority().step(state, 0, 1, rng)
        assert state.value(0) == 1

    def test_keeps_own_on_tie(self, rng):
        graph = path_graph(3)
        state = OpinionState(graph, [1, 1, 2])
        # Vertex 1's neighbourhood is {1, 2}: tied, and own value 1 is
        # among the tied values, so nothing changes.
        assert not LocalMajority().step(state, 1, 0, rng)
        assert state.value(1) == 1

    def test_tie_without_own_value_takes_smallest(self, rng):
        graph = path_graph(3)
        state = OpinionState(graph, [1, 5, 3])
        assert LocalMajority().step(state, 1, 0, rng)
        assert state.value(1) == 1

    def test_run_reaches_consensus_on_clear_majority(self):
        graph = complete_graph(15)
        opinions = [1] * 11 + [4] * 4
        outcome = run_local_majority(graph, opinions, rng=1)
        assert outcome.stop_reason == "consensus"
        assert outcome.winner == 1

    def test_stable_non_consensus_state_hits_budget(self):
        # Two triangles joined by one edge: each vertex already agrees
        # with its neighbourhood majority, so the state is frozen.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        graph = Graph(6, edges)
        outcome = run_local_majority(
            graph, [1, 1, 1, 7, 7, 7], rng=1, max_steps=3000
        )
        assert outcome.stop_reason == "max_steps"
        assert sorted(outcome.final_support) == [1, 7]


class TestChiSquareGof:
    def test_perfect_fit_high_p(self, rng):
        observed = rng.choice([3, 4], size=2000, p=[0.7, 0.3])
        result = chi_square_gof(observed.tolist(), {3: 0.7, 4: 0.3})
        assert result.p_value > 0.01
        assert not result.rejects()
        assert result.dof >= 1

    def test_bad_fit_rejected(self, rng):
        observed = rng.choice([3, 4], size=2000, p=[0.5, 0.5])
        result = chi_square_gof(observed.tolist(), {3: 0.9, 4: 0.1})
        assert result.rejects()
        assert result.p_value < 1e-6

    def test_unexpected_outcome_rejected(self):
        observed = [3] * 90 + [7] * 10  # 7 has predicted probability 0
        result = chi_square_gof(observed, {3: 1.0})
        assert result.rejects()

    def test_partial_prediction_pools_other(self, rng):
        observed = rng.choice([1, 2, 3], size=900, p=[0.6, 0.3, 0.1])
        result = chi_square_gof(observed.tolist(), {1: 0.6, 2: 0.3})
        assert result.p_value > 0.001

    @pytest.mark.parametrize(
        "observed, predicted",
        [
            ([3] * 70 + [4] * 30, {3: 0.7, 4: 0.3}),
            ([3] * 55 + [4] * 45, {3: 0.9, 4: 0.1}),
            ([1] * 50 + [2] * 35 + [3] * 15, {1: 0.6, 2: 0.3}),
            ([1] * 40 + [2] * 30 + [3] * 20 + [4] * 10, {1: 0.4, 2: 0.3, 3: 0.3}),
            ([3] * 90 + [7] * 10, {3: 1.0}),
        ],
        ids=["fit", "misfit", "pooled-other", "three-dof", "impossible"],
    )
    def test_matches_scipy_chisquare(self, observed, predicted):
        from scipy import stats

        result = chi_square_gof(observed, predicted)
        # The cells chi_square_gof builds: listed values, then "other".
        counts = [observed.count(value) for value in predicted]
        expected = [p * len(observed) for p in predicted.values()]
        other = len(observed) - sum(counts)
        if other or sum(expected) < len(observed):
            counts.append(other)
            expected.append(max(len(observed) - sum(expected), 1e-9))
        scaled = np.array(expected) * len(observed) / sum(expected)
        reference = stats.chisquare(counts, scaled)
        assert result.dof == len(counts) - 1
        assert result.statistic == pytest.approx(reference.statistic, rel=1e-12)
        assert result.p_value == pytest.approx(reference.pvalue, rel=1e-9, abs=1e-300)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            chi_square_gof([], {1: 1.0})
        with pytest.raises(AnalysisError):
            chi_square_gof([1], {1: 1.5})
        with pytest.raises(AnalysisError):
            chi_square_gof([1], {1: -0.1, 2: 0.5})
