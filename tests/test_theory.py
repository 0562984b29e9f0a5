"""Unit tests for repro.core.theory — the paper's closed forms."""

from __future__ import annotations

import math

import pytest

from repro.core.theory import (
    azuma_envelope,
    azuma_tail,
    complete_graph_lambda,
    expected_reduction_time_bound,
    gnp_lambda_bound,
    load_balancing_time_bound,
    random_regular_lambda_bound,
    reduction_epsilons,
    t1_time,
    t2_time,
    theorem1_step_budget,
    tp_time,
    two_opinion_win_probability,
    winning_probabilities,
)
from repro.errors import AnalysisError
from repro.graphs import star_graph


class TestWinningProbabilities:
    def test_fractional_average(self):
        prediction = winning_probabilities(3.25)
        assert prediction.floor == 3
        assert prediction.ceil == 4
        assert prediction.p_floor == pytest.approx(0.75)
        assert prediction.p_ceil == pytest.approx(0.25)
        assert prediction.p_floor + prediction.p_ceil == pytest.approx(1.0)

    def test_integer_average(self):
        prediction = winning_probabilities(4.0)
        assert prediction.floor == prediction.ceil == 4
        assert prediction.p_floor == pytest.approx(1.0)

    def test_probability_of(self):
        prediction = winning_probabilities(2.4)
        assert prediction.probability_of(2) == pytest.approx(0.6)
        assert prediction.probability_of(3) == pytest.approx(0.4)
        assert prediction.probability_of(7) == pytest.approx(0.0, abs=1e-12)

    def test_negative_average(self):
        prediction = winning_probabilities(-1.75)
        assert prediction.floor == -2
        assert prediction.p_floor == pytest.approx(0.75)


class TestTwoOpinionWin:
    def test_edge_process(self):
        graph = star_graph(5)
        assert two_opinion_win_probability(graph, [0], "edge") == pytest.approx(0.2)

    def test_vertex_process(self):
        graph = star_graph(5)  # hub degree 4, 2m = 8
        assert two_opinion_win_probability(graph, [0], "vertex") == pytest.approx(0.5)
        assert two_opinion_win_probability(graph, [1], "vertex") == pytest.approx(
            1 / 8
        )

    def test_unknown_process(self):
        with pytest.raises(AnalysisError):
            two_opinion_win_probability(star_graph(4), [0], "both")


class TestTimeBounds:
    def test_eq4_terms(self):
        n, k, lam = 1000, 5, 0.01
        bound = expected_reduction_time_bound(n, k, lam)
        expected = (
            k * n * math.log(n)
            + n ** (5 / 3) * math.log(n)
            + lam * k * n**2
            + math.sqrt(lam) * n**2
        )
        assert bound == pytest.approx(expected)

    def test_eq4_constant(self):
        assert expected_reduction_time_bound(
            100, 3, 0.1, constant=2.0
        ) == pytest.approx(2 * expected_reduction_time_bound(100, 3, 0.1))

    def test_eq4_validation(self):
        with pytest.raises(AnalysisError):
            expected_reduction_time_bound(1, 5, 0.1)
        with pytest.raises(AnalysisError):
            expected_reduction_time_bound(10, 5, -0.1)

    def test_t1_t2_formulas(self):
        n, eps = 500, 0.01
        assert t1_time(n, eps) == math.ceil(2 * n * math.log(1 / (2 * eps**2)))
        assert t2_time(n, eps) == math.ceil(
            (2 * n / eps) * math.log(1 / (2 * eps**2))
        )
        assert t2_time(n, eps) > t1_time(n, eps)

    def test_epsilon_domain(self):
        with pytest.raises(AnalysisError):
            t1_time(100, 0.9)  # log argument would be <= 1
        with pytest.raises(AnalysisError):
            t2_time(100, 0.0)

    def test_tp_formula(self):
        n, lam, pi_min = 400, 0.2, 1 / 400
        assert tp_time(n, lam, pi_min) == math.ceil(
            64 * n / (math.sqrt(2) * 0.8 * pi_min)
        )

    def test_tp_validation(self):
        with pytest.raises(AnalysisError):
            tp_time(100, 1.0, 0.01)
        with pytest.raises(AnalysisError):
            tp_time(100, 0.5, 0.0)

    def test_reduction_epsilons(self):
        eps1, eps2 = reduction_epsilons(1000, 0.0001)
        assert eps1 == pytest.approx(1000**-2.0)  # 4λ² < n^-2 here
        assert eps2 == pytest.approx(1000 ** (-2 / 3))
        eps1, eps2 = reduction_epsilons(1000, 0.5)
        assert eps1 == pytest.approx(1.0)  # 4λ² = 1
        assert eps2 == pytest.approx(1.0)

    def test_theorem1_budget_positive_and_monotone_in_k(self):
        small = theorem1_step_budget(1000, 4, 0.01, 1 / 1000)
        large = theorem1_step_budget(1000, 10, 0.01, 1 / 1000)
        assert 0 < small < large

    def test_theorem1_budget_rejects_lambda_past_the_bound(self):
        # λ = 0.45 is about what RR(500, 16) gives; ε₂ = 2λ = 0.9 > 1/√2.
        with pytest.raises(AnalysisError, match=r"eq\. \(19\).*λ = 0\.45.*1/√2"):
            theorem1_step_budget(500, 5, 0.45, 1 / 500)

    def test_theorem1_budget_just_below_the_bound(self):
        lam = math.nextafter(1 / (2 * math.sqrt(2)), 0.0)
        budget = theorem1_step_budget(500, 5, lam, 1 / 500)
        assert math.isfinite(budget) and budget > 0

    def test_theorem1_budget_rejects_zero_pi_min(self):
        with pytest.raises(AnalysisError, match="π_min"):
            theorem1_step_budget(500, 5, 0.1, 0.0)

    def test_load_balancing_bound(self):
        assert load_balancing_time_bound(100, 8) == pytest.approx(
            100 * math.log(100) + 100 * math.log(8)
        )


class TestAzuma:
    def test_tail_formula(self):
        assert azuma_tail(100, 20) == pytest.approx(2 * math.exp(-400 / 200))

    def test_tail_capped_at_one(self):
        assert azuma_tail(1000, 0.1) == pytest.approx(1.0)

    def test_tail_degenerate(self):
        assert azuma_tail(0, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert azuma_tail(0, 0.0) == pytest.approx(1.0)

    def test_envelope_inverts_tail(self):
        t, confidence = 5000, 0.99
        h = azuma_envelope(t, confidence)
        assert azuma_tail(t, h) == pytest.approx(1 - confidence)

    def test_envelope_validation(self):
        with pytest.raises(AnalysisError):
            azuma_envelope(10, 1.5)


class TestLambdaExamples:
    def test_complete(self):
        assert complete_graph_lambda(101) == pytest.approx(0.01)
        with pytest.raises(AnalysisError):
            complete_graph_lambda(1)

    def test_random_regular(self):
        assert random_regular_lambda_bound(16) == pytest.approx(0.5)
        assert random_regular_lambda_bound(1) == pytest.approx(1.0)  # capped
        with pytest.raises(AnalysisError):
            random_regular_lambda_bound(0)

    def test_gnp(self):
        assert gnp_lambda_bound(400, 0.25) == pytest.approx(0.2)
        with pytest.raises(AnalysisError):
            gnp_lambda_bound(10, 0.0)
