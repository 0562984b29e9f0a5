"""End-to-end integration tests tying the pieces to the paper's claims.

Statistical assertions use fixed seeds and generous tolerances so they
are deterministic and robust, while still failing on real regressions
(wrong scheduler probabilities, broken update rule, biased winner, ...).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis import (
    opinions_with_mean,
    run_trials,
    uniform_random_opinions,
    wilson_interval,
)
from repro.baselines import run_load_balancing
from repro.core import WeightTrace, run_div, run_div_complete
from repro.core.theory import winning_probabilities
from repro.graphs import complete_graph, random_regular_graph, star_graph


class TestTheorem2EndToEnd:
    def test_winner_is_floor_or_ceil_on_complete_graph(self):
        graph = complete_graph(80)

        def trial(i, rng):
            opinions = opinions_with_mean(80, 1, 5, 3.4, rng=rng)
            return run_div(graph, opinions, rng=rng).winner

        outcomes = run_trials(60, trial, seed=0)
        hits = outcomes.frequency(lambda w: w in (3, 4))
        assert hits >= 0.9

    def test_floor_probability_matches_prediction(self):
        # Count-based engine, plenty of trials: the Wilson interval at
        # 800 trials has width ~0.07, so a broken process fails clearly.
        n, c = 200, 3.5

        def trial(i, rng):
            x = round(n * (c - 1) / 4)
            return run_div_complete(n, {1: n - x, 5: x}, rng=rng).winner

        outcomes = run_trials(800, trial, seed=1)
        prediction = winning_probabilities(c)
        floor_wins = outcomes.count_where(lambda w: w == prediction.floor)
        interval = wilson_interval(floor_wins, 800)
        assert interval.low - 0.02 <= prediction.p_floor <= interval.high + 0.02

    def test_integer_average_almost_surely_wins(self):
        # "w.h.p." is asymptotic; at n=300 the failure rate is already
        # small (it visibly shrinks with n — see experiment E7's control).
        n = 300

        def trial(i, rng):
            # counts with average exactly 3: equal mass at 1 and 5.
            return run_div_complete(n, {1: 100, 3: 100, 5: 100}, rng=rng).winner

        # The deviation of the weight at the two-adjacent time scales as
        # sqrt(T)/n ~ n^-0.35, so convergence of the hit rate to 1 is
        # slow; ~0.8 is the honest finite-size value at n=300.
        outcomes = run_trials(100, trial, seed=2)
        assert outcomes.frequency(lambda w: w == 3) >= 0.7

    def test_works_on_random_regular(self):
        def trial(i, rng):
            graph = random_regular_graph(100, 30, rng=rng)
            opinions = opinions_with_mean(100, 1, 4, 2.5, rng=rng)
            return run_div(graph, opinions, process="vertex", rng=rng).winner

        outcomes = run_trials(40, trial, seed=3)
        assert outcomes.frequency(lambda w: w in (2, 3)) >= 0.9


class TestVertexVsEdgeAverages:
    def test_star_vertex_process_tracks_weighted_average(self):
        graph = star_graph(41)
        opinions = np.ones(41, dtype=np.int64)
        opinions[0] = 5  # weighted average = 3.0, simple average ≈ 1.1

        def vertex_trial(i, rng):
            return run_div(graph, opinions, process="vertex", rng=rng).winner

        def edge_trial(i, rng):
            return run_div(graph, opinions, process="edge", rng=rng).winner

        vertex_mean = np.mean(run_trials(120, vertex_trial, seed=4).outcomes)
        edge_mean = np.mean(run_trials(120, edge_trial, seed=5).outcomes)
        assert vertex_mean == pytest.approx(3.0, abs=0.45)
        assert edge_mean == pytest.approx(45 / 41, abs=0.25)


class TestMartingaleEndToEnd:
    def test_mean_weight_flat_over_runs(self):
        graph = complete_graph(60)
        opinions = uniform_random_opinions(60, 5, rng=0)

        def trial(i, rng):
            trace = WeightTrace("edge", interval=500)
            run_div(
                graph, list(opinions), process="edge", stop="never",
                max_steps=2000, rng=rng, observers=[trace],
            )
            return trace.weights[-1] - trace.weights[0]

        drifts = run_trials(150, trial, seed=6).outcomes
        stderr = np.std(drifts) / math.sqrt(len(drifts))
        assert abs(np.mean(drifts)) <= 4 * max(stderr, 0.5)


class TestPullVotingLaw:
    def test_winner_distribution_tracks_initial_shares(self):
        graph = complete_graph(50)
        opinions = [1] * 35 + [9] * 15

        def trial(i, rng):
            return run_div(graph, opinions, dynamics="pull", rng=rng).winner

        outcomes = run_trials(300, trial, seed=7)
        share_9 = outcomes.frequency(lambda w: w == 9)
        assert wilson_interval(
            outcomes.count_where(lambda w: w == 9), 300
        ).contains(15 / 50) or abs(share_9 - 0.3) < 0.08


class TestDivVsLoadBalancing:
    def test_div_consensus_vs_lb_mixture(self):
        graph = random_regular_graph(120, 12, rng=8)
        opinions = uniform_random_opinions(120, 9, rng=9)
        c = float(np.mean(opinions))

        div = run_div(graph, opinions, process="edge", rng=10)
        lb = run_load_balancing(graph, opinions, rng=11)

        assert div.winner is not None  # single common value
        assert abs(div.winner - c) <= 1.5
        assert lb.state.total_sum == int(opinions.sum())  # exact conservation
        assert 1 <= len(lb.final_support) <= 3
        assert lb.steps < div.steps  # LB contracts much faster


class TestCrossEngineAgreement:
    def test_fast_and_generic_mean_steps_comparable(self):
        n = 50
        counts = {1: 25, 3: 25}
        graph = complete_graph(n)

        fast_steps = run_trials(
            60, lambda i, rng: run_div_complete(n, counts, rng=rng).steps, seed=12
        ).outcomes
        opinions = [1] * 25 + [3] * 25
        generic_steps = run_trials(
            60, lambda i, rng: run_div(graph, opinions, rng=rng).steps, seed=13
        ).outcomes
        ratio = np.mean(fast_steps) / np.mean(generic_steps)
        assert 0.7 < ratio < 1.4
