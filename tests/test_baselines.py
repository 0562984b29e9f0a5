"""Unit tests for the baseline dynamics (repro.baselines)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    opinions_from_set,
    run_load_balancing,
    run_two_opinion_voting,
)
from repro.baselines.load_balancing import is_locally_balanced
from repro.core.div import run_div
from repro.core.dynamics import PullVoting, make_dynamics
from repro.core.engine import run_dynamics
from repro.core.schedulers import make_scheduler
from repro.core.state import OpinionState
from repro.core.stopping import range_at_most
from repro.errors import InvalidOpinionsError
from repro.graphs import complete_graph, path_graph, random_regular_graph, star_graph


@pytest.fixture
def graph():
    return complete_graph(10)


@pytest.fixture
def opinions(rng):
    return rng.integers(1, 5, size=10)


class TestPullPush:
    def test_pull_reaches_consensus_on_initial_value(self, graph, opinions):
        outcome = run_div(graph, opinions, dynamics="pull", rng=1)
        assert outcome.stop_reason == "consensus"
        assert outcome.winner in set(opinions.tolist())
        assert outcome.dynamics == "pull"

    def test_push_reaches_consensus(self, graph, opinions):
        outcome = run_div(graph, opinions, dynamics="push", rng=1)
        assert outcome.stop_reason == "consensus"
        assert outcome.winner in set(opinions.tolist())

    def test_pull_preserves_value_set_membership(self, graph):
        # Pull voting can only ever hold initially-present values.
        outcome = run_div(
            graph, [1, 1, 1, 7, 7, 7, 9, 9, 9, 9], dynamics="pull", rng=2
        )
        assert outcome.winner in (1, 7, 9)


class TestTwoOpinion:
    def test_winner_is_zero_or_one(self, graph):
        result = run_two_opinion_voting(graph, [0, 1, 2], rng=1)
        assert result.winner in (0, 1)
        assert result.one_won == (result.winner == 1)

    def test_prediction_fields(self):
        graph = star_graph(5)
        result = run_two_opinion_voting(graph, [0], process="vertex", rng=1)
        assert result.predicted_p_one == pytest.approx(0.5)
        result = run_two_opinion_voting(graph, [0], process="edge", rng=1)
        assert result.predicted_p_one == pytest.approx(0.2)

    def test_degenerate_sets_rejected(self, graph):
        with pytest.raises(InvalidOpinionsError):
            run_two_opinion_voting(graph, [], rng=1)
        with pytest.raises(InvalidOpinionsError):
            run_two_opinion_voting(graph, list(range(10)), rng=1)

    def test_opinions_from_set(self, graph):
        opinions = opinions_from_set(graph, [2, 5])
        assert opinions.sum() == 2
        assert opinions[2] == opinions[5] == 1

    def test_opinions_from_set_out_of_range(self, graph):
        with pytest.raises(InvalidOpinionsError):
            opinions_from_set(graph, [99])


class TestMedian:
    def test_reaches_consensus(self, graph, opinions):
        outcome = run_div(
            graph, opinions, dynamics="median", rng=1, max_steps=1_000_000
        )
        assert outcome.stop_reason == "consensus"
        assert int(opinions.min()) <= outcome.winner <= int(opinions.max())

    def test_lands_near_median(self, rng):
        graph = complete_graph(60)
        opinions = np.array([1] * 20 + [2] * 25 + [9] * 15)
        winners = []
        for seed in range(20):
            outcome = run_div(
                graph, opinions, dynamics="median", rng=seed, max_steps=2_000_000
            )
            winners.append(outcome.winner)
        # Median is 2; the heavy tail at 9 must not drag the result there.
        assert np.mean(winners) < 4
        assert max(winners, key=winners.count) == 2


class TestBestOfK:
    def test_best_of_two_consensus(self, graph, opinions):
        outcome = run_div(
            graph, opinions, dynamics="best_of_two", rng=1, max_steps=2_000_000
        )
        assert outcome.stop_reason == "consensus"
        assert outcome.winner in set(opinions.tolist())

    def test_best_of_three_consensus(self, graph, opinions):
        outcome = run_div(
            graph, opinions, dynamics="best_of_three", rng=1, max_steps=2_000_000
        )
        assert outcome.stop_reason == "consensus"
        assert outcome.winner in set(opinions.tolist())

    def test_majority_amplification(self):
        # With a 70/30 split on K_n, best-of-two should let the majority
        # win almost always (much more often than pull voting's 0.7).
        graph = complete_graph(40)
        opinions = [1] * 28 + [2] * 12
        wins = sum(
            run_div(
                graph, opinions, dynamics="best_of_two", rng=seed, max_steps=2_000_000
            ).winner
            == 1
            for seed in range(20)
        )
        assert wins >= 18


class TestLoadBalancing:
    def test_conserves_sum_and_contracts(self, rng):
        graph = complete_graph(20)
        loads = rng.integers(1, 30, size=20)
        outcome = run_load_balancing(graph, loads, rng=1)
        assert outcome.state.total_sum == int(loads.sum())
        assert outcome.state.range_width <= 2
        assert outcome.stop_reason.startswith("range<=")

    def test_locally_balanced_detection(self):
        graph = path_graph(4)
        done = run_load_balancing(graph, [1, 1, 2, 2], rng=1)
        assert is_locally_balanced(done.state)

    def test_gradient_state_on_path_is_absorbing(self):
        # 1-2-3 on a path is locally balanced with range 2: the target
        # range<=1 is unreachable, so the budget must stop the run.
        graph = path_graph(3)
        outcome = run_load_balancing(
            graph, [1, 2, 3], target_width=1, rng=1, max_steps=5000
        )
        assert outcome.stop_reason == "max_steps"
        assert is_locally_balanced(outcome.state)
        assert sorted(outcome.state.values.tolist()) == [1, 2, 3]

    def test_integer_average_can_reach_consensus_width_zero(self):
        graph = complete_graph(4)
        outcome = run_load_balancing(graph, [1, 3, 1, 3], target_width=0, rng=2)
        assert outcome.winner == 2


class TestRunBaselineGeneric:
    def test_custom_dynamics_and_stop(self, graph, opinions):
        outcome = run_div(
            graph, opinions, dynamics=PullVoting(), stop="never", max_steps=25, rng=1
        )
        assert outcome.steps == 25
        assert outcome.winner is None or outcome.state.is_consensus
        assert outcome.initial_mean == pytest.approx(float(np.mean(opinions)))


class TestRunDivDynamics:
    # Each row is the engine call a comparison rule's runner makes: rule
    # name, process, stop, step budget and the kernel ``auto`` resolves
    # to (pull and push have ``step_block``). Local majority stalls short
    # of consensus on this graph, so its small budget is what stops it.
    CASES = [
        ("pull", "vertex", "consensus", 1_000_000, "block"),
        ("push", "vertex", "consensus", 1_000_000, "block"),
        ("median", "vertex", "consensus", 1_000_000, "loop"),
        ("best_of_two", "vertex", "consensus", 1_000_000, "loop"),
        ("best_of_three", "vertex", "consensus", 1_000_000, "loop"),
        ("local_majority", "vertex", "consensus", 5_000, "loop"),
        ("load_balancing", "edge", range_at_most(2), 1_000_000, "loop"),
    ]

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize(
        "name, process, stop, max_steps, kernel", CASES, ids=[c[0] for c in CASES]
    )
    def test_matches_direct_engine_run(self, name, process, stop, max_steps, kernel, seed):
        graph = random_regular_graph(24, 4, rng=3)
        opinions = np.random.default_rng(seed).integers(1, 6, size=graph.n)
        state = OpinionState(graph, opinions)
        direct = run_dynamics(
            state,
            make_scheduler(graph, process),
            make_dynamics(name),
            stop=stop,
            rng=seed,
            max_steps=max_steps,
        )
        outcome = run_div(
            graph,
            opinions,
            dynamics=name,
            process=process,
            stop=stop,
            rng=seed,
            max_steps=max_steps,
        )
        assert outcome.dynamics == name
        assert outcome.winner == state.consensus_value()
        assert outcome.steps == direct.steps
        assert outcome.stop_reason == direct.stop_reason
        assert outcome.state.values.tolist() == state.values.tolist()
        assert outcome.kernel == kernel
