"""Unit tests for the high-level DIV API (repro.core.div)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import WeightTrace, run_div
from repro.core.div import counts_to_opinions, expected_consensus_average
from repro.core.observers import ChangeLog
from repro.errors import ProcessError
from repro.graphs import complete_graph, star_graph


class TestRunDiv:
    def test_consensus_run(self, small_complete, rng):
        opinions = rng.integers(1, 4, size=small_complete.n)
        result = run_div(small_complete, opinions, rng=1)
        assert result.stop_reason == "consensus"
        assert result.winner is not None
        assert result.final_support == [result.winner]
        assert int(opinions.min()) <= result.winner <= int(opinions.max())
        assert result.two_adjacent_step is not None
        assert result.two_adjacent_step <= result.steps
        assert result.initial_mean == pytest.approx(float(np.mean(opinions)))

    def test_two_adjacent_stop(self, small_complete, rng):
        opinions = rng.integers(1, 6, size=small_complete.n)
        result = run_div(small_complete, opinions, stop="two_adjacent", rng=1)
        if result.stop_reason == "two_adjacent":
            assert result.winner is None or result.state.is_consensus
        assert result.state.is_two_adjacent

    def test_max_steps_budget(self, small_complete):
        opinions = [1, 1, 1, 1, 5, 5, 5, 5]
        result = run_div(
            small_complete, opinions, stop="never", max_steps=13, rng=1
        )
        assert result.steps == 13
        assert result.stop_reason == "max_steps"
        assert result.winner is None

    def test_negative_max_steps_rejected(self, small_complete):
        with pytest.raises(ProcessError, match="max_steps"):
            run_div(small_complete, [1, 2] * 4, max_steps=-5, rng=1)

    def test_zero_max_steps_is_legal(self, small_complete):
        result = run_div(small_complete, [1, 2] * 4, max_steps=0, rng=1)
        assert (result.steps, result.stop_reason) == (0, "max_steps")

    def test_deterministic(self, small_complete):
        opinions = [1, 2, 3, 4, 1, 2, 3, 4]
        a = run_div(small_complete, opinions, rng=5)
        b = run_div(small_complete, opinions, rng=5)
        assert (a.winner, a.steps, a.two_adjacent_step) == (
            b.winner,
            b.steps,
            b.two_adjacent_step,
        )

    def test_observers_threaded_through(self, small_complete):
        trace = WeightTrace("edge", interval=1)
        run_div(
            small_complete,
            [1, 1, 2, 2, 3, 3, 4, 4],
            rng=2,
            observers=[trace],
        )
        assert len(trace.steps) >= 2
        # Weight changes by at most one per step (DIV moves ±1).
        assert np.all(np.abs(np.diff(trace.weights)) <= 1.0)

    @pytest.mark.parametrize(
        "options, kernel, reason",
        [
            ({"kernel": "loop"}, "loop", "kernel='loop'"),
            ({}, "block", "auto: dynamics has step_block"),
            (
                {"observers": [ChangeLog()]},
                "loop",
                "change observer is not a timeline observer",
            ),
        ],
        ids=["explicit-loop", "auto-block", "change-observer"],
    )
    def test_kernel_recorded(self, small_complete, options, kernel, reason):
        result = run_div(small_complete, [1, 2, 3, 4] * 2, rng=5, **options)
        assert result.kernel == kernel
        assert result.kernel_reason.endswith(reason)

    def test_weighted_mean_reported(self):
        graph = star_graph(5)
        result = run_div(graph, [5, 1, 1, 1, 1], rng=3)
        assert result.initial_mean == pytest.approx(9 / 5)
        assert result.initial_weighted_mean == pytest.approx(3.0)

    def test_opinions_stay_in_initial_range(self, small_complete):
        result = run_div(
            small_complete, [2, 2, 2, 4, 4, 4, 4, 4], stop="never", max_steps=500, rng=4
        )
        values = result.state.values
        assert values.min() >= 2
        assert values.max() <= 4


class TestHelpers:
    def test_expected_consensus_average(self):
        graph = star_graph(5)
        opinions = [5, 1, 1, 1, 1]
        assert expected_consensus_average(graph, opinions, "edge") == pytest.approx(1.8)
        assert expected_consensus_average(graph, opinions, "vertex") == pytest.approx(3.0)

    def test_counts_to_opinions(self):
        assert counts_to_opinions({2: 3, 1: 1}) == [1, 2, 2, 2]
        assert counts_to_opinions({}) == []


class TestConsensusIsAbsorbing:
    def test_consensus_persists(self, small_complete):
        result = run_div(
            small_complete, [3] * 8, stop="never", max_steps=200, rng=0
        )
        assert result.state.is_consensus
        assert result.state.consensus_value() == 3
