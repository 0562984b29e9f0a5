"""Unit tests for repro.analysis.montecarlo and repro.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import run_trials, run_trials_over
from repro.checkpoint import campaign
from repro.core.div import run_div
from repro.errors import AnalysisError
from repro.graphs import complete_graph
from repro.obs.log import EventLog, read_log, recording
from repro.obs.views import summarize
from repro.rng import derive_seed, iter_rngs, make_rng, spawn_rngs


class TestRngUtilities:
    def test_make_rng_passthrough(self):
        # A raw Generator built outside make_rng is the point of this test.
        gen = np.random.default_rng(3)
        assert make_rng(gen) is gen

    def test_make_rng_from_int_deterministic(self):
        assert make_rng(5).integers(0, 100) == make_rng(5).integers(0, 100)

    def test_spawn_independent_and_deterministic(self):
        first = [g.integers(0, 1 << 30) for g in spawn_rngs(7, 4)]
        second = [g.integers(0, 1 << 30) for g in spawn_rngs(7, 4)]
        assert first == second
        assert len(set(first)) == 4  # streams differ from each other

    def test_spawn_count_validation(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_from_generator(self):
        gens = spawn_rngs(make_rng(1), 3)
        assert len(gens) == 3

    def test_iter_rngs(self):
        stream = iter_rngs(9)
        a = next(stream).integers(0, 1 << 30)
        b = next(stream).integers(0, 1 << 30)
        assert a != b

    def test_derive_seed_stable(self):
        assert derive_seed(3, 1, 2) == derive_seed(3, 1, 2)
        assert derive_seed(3, 1, 2) != derive_seed(3, 2, 1)


class TestRunTrials:
    def test_collects_outcomes(self):
        outcomes = run_trials(5, lambda i, rng: i * 10, seed=0)
        assert outcomes.outcomes == [0, 10, 20, 30, 40]
        assert outcomes.count == 5

    def test_trials_get_independent_rngs(self):
        draws = run_trials(6, lambda i, rng: int(rng.integers(0, 1 << 30)), seed=1)
        assert len(set(draws.outcomes)) == 6

    def test_deterministic_given_seed(self):
        a = run_trials(4, lambda i, rng: int(rng.integers(0, 100)), seed=2)
        b = run_trials(4, lambda i, rng: int(rng.integers(0, 100)), seed=2)
        assert a.outcomes == b.outcomes

    def test_frequency_and_count_where(self):
        outcomes = run_trials(10, lambda i, rng: i % 2, seed=0)
        assert outcomes.frequency(lambda x: x == 1) == pytest.approx(0.5)
        assert outcomes.count_where(lambda x: x == 0) == 5

    def test_map(self):
        outcomes = run_trials(3, lambda i, rng: i, seed=0)
        assert outcomes.map(lambda x: x + 1) == [1, 2, 3]

    def test_validation(self):
        with pytest.raises(AnalysisError):
            run_trials(0, lambda i, rng: None)


def div_trial(index, rng):
    return run_div(complete_graph(12), rng.integers(0, 4, 12), rng=rng).steps


class TestInProcessTracing:
    @pytest.mark.parametrize(
        "workers, executor",
        [(None, None), (1, None), (None, "serial")],
        ids=["default", "one-worker", "serial"],
    )
    def test_every_engine_run_is_logged(self, tmp_path, workers, executor):
        with recording(EventLog(tmp_path)), campaign(executor=executor):
            trials = run_trials(4, div_trial, seed=0, workers=workers)
        records = read_log(tmp_path).records
        spans = [
            record
            for record in records
            if record["kind"] == "span" and record["name"] == "engine.run"
        ]
        assert len(spans) == 4
        assert summarize(records).total_steps == sum(trials.outcomes)


class TestRunTrialsOver:
    def test_parameter_batches(self):
        results = run_trials_over(
            ["a", "b"], 3, lambda p, i, rng: f"{p}{i}", seed=0
        )
        assert [p for p, _ in results] == ["a", "b"]
        assert results[0][1].outcomes == ["a0", "a1", "a2"]

    def test_adding_parameters_keeps_existing_streams(self):
        def trial(p, i, rng):
            return int(rng.integers(0, 1 << 30))

        short = run_trials_over([1, 2], 3, trial, seed=5)
        longer = run_trials_over([1, 2, 3], 3, trial, seed=5)
        assert short[0][1].outcomes == longer[0][1].outcomes
        assert short[1][1].outcomes == longer[1][1].outcomes

    def test_validation(self):
        with pytest.raises(AnalysisError):
            run_trials_over([1], 0, lambda p, i, rng: None)
