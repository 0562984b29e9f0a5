"""Tests for executor selection in ``repro.parallel.execute_tasks``.

Name validation and explicit ``serial``/``pool`` selection through the
ambient campaign session, the one place the Monte-Carlo drivers read it.
"""

from __future__ import annotations

import pytest

from repro.analysis.montecarlo import run_trials, run_trials_over
from repro.checkpoint import campaign
from repro.errors import AnalysisError
from repro.parallel import execute_tasks
from repro.rng import spawn_seed_sequences


def indexed_trial(index, rng):
    return (index, int(rng.integers(0, 1 << 30)))


def parameter_trial(parameter, index, rng):
    return (parameter, index, int(rng.integers(0, 1 << 30)))


class TestExecutorNames:
    def test_unknown_executor_rejected(self):
        tasks = [(0, (0,), spawn_seed_sequences(0, 1)[0])]
        with pytest.raises(
            AnalysisError,
            match=r"unknown executor 'warp' \(known: auto, pool, serial\)",
        ):
            execute_tasks(indexed_trial, tasks, 1, executor="warp")

    def test_unknown_executor_rejected_from_driver(self):
        with pytest.raises(AnalysisError, match="unknown executor"):
            with campaign(executor="warp"):
                run_trials(3, indexed_trial, seed=0)


class TestExplicitSelection:
    def test_explicit_serial_routes_through_dispatch(self):
        plain = run_trials(6, indexed_trial, seed=3)
        with campaign(executor="serial"):
            explicit = run_trials(6, indexed_trial, seed=3)
        assert explicit.outcomes == plain.outcomes
        assert explicit.executor == "serial"
        assert explicit.timings is not None  # instrumented, unlike plain
        assert explicit.timings.executor == "serial"

    def test_explicit_pool_without_workers(self):
        plain = run_trials(6, indexed_trial, seed=3)
        with campaign(executor="pool"):
            pooled = run_trials(6, indexed_trial, seed=3)
        assert pooled.outcomes == plain.outcomes
        assert pooled.executor == "pool"

    def test_session_executor_is_picked_up(self):
        plain = run_trials(5, indexed_trial, seed=9)
        with campaign(executor="serial"):
            inherited = run_trials(5, indexed_trial, seed=9)
        assert inherited.executor == "serial"
        assert inherited.outcomes == plain.outcomes

    def test_run_trials_over_explicit_executor(self):
        plain = run_trials_over([2, 5], 4, parameter_trial, seed=1)
        with campaign(executor="serial"):
            explicit = run_trials_over([2, 5], 4, parameter_trial, seed=1)
        for (_, expected), (_, actual) in zip(plain, explicit):
            assert actual.outcomes == expected.outcomes
            assert actual.executor == "serial"
            assert actual.timings.executor == "serial"
