"""Observability overhead on the hot engine loops (repro.obs).

Runs the same fixed-step engine workload bare and under an installed
event log, for both the generic scheduler engine and the complete-graph
count engine. The bare rounds are the acceptance baseline: with no log
installed the instrumentation must stay within noise (budget: <= 2% —
see docs/observability.md for recorded numbers). The logged rounds
price what `--trace-dir` actually costs.

The trial-level rounds price the campaign log the same way: a
``run_trials`` batch bare versus writing a live event log
(``--telemetry``), so the committed snapshots catch both an engine-level
and a log-level regression. The ``*_with_tracing`` and
``*_with_telemetry`` names predate the one log and are kept so
``bench compare`` pairs them with the committed snapshots.

Compare rounds with ``pytest benchmarks/bench_obs_overhead.py``.
"""

import tempfile
from contextlib import contextmanager

from repro.analysis import uniform_random_opinions
from repro.analysis.montecarlo import run_trials
from repro.core import IncrementalVoting, OpinionState, run_div_complete, run_dynamics
from repro.core.schedulers import VertexScheduler
from repro.graphs import random_regular_graph
from repro.obs import EventLog, recording

_STEPS = 100_000
_N = 1000
_D = 10


@contextmanager
def _logging():
    """Install a fresh event log in a throwaway directory."""
    with tempfile.TemporaryDirectory() as scratch:
        with recording(EventLog(scratch)):
            yield


def _run_generic(graph):
    opinions = uniform_random_opinions(graph.n, 5, rng=0)
    state = OpinionState(graph, opinions)
    result = run_dynamics(
        state,
        VertexScheduler(graph),
        IncrementalVoting(),
        stop="never",
        rng=1,
        max_steps=_STEPS,
    )
    assert result.steps == _STEPS
    return result


def _run_complete():
    result = run_div_complete(
        2000, {1: 1000, 5: 1000}, max_steps=_STEPS, stop="two_adjacent", rng=1
    )
    assert result.steps <= _STEPS
    return result


def test_generic_engine_bare(benchmark):
    graph = random_regular_graph(_N, _D, rng=0)
    benchmark.extra_info.update(engine="generic", obs="off", n=_N, d=_D, steps=_STEPS)
    benchmark.pedantic(lambda: _run_generic(graph), rounds=3, iterations=1)


def test_generic_engine_with_tracing(benchmark):
    graph = random_regular_graph(_N, _D, rng=0)
    benchmark.extra_info.update(engine="generic", obs="tracing", n=_N, d=_D, steps=_STEPS)

    def run():
        with _logging():
            return _run_generic(graph)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_complete_engine_bare(benchmark):
    benchmark.extra_info.update(engine="complete", obs="off", n=2000, steps=_STEPS)
    benchmark.pedantic(_run_complete, rounds=3, iterations=1)


def test_complete_engine_with_tracing(benchmark):
    benchmark.extra_info.update(engine="complete", obs="tracing", n=2000, steps=_STEPS)

    def run():
        with _logging():
            return _run_complete()

    benchmark.pedantic(run, rounds=3, iterations=1)


_TRIALS = 64


def _telemetry_trial(index, rng):
    return int(rng.integers(0, 1 << 30))


def _run_batch():
    batch = run_trials(_TRIALS, _telemetry_trial, seed=11)
    assert len(batch.outcomes) == _TRIALS
    return batch


def test_trials_bare(benchmark):
    benchmark.extra_info.update(layer="trials", obs="off", trials=_TRIALS)
    benchmark.pedantic(_run_batch, rounds=3, iterations=1)


def test_trials_with_telemetry(benchmark):
    benchmark.extra_info.update(layer="trials", obs="telemetry", trials=_TRIALS)

    def run():
        with _logging():
            return _run_batch()

    benchmark.pedantic(run, rounds=3, iterations=1)
