"""Serial vs parallel Monte-Carlo trial dispatch (wall-clock speedup).

Runs the same deterministically-seeded, engine-dominated trial batch
serially and across 2/4 worker processes. The parallel runs are asserted
bit-for-bit identical to the serial one, so the benchmark's delta is
pure dispatch overhead vs multi-core speedup: on a multi-core runner the
4-worker round should come in at >= 2x the serial throughput, while a
single-core runner only shows the pool overhead.

Compare rounds with ``pytest benchmarks/bench_parallel_trials.py``.
"""

from repro.analysis.montecarlo import run_trials
from repro.core.fast_complete import run_div_complete

_TRIALS = 32
_N = 500
_SEED = 123

_serial_outcomes = None


def engine_trial(index, rng):
    """One reduction run on K_n — the workload that dominates E1/E3/E4."""
    half = _N // 2
    result = run_div_complete(
        _N, {1: _N - half, 5: half}, stop="two_adjacent", rng=rng
    )
    return result.two_adjacent_step


def _serial_baseline():
    global _serial_outcomes
    if _serial_outcomes is None:
        _serial_outcomes = run_trials(_TRIALS, engine_trial, seed=_SEED).outcomes
    return _serial_outcomes


def _run_batch(workers):
    batch = run_trials(_TRIALS, engine_trial, seed=_SEED, workers=workers)
    assert batch.outcomes == _serial_baseline()
    return batch


def test_trials_serial(benchmark):
    benchmark.extra_info.update(trials=_TRIALS, n=_N, workers=0)
    benchmark.pedantic(lambda: _run_batch(None), rounds=3, iterations=1)


def test_trials_parallel_2_workers(benchmark):
    benchmark.extra_info.update(trials=_TRIALS, n=_N, workers=2)
    benchmark.pedantic(lambda: _run_batch(2), rounds=3, iterations=1)


def test_trials_parallel_4_workers(benchmark):
    benchmark.extra_info.update(trials=_TRIALS, n=_N, workers=4)
    benchmark.pedantic(lambda: _run_batch(4), rounds=3, iterations=1)
