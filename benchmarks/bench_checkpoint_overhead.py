"""Checkpoint journaling overhead on Monte-Carlo trial batches.

Runs the same deterministically-seeded, engine-dominated batch three
ways — no campaign, journaled from scratch, and fully-journaled resume —
and a journal-dominated worst case (near-instant trials), serially and
on a two-worker pool. The journal writes one record file per finished
chunk, with one write-then-rename and one fsync: the serial path hands
on chunks of one trial (one fsync per trial, so a kill loses none), the
pool the chunks it dispatched (one fsync per chunk). The serial scratch
round therefore bounds the per-trial cost of the journal, and the pool
pair shows what is left of it per chunk. The resume round shows that
skipping journaled trials makes a warm resume *cheaper* than the plain
run. Outcomes are asserted identical in every round, so the deltas are
pure journal cost.

Compare rounds with ``pytest benchmarks/bench_checkpoint_overhead.py``.
"""

import shutil
import tempfile

from repro.analysis.montecarlo import run_trials
from repro.checkpoint import CheckpointJournal, campaign
from repro.core.fast_complete import run_div_complete

_TRIALS = 32
_N = 500
_SEED = 123
#: Worker count of the pool leg.
_POOL_WORKERS = 2

_serial_outcomes = None


def engine_trial(index, rng):
    """One reduction run on K_n — the workload that dominates E1/E3/E4."""
    half = _N // 2
    result = run_div_complete(
        _N, {1: _N - half, 5: half}, stop="two_adjacent", rng=rng
    )
    return result.two_adjacent_step


def draw_trial(index, rng):
    """A near-instant trial: upper-bounds the relative journal overhead."""
    return int(rng.integers(0, 1 << 30))


def _serial_baseline():
    global _serial_outcomes
    if _serial_outcomes is None:
        _serial_outcomes = run_trials(_TRIALS, engine_trial, seed=_SEED).outcomes
    return _serial_outcomes


def _journal(directory):
    journal = CheckpointJournal(directory)
    journal.open(fingerprint="bench", resume=True)
    return journal


def _run_plain(workers=None):
    batch = run_trials(_TRIALS, engine_trial, seed=_SEED, workers=workers)
    assert batch.outcomes == _serial_baseline()


def _run_journaled(trial, expected=None, workers=None):
    workdir = tempfile.mkdtemp(prefix="bench-ckpt-")
    try:
        with campaign(_journal(workdir)):
            batch = run_trials(_TRIALS, trial, seed=_SEED, workers=workers)
        if expected is not None:
            assert batch.outcomes == expected
    finally:
        shutil.rmtree(workdir)


def test_trials_no_checkpoint(benchmark):
    benchmark.extra_info.update(trials=_TRIALS, n=_N, journal="off")
    benchmark.pedantic(_run_plain, rounds=3, iterations=1)


def test_trials_journaled(benchmark):
    benchmark.extra_info.update(trials=_TRIALS, n=_N, journal="scratch")
    benchmark.pedantic(
        lambda: _run_journaled(engine_trial, _serial_baseline()),
        rounds=3,
        iterations=1,
    )


def test_pool_trials_no_checkpoint(benchmark):
    benchmark.extra_info.update(
        trials=_TRIALS, n=_N, journal="off", workers=_POOL_WORKERS
    )
    benchmark.pedantic(
        lambda: _run_plain(_POOL_WORKERS), rounds=3, iterations=1
    )


def test_pool_trials_journaled(benchmark):
    benchmark.extra_info.update(
        trials=_TRIALS, n=_N, journal="scratch", workers=_POOL_WORKERS
    )
    benchmark.pedantic(
        lambda: _run_journaled(engine_trial, _serial_baseline(), _POOL_WORKERS),
        rounds=3,
        iterations=1,
    )


def test_trials_journaled_instant_trials(benchmark):
    benchmark.extra_info.update(trials=_TRIALS, n=_N, journal="instant-trials")
    benchmark.pedantic(lambda: _run_journaled(draw_trial), rounds=3, iterations=1)


def test_trials_resume_fully_journaled(benchmark):
    workdir = tempfile.mkdtemp(prefix="bench-ckpt-")
    try:
        with campaign(_journal(workdir)):
            run_trials(_TRIALS, engine_trial, seed=_SEED)

        def resume_once():
            with campaign(_journal(workdir)):
                batch = run_trials(_TRIALS, engine_trial, seed=_SEED)
            assert batch.outcomes == _serial_baseline()

        benchmark.extra_info.update(trials=_TRIALS, n=_N, journal="resume")
        benchmark.pedantic(resume_once, rounds=3, iterations=1)
    finally:
        shutil.rmtree(workdir)
