"""Tests for repro.parallel and the ``workers=`` Monte-Carlo path.

The trial functions live at module level so the worker processes can
unpickle them — the same requirement production callers have.
"""

from __future__ import annotations

import functools
import os
import select
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.analysis.montecarlo import run_trials, run_trials_over
from repro.checkpoint import campaign
from repro.core.fast_complete import run_div_complete
from repro.errors import AnalysisError
from repro.parallel import (
    TrialTimings,
    WorkerStats,
    execute_tasks,
    summarize_timings,
)
from repro.rng import spawn_seed_sequences


def draw_trial(index, rng):
    return int(rng.integers(0, 1 << 30))


def engine_trial(index, rng):
    """A trial dominated by engine time, as in the experiment drivers."""
    result = run_div_complete(60, {1: 30, 3: 30}, rng=rng)
    return (result.winner, result.steps)


def parameter_trial(parameter, index, rng):
    return (parameter, index, int(rng.integers(0, 1 << 30)))


def failing_trial(index, rng):
    raise ValueError("trial bug")


def crashing_trial(main_pid, index, rng):
    # Kills the worker process outright; harmless in-process because the
    # fallback path runs in the parent, whose pid equals ``main_pid``.
    if os.getpid() != main_pid:
        os._exit(13)
    return index


def tail_sleepy_trial(main_pid, slow_from, index, rng):
    if os.getpid() != main_pid and index >= slow_from:
        time.sleep(0.3)
    return index


def sleepy_trial(main_pid, index, rng):
    if os.getpid() != main_pid:
        time.sleep(5.0)
    return index


#: Starts a two-worker pool round of 60 s naps in a background thread,
#: prints the pids of the workers once both are inside a trial, then
#: SIGKILLs itself, orphaning the workers mid-trial.
ORPHAN_LAUNCHER = """
import os, signal, sys, threading, time
from repro.parallel import execute_tasks
from repro.rng import spawn_seed_sequences

def nap(directory, index, rng):
    open(os.path.join(directory, str(os.getpid())), "w").close()
    time.sleep(60)
    return index

if __name__ == "__main__":
    directory = sys.argv[1]
    seeds = spawn_seed_sequences(0, 4)
    tasks = [(i, (directory, i), seeds[i]) for i in range(4)]
    threading.Thread(
        target=execute_tasks, args=(nap, tasks, 2), kwargs={"chunk_size": 1},
        daemon=True,
    ).start()
    deadline = time.monotonic() + 60
    while len(os.listdir(directory)) < 2 and time.monotonic() < deadline:
        time.sleep(0.05)
    print(*os.listdir(directory), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
"""


def read_until(fd, done, seconds):
    """Read ``fd`` until ``done(data, eof)`` holds or ``seconds`` pass."""
    deadline = time.monotonic() + seconds
    data, eof = b"", False
    while not done(data, eof):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            break
        chunk = os.read(fd, 4096)
        data, eof = data + chunk, not chunk
    return data, eof


class TestSerialParallelEquivalence:
    def test_run_trials_equivalence_engine_trial(self):
        serial = run_trials(8, engine_trial, seed=123)
        for workers in (2, 4):
            parallel = run_trials(8, engine_trial, seed=123, workers=workers)
            assert parallel.outcomes == serial.outcomes

    def test_run_trials_equivalence_raw_draws(self):
        serial = run_trials(16, draw_trial, seed=7)
        parallel = run_trials(16, draw_trial, seed=7, workers=2)
        assert parallel.outcomes == serial.outcomes

    def test_run_trials_over_equivalence(self):
        serial = run_trials_over(["a", "b", "c"], 5, parameter_trial, seed=3)
        parallel = run_trials_over(
            ["a", "b", "c"], 5, parameter_trial, seed=3, workers=2
        )
        assert [(p, ts.outcomes) for p, ts in serial] == [
            (p, ts.outcomes) for p, ts in parallel
        ]

    def test_chunk_size_equivalence(self):
        serial = run_trials(10, draw_trial, seed=11)
        seeds = spawn_seed_sequences(11, 10)
        tasks = [(i, (i,), seeds[i]) for i in range(10)]
        for chunk_size in (1, 3, 10):
            records, _ = execute_tasks(draw_trial, tasks, 2, chunk_size=chunk_size)
            assert [r.outcome for r in records] == serial.outcomes

    def test_workers_one_equivalence_in_process(self):
        serial = run_trials(6, draw_trial, seed=2)
        instrumented = run_trials(6, draw_trial, seed=2, workers=1)
        assert instrumented.outcomes == serial.outcomes
        assert instrumented.timings is not None
        assert instrumented.timings.mode == "serial"
        assert instrumented.timings.executor == "serial"
        assert instrumented.executor == "serial"
        assert serial.executor == "serial"


class TestObservability:
    def test_timings_attached_and_complete(self):
        batch = run_trials(8, draw_trial, seed=1, workers=2)
        timings = batch.timings
        assert timings.mode == "parallel"
        assert timings.requested_workers == 2
        assert len(timings.trial_seconds) == 8
        assert all(seconds >= 0.0 for seconds in timings.trial_seconds)
        assert sum(stat.trials for stat in timings.worker_stats) == 8
        assert "workers=2" in timings.summary()
        assert timings.executor == "pool"
        assert "executor=pool" in timings.summary()
        assert batch.executor == "pool"

    def test_serial_path_has_no_timings(self):
        assert run_trials(3, draw_trial, seed=1).timings is None

    def test_run_trials_over_slices_timings(self):
        batches = run_trials_over([1, 2], 4, parameter_trial, seed=0, workers=2)
        for _, trial_set in batches:
            assert trial_set.timings is not None
            assert len(trial_set.timings.trial_seconds) == 4

    def test_worker_stats_throughput(self):
        stats = WorkerStats(worker="pid-1", trials=4, busy_seconds=2.0)
        assert stats.throughput == pytest.approx(2.0)
        assert WorkerStats(worker="pid-1", trials=1, busy_seconds=0.0).throughput == float(
            "inf"
        )

    def test_summarize_timings(self):
        assert summarize_timings([None, None]) is None
        batches = run_trials_over([1, 2], 3, parameter_trial, seed=0, workers=2)
        line = summarize_timings([ts.timings for _, ts in batches])
        assert "6 trials" in line
        assert "workers=2" in line


class TestRobustness:
    def test_unpicklable_trial_raises_analysis_error(self):
        with pytest.raises(AnalysisError, match="not picklable"):
            run_trials(4, lambda i, rng: i, seed=0, workers=2)

    def test_unpicklable_task_args_raise_analysis_error(self):
        tasks = [(0, (lambda: None,), spawn_seed_sequences(0, 1)[0])]
        with pytest.raises(AnalysisError, match="arguments are not picklable"):
            execute_tasks(draw_trial, tasks, 2)

    def test_trial_exceptions_propagate(self):
        with pytest.raises(ValueError, match="trial bug"):
            run_trials(4, failing_trial, seed=0, workers=2)

    def test_worker_crash_falls_back_in_process(self):
        trial = functools.partial(crashing_trial, os.getpid())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with campaign(max_retries=1):
                batch = run_trials(6, trial, seed=0, workers=2)
        assert batch.outcomes == list(range(6))
        assert batch.timings.mode == "fallback"
        assert batch.timings.retries == 1
        assert batch.timings.fallback_trials == 6
        # The resolved executor records the degradation path itself,
        # not just its side effects.
        assert batch.timings.executor == "pool->serial"
        assert batch.executor == "pool->serial"
        assert any(
            issubclass(w.category, RuntimeWarning)
            and "falling back to in-process" in str(w.message)
            for w in caught
        )

    def test_chunk_timeout_falls_back_in_process(self):
        trial = functools.partial(sleepy_trial, os.getpid())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with campaign(timeout=0.2, max_retries=0):
                batch = run_trials(2, trial, seed=0, workers=2)
        assert batch.outcomes == [0, 1]
        assert batch.timings.mode == "fallback"
        assert batch.timings.executor == "pool->serial"
        assert caught

    def test_round_timeout_is_a_shared_deadline(self):
        # Six one-task chunks (the default split of six tasks over two
        # workers) of 5s sleepers with a 0.5s round budget: the round
        # must give up ~0.5s after it starts (the in-process fallback
        # is instant — sleepy_trial only sleeps in workers). The old
        # per-future semantics handed every wait the full 0.5s budget
        # again, so draining the six futures took ~3s before the
        # fallback even began.
        trial = functools.partial(sleepy_trial, os.getpid())
        started = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with campaign(timeout=0.5, max_retries=0):
                batch = run_trials(6, trial, seed=0, workers=2)
        elapsed = time.perf_counter() - started
        assert batch.outcomes == list(range(6))
        assert batch.timings.mode == "fallback"
        assert elapsed < 2.5  # one shared 0.5s deadline + pool startup

    def test_workers_exit_when_launcher_is_killed(self, tmp_path):
        # Every worker inherits the launcher's stdout pipe, so EOF on it
        # means every worker has exited — reaped or not.
        script, pid_dir = tmp_path / "launcher.py", tmp_path / "pids"
        script.write_text(ORPHAN_LAUNCHER)
        pid_dir.mkdir()
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        launcher = subprocess.Popen(
            [sys.executable, str(script), str(pid_dir)],
            stdout=subprocess.PIPE,
            env=env,
        )
        fd = launcher.stdout.fileno()
        pids, exited = [], False
        try:
            line, _ = read_until(fd, lambda data, eof: b"\n" in data or eof, 120)
            pids = [int(pid) for pid in line.split()]
            assert len(pids) == 2
            _, exited = read_until(fd, lambda data, eof: eof, 10.0)
            assert exited, f"pool workers {pids} outlived their killed launcher"
        finally:
            if not exited:
                for pid in pids:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            launcher.kill()
            launcher.stdout.close()
            launcher.wait()


class TestRecordStreaming:
    def test_on_chunk_sees_every_trial_in_process(self):
        tasks = [
            (i, (i,), seed)
            for i, seed in enumerate(spawn_seed_sequences(0, 5))
        ]
        chunks = []
        records, _ = execute_tasks(
            draw_trial,
            tasks,
            1,
            on_chunk=lambda chunk: chunks.append([r.index for r in chunk]),
        )
        # The serial path hands on one-trial chunks: a kill loses none.
        assert chunks == [[i] for i in range(5)]
        assert [r.index for r in records] == list(range(5))

    def test_on_chunk_sees_every_trial_parallel(self):
        tasks = [
            (i, (i,), seed)
            for i, seed in enumerate(spawn_seed_sequences(0, 8))
        ]
        chunks = []
        records, _ = execute_tasks(
            draw_trial,
            tasks,
            2,
            chunk_size=3,
            on_chunk=lambda chunk: chunks.append([r.index for r in chunk]),
        )
        # One call per dispatched chunk, in submission order.
        assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7]]
        assert [r.index for r in records] == list(range(8))

    def test_pool_hands_on_each_chunk_as_it_finishes(self):
        # One worker, eight one-trial chunks, only the last two slow.
        # The first six must reach on_chunk (the checkpoint journal)
        # while the slow tail still runs, not when the round ends — a
        # campaign killed during the tail keeps them.
        tasks = [
            (i, (i,), seed)
            for i, seed in enumerate(spawn_seed_sequences(0, 8))
        ]
        arrivals = []
        execute_tasks(
            functools.partial(tail_sleepy_trial, os.getpid(), 6),
            tasks,
            1,
            chunk_size=1,
            executor="pool",
            on_chunk=lambda chunk: arrivals.extend(
                (r.index, time.perf_counter()) for r in chunk
            ),
        )
        finished = time.perf_counter()
        assert [index for index, _ in arrivals] == list(range(8))
        assert finished - arrivals[5][1] >= 0.45


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(AnalysisError):
            run_trials(4, draw_trial, seed=0, workers=0)

    def test_chunk_size_must_be_positive(self):
        tasks = [(0, (0,), spawn_seed_sequences(0, 1)[0])]
        with pytest.raises(AnalysisError):
            execute_tasks(draw_trial, tasks, 2, chunk_size=0)

    def test_max_retries_must_be_non_negative(self):
        with pytest.raises(AnalysisError):
            with campaign(max_retries=-1):
                run_trials(4, draw_trial, seed=0, workers=2)

    def test_timings_defaults(self):
        timings = TrialTimings(mode="serial", requested_workers=1, total_seconds=0.0)
        assert timings.trial_count == 0
        assert timings.mean_trial_seconds == pytest.approx(0.0)
