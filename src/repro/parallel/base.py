"""Shared types and worker-side helpers of the trial dispatcher.

The task/record/timings dataclasses, the picklability and chunking
helpers, and :func:`_run_task_chunk` — the single function that ever
executes trials, whether in-process (the serial executor and the
pool's fallback) or inside a pool worker (through
:func:`_run_pooled_chunk`). Keeping one execution function is what
makes the serial-equivalence guarantee hold for every path: each runs
``trial(*args, make_rng(seed))`` on the very seed sequence the parent
spawned.

In-process trials run under the launcher's own event log, profiler and
kernel choice. Only a pool worker hides the log and profiler copies it
inherits through ``fork`` and installs the launcher's kernel choice,
all in :func:`_run_pooled_chunk`.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels import use_kernel
from repro.errors import AnalysisError
from repro.faults import FaultPlan
from repro.obs.log import suspended as log_suspended
from repro.obs.profile import suspended as profiling_suspended
from repro.rng import make_rng

#: Default number of retry rounds after a worker crash or round timeout.
DEFAULT_MAX_RETRIES = 2

#: Chunks dispatched per worker (smaller chunks balance load, larger ones
#: amortize pickling); the default splits the task list into
#: ``workers * DEFAULT_CHUNKS_PER_WORKER`` chunks.
DEFAULT_CHUNKS_PER_WORKER = 4

#: One unit of work: ``trial(*args, make_rng(trial_seed))``.
TrialTask = Tuple[int, tuple, np.random.SeedSequence]

@dataclass(frozen=True)
class TrialRecord:
    """One executed trial: its outcome plus execution metadata."""

    index: int
    outcome: object
    seconds: float
    worker: str


@dataclass(frozen=True)
class WorkerStats:
    """Aggregate throughput of one worker process."""

    worker: str
    trials: int
    busy_seconds: float

    @property
    def throughput(self) -> float:
        """Trials per second of busy time (``inf`` for instant trials)."""
        if self.busy_seconds <= 0.0:
            return float("inf")
        return self.trials / self.busy_seconds


@dataclass
class TrialTimings:
    """Timing metadata of one trial batch.

    Attributes
    ----------
    mode:
        ``"serial"`` (no pool was used), ``"parallel"`` (all trials ran in
        workers) or ``"fallback"`` (some trials fell back in-process).
    executor:
        The resolved executor, including any degradation path —
        ``"serial"``, ``"pool"`` or ``"pool->serial"`` (retry budget
        exhausted). Mirrors ``RunResult.kernel``.
    requested_workers:
        The ``workers`` argument the batch was run with.
    total_seconds:
        Wall-clock time of the whole batch (shared by every per-parameter
        slice of a ``run_trials_over`` batch).
    trial_seconds:
        Per-trial wall-time, in trial order.
    worker_stats:
        Per-worker trial counts and busy time, sorted by worker label.
    retries:
        Number of retry rounds that were needed.
    fallback_trials:
        Number of trials that ran in-process after the retry budget.
    """

    mode: str
    requested_workers: int
    total_seconds: float
    trial_seconds: List[float] = field(default_factory=list)
    worker_stats: List[WorkerStats] = field(default_factory=list)
    retries: int = 0
    fallback_trials: int = 0
    executor: Optional[str] = None

    @classmethod
    def from_records(
        cls,
        records: Sequence[TrialRecord],
        *,
        mode: str,
        requested_workers: int,
        total_seconds: float,
        retries: int = 0,
        fallback_trials: int = 0,
        executor: Optional[str] = None,
    ) -> "TrialTimings":
        """Aggregate executed-trial records into a timings object."""
        per_worker: Dict[str, List[float]] = {}
        for record in records:
            per_worker.setdefault(record.worker, []).append(record.seconds)
        stats = [
            WorkerStats(worker=label, trials=len(secs), busy_seconds=sum(secs))
            for label, secs in sorted(per_worker.items())
        ]
        return cls(
            mode=mode,
            requested_workers=requested_workers,
            total_seconds=total_seconds,
            trial_seconds=[record.seconds for record in records],
            worker_stats=stats,
            retries=retries,
            fallback_trials=fallback_trials,
            executor=executor,
        )

    @property
    def trial_count(self) -> int:
        return len(self.trial_seconds)

    @property
    def mean_trial_seconds(self) -> float:
        if not self.trial_seconds:
            return 0.0
        return sum(self.trial_seconds) / len(self.trial_seconds)

    def summary(self) -> str:
        """One-line human-readable summary for reports and the CLI."""
        parts = [
            f"{self.trial_count} trials in {self.total_seconds:.2f}s",
            f"mode={self.mode}",
            f"workers={self.requested_workers}",
            f"mean trial {1e3 * self.mean_trial_seconds:.2f}ms",
        ]
        if self.executor:
            parts.insert(2, f"executor={self.executor}")
        if self.retries:
            parts.append(f"retries={self.retries}")
        if self.fallback_trials:
            parts.append(f"fallback_trials={self.fallback_trials}")
        if self.worker_stats:
            per_worker = ", ".join(
                f"{s.worker}: {s.trials} trials, {s.throughput:.1f}/s"
                for s in self.worker_stats
            )
            parts.append(f"throughput [{per_worker}]")
        return "; ".join(parts)


def summarize_timings(
    timings: Sequence[Optional[TrialTimings]],
) -> Optional[str]:
    """Merge the timings of several trial batches into one summary line.

    ``None`` entries (default batches, which attach no timings) are
    skipped; returns ``None`` when no batch carried timings.
    """
    present = [t for t in timings if t is not None]
    if not present:
        return None
    per_worker: Dict[str, Tuple[int, float]] = {}
    for t in present:
        for stat in t.worker_stats:
            trials, busy = per_worker.get(stat.worker, (0, 0.0))
            per_worker[stat.worker] = (stat.trials + trials, stat.busy_seconds + busy)
    mode = "fallback" if any(t.mode == "fallback" for t in present) else present[0].mode
    executors = []
    for t in present:
        if t.executor and t.executor not in executors:
            executors.append(t.executor)
    merged = TrialTimings(
        mode=mode,
        requested_workers=present[0].requested_workers,
        total_seconds=max(t.total_seconds for t in present),
        trial_seconds=[s for t in present for s in t.trial_seconds],
        worker_stats=[
            WorkerStats(worker=label, trials=trials, busy_seconds=busy)
            for label, (trials, busy) in sorted(per_worker.items())
        ],
        # Slices of one batch all carry the batch-level counters; max
        # avoids double-counting them without losing multi-batch signals.
        retries=max(t.retries for t in present),
        fallback_trials=max(t.fallback_trials for t in present),
        executor="+".join(executors) if executors else None,
    )
    return merged.summary()


def _worker_label() -> str:
    return f"pid-{os.getpid()}"


def _run_task_chunk(
    trial: Callable,
    chunk: Sequence[TrialTask],
    fault_plan: Optional[FaultPlan] = None,
) -> List[TrialRecord]:
    """Execute a chunk of tasks, in-process or inside a pool worker.

    The generator construction here is the *only* RNG work done where
    trials run: ``make_rng(trial_seed)`` on the parent-spawned child
    sequence, the same generator in process or in a worker. A fault
    plan may kill or stall the worker before a scripted trial index
    (never in the parent process), which is how the chaos drills
    exercise the retry/fallback paths.
    """
    label = _worker_label()
    records = []
    for index, args, trial_seed in chunk:
        if fault_plan is not None:
            fault_plan.worker_fault(index)
        started = time.perf_counter()
        outcome = trial(*args, make_rng(trial_seed))
        records.append(
            TrialRecord(
                index=index,
                outcome=outcome,
                seconds=time.perf_counter() - started,
                worker=label,
            )
        )
    return records


def _run_pooled_chunk(kernel: Optional[str], *args) -> List[TrialRecord]:
    """Pool entry point: :func:`_run_task_chunk` with inherited state
    hidden and the launcher's ``kernel`` choice installed.

    Forked workers inherit copies of the parent's ambient event log and
    profiler stacks; suspend both so instrumented code neither writes
    worker-pid records under the parent launcher's name nor profiles
    sections no one will collect. The kernel stack is per-process and
    not every start method copies it, so the choice (see
    :func:`repro.core.kernels.use_kernel`) arrives with every chunk.
    """
    with log_suspended(), profiling_suspended(), use_kernel(kernel):
        return _run_task_chunk(*args)


def _validate_picklable(trial: Callable, tasks: Sequence[TrialTask]) -> None:
    """Fail fast with a clear error when the trial cannot cross processes."""
    try:
        pickle.dumps(trial)
    except Exception as exc:
        raise AnalysisError(
            f"trial function {trial!r} is not picklable, so it cannot be "
            "dispatched to worker processes. Define the trial at module "
            "level and bind parameters with functools.partial (closures and "
            "lambdas cannot be pickled), or run with workers=None."
        ) from exc
    if tasks:
        try:
            pickle.dumps(tasks[0])
        except Exception as exc:
            raise AnalysisError(
                "trial arguments are not picklable, so they cannot be "
                "shipped to worker processes. Pass picklable parameters "
                "(plain data, numpy arrays, repro graphs), or run with "
                "workers=None."
            ) from exc


def _chunk_tasks(
    tasks: Sequence[TrialTask], workers: int, chunk_size: Optional[int]
) -> List[List[TrialTask]]:
    if chunk_size is None:
        chunk_size = max(1, len(tasks) // (workers * DEFAULT_CHUNKS_PER_WORKER))
    elif chunk_size < 1:
        raise AnalysisError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        list(tasks[start : start + chunk_size])
        for start in range(0, len(tasks), chunk_size)
    ]
