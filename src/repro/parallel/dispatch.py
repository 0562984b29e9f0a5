"""`execute_tasks`: run a trial batch serially or on a process pool.

This is the single entry point every Monte-Carlo driver dispatches
through. It validates the request, resolves the ``executor`` name
(``"auto"`` picks ``serial`` for one worker and ``pool`` otherwise),
runs the batch, and post-conditions the result: records sorted by trial
index, one record per task, and a
:class:`~repro.parallel.base.TrialTimings` carrying the **resolved**
executor path (``"serial"``, ``"pool"`` or ``"pool->serial"``) so
callers can assert which machinery actually ran.

``serial`` runs the tasks one at a time in the calling process, under
its event log and profiler. ``pool`` dispatches chunks across a local
:class:`~concurrent.futures.ProcessPoolExecutor`; infrastructure
failures (worker crash, round timeout, pool breakage) are retried on a
fresh pool for ``max_retries`` rounds, and chunks that still fail run
transparently in-process — with a ``RuntimeWarning`` and a
``"pool->serial"`` resolved path.

Every pool worker watches its launcher (:func:`_exit_with_parent`) and
ends itself once the launcher is gone, so a SIGKILLed campaign leaves no
workers behind.

Both paths hand each finished chunk's records to ``on_chunk`` (the
checkpoint journal, which writes the chunk as one file, then the
event log) as soon as the chunk is done — the serial path in
chunks of one trial, the pool in submission order as each chunk's
future resolves — so a campaign killed mid-batch keeps every chunk
that had finished.

Timeout semantics
-----------------
``timeout`` is a **wall-clock budget for each pool round**, enforced
through a single deadline computed when the round starts. Every future
is waited on with the *remaining* time to that deadline, so a slow
early chunk can never silently extend the budget of the chunks drained
after it. Chunks that miss the round deadline are cancelled and retried
on the next round.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.kernels import active_kernel
from repro.errors import AnalysisError, ParallelExecutionError
from repro.faults import FaultPlan
from repro.obs.log import active_log
from repro.parallel.base import (
    DEFAULT_MAX_RETRIES,
    TrialRecord,
    TrialTask,
    TrialTimings,
    _chunk_tasks,
    _run_pooled_chunk,
    _run_task_chunk,
    _validate_picklable,
)

#: Accepted ``executor`` names; ``"auto"`` resolves from the worker count.
EXECUTORS = ("auto", "pool", "serial")

#: Seconds between a pool worker's checks that its launcher is alive.
PARENT_POLL_SECONDS = 1.0


def execute_tasks(
    trial: Callable,
    tasks: Sequence[TrialTask],
    workers: int,
    *,
    chunk_size: Optional[int] = None,
    timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    on_chunk: Optional[Callable[[Sequence[TrialRecord]], None]] = None,
    executor: Optional[str] = None,
) -> Tuple[List[TrialRecord], TrialTimings]:
    """Execute ``tasks`` serially or on a process pool; deterministic outcomes.

    Returns the records sorted by task index together with the batch's
    :class:`TrialTimings` (whose ``executor`` field records the resolved
    path, including any degradation).

    Parameters
    ----------
    trial:
        Callable invoked as ``trial(*args, rng)`` per task (picklable
        when the pool is involved).
    tasks:
        ``(index, args, SeedSequence)`` triples; indices must be unique.
    workers:
        Worker process count (``1`` resolves ``"auto"`` to ``serial``).
    chunk_size:
        Tasks per dispatched chunk (default: an even split into
        ``workers * 4`` chunks).
    timeout:
        Optional wall-clock budget for each pool round, enforced as a
        single per-round deadline (a slow early chunk cannot extend the
        budget of later ones); timed-out chunks retry and eventually
        fall back in-process.
    max_retries:
        Pool rounds to attempt after the first before falling back
        (``None``: :data:`~repro.parallel.base.DEFAULT_MAX_RETRIES`).
    fault_plan:
        Optional scripted faults (see :mod:`repro.faults`); worker
        faults fire inside pool workers only.
    on_chunk:
        Optional parent-side callback invoked with each chunk's records
        as soon as the chunk is done (one trial at a time on the serial
        path). The Monte-Carlo layer journals the chunk here in one
        write, then writes one event-log record per trial, so a
        killed campaign keeps every chunk that finished.
    executor:
        ``"auto"``/``None`` (resolve from ``workers``), ``"serial"`` or
        ``"pool"``. An unknown name raises
        :class:`~repro.errors.AnalysisError`.

    The Monte-Carlo drivers pass the campaign session's settings (see
    :func:`repro.checkpoint.campaign`) and the default ``chunk_size``.
    The pool installs the caller's ambient kernel choice
    (:func:`repro.core.kernels.use_kernel`) in every worker.
    """
    if workers < 1:
        raise AnalysisError(f"workers must be >= 1 (or None), got {workers}")
    if max_retries is None:
        max_retries = DEFAULT_MAX_RETRIES
    if max_retries < 0:
        raise AnalysisError(f"max_retries must be >= 0, got {max_retries}")
    if executor not in (None,) + EXECUTORS:
        raise AnalysisError(
            f"unknown executor {executor!r} (known: {', '.join(EXECUTORS)})"
        )
    if executor in (None, "auto"):
        executor = "serial" if workers == 1 else "pool"

    records: List[TrialRecord] = []

    def deliver(chunk_records: Sequence[TrialRecord]) -> None:
        records.extend(chunk_records)
        if on_chunk is not None:
            on_chunk(chunk_records)

    def run_in_process(chunk: Sequence[TrialTask]) -> None:
        deliver(_run_task_chunk(trial, chunk, fault_plan))

    retries = fallback_trials = 0
    started = time.perf_counter()
    if executor == "serial":
        # Chunks of one task, so a kill keeps every finished trial.
        for task in tasks:
            run_in_process([task])
        mode = resolved = "serial"
    else:
        _validate_picklable(trial, tasks)
        pending = _chunk_tasks(tasks, workers, chunk_size)
        kernel = active_kernel()
        for round_index in range(1 + max_retries):
            if not pending:
                break
            if round_index:
                retries += 1
            pending = _run_round(
                trial, pending, workers, timeout, fault_plan, kernel, deliver
            )
        if pending:
            fallback_trials = sum(len(chunk) for chunk in pending)
            warnings.warn(
                f"parallel trial execution failed for {fallback_trials} "
                f"trial(s) after {max_retries} "
                f"retr{'y' if max_retries == 1 else 'ies'} "
                "(worker crash or timeout); falling back to in-process "
                "execution. Outcomes are unaffected — the same per-trial "
                "seed sequences are used.",
                RuntimeWarning,
                stacklevel=2,
            )
            for chunk in pending:
                run_in_process(chunk)
        mode = "fallback" if fallback_trials else "parallel"
        resolved = "pool->serial" if fallback_trials else "pool"

    records.sort(key=lambda record: record.index)
    if len(records) != len(tasks):  # pragma: no cover - defensive
        raise ParallelExecutionError(
            f"executor {executor!r} returned {len(records)} records "
            f"for {len(tasks)} tasks"
        )
    timings = TrialTimings.from_records(
        records,
        mode=mode,
        requested_workers=workers,
        total_seconds=time.perf_counter() - started,
        retries=retries,
        fallback_trials=fallback_trials,
        executor=resolved,
    )
    log = active_log()
    if log is not None:
        log.event(
            "executor.resolved",
            executor=timings.executor,
            tasks=len(tasks),
            workers=workers,
            retries=retries,
            fallback_trials=fallback_trials,
        )
    return records, timings


def _run_round(
    trial: Callable,
    chunks: Sequence[Sequence[TrialTask]],
    workers: int,
    timeout: Optional[float],
    fault_plan: Optional[FaultPlan],
    kernel: Optional[str],
    deliver: Callable[[Sequence[TrialRecord]], None],
) -> List[Sequence[TrialTask]]:
    """Run one pool round; returns the chunks that must be retried.

    Each finished chunk's records go to ``deliver`` as its future
    resolves, in submission order. Only infrastructure failures (worker
    crash, timeout, pool breakage) are converted into retryable chunks —
    an exception raised by the trial itself propagates to the caller,
    as on the serial path.
    """
    failed: List[Sequence[TrialTask]] = []
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_exit_with_parent)
    # One deadline for the whole round: every wait below receives only
    # the budget that is still left, so draining a slow future first
    # cannot grant the later ones extra time.
    deadline = None if timeout is None else time.monotonic() + timeout
    unsubmitted: Sequence[Sequence[TrialTask]] = ()
    try:
        futures = []
        for position, chunk in enumerate(chunks):
            try:
                future = pool.submit(
                    _run_pooled_chunk, kernel, trial, chunk, fault_plan
                )
            except (BrokenProcessPool, OSError):
                # A worker died before the round was fully submitted: this
                # chunk and every later one retry on the next round.
                unsubmitted = chunks[position:]
                break
            futures.append((future, chunk))
        broken = False
        for future, chunk in futures:
            if broken:
                future.cancel()
                failed.append(chunk)
                continue
            try:
                if deadline is None:
                    chunk_records = future.result()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0 and not future.done():
                        raise FutureTimeoutError()
                    chunk_records = future.result(timeout=max(remaining, 0.0))
            except FutureTimeoutError:
                future.cancel()
                failed.append(chunk)
                continue
            except (BrokenProcessPool, OSError):
                failed.append(chunk)
                broken = True
                continue
            deliver(chunk_records)
        failed.extend(unsubmitted)
    finally:
        # Don't block on stragglers from a timed-out or broken round;
        # leftover worker processes exit once their queue drains.
        pool.shutdown(wait=not failed, cancel_futures=True)
    return failed


def _exit_with_parent() -> None:
    """Pool initializer: end this worker once its launcher has died.

    A launcher killed outright (SIGKILL, OOM) never shuts its pool down,
    and a worker would otherwise block on the call queue for good. The
    kernel re-parents an orphan, so a daemon thread that sees
    ``os.getppid()`` change exits the worker within about
    :data:`PARENT_POLL_SECONDS`, even mid-trial.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()
