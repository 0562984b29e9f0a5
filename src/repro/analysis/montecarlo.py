"""Deterministically-seeded Monte-Carlo trial runner.

Every experiment in this package repeats a stochastic run many times.
:func:`run_trials` derives one independent generator per trial from a
single master seed (see :mod:`repro.rng`), so results are exactly
reproducible and trials remain statistically independent.

Passing ``workers=N`` dispatches the trials across ``N`` worker
processes (see :mod:`repro.parallel`). The per-trial seed sequences are
spawned in the parent exactly as on the serial path and only the trial
execution is farmed out, so for the same master seed the outcomes are
bit-for-bit identical to ``workers=None`` — parallelism is purely a
wall-clock optimization.

Inside an active checkpoint campaign (:func:`repro.checkpoint.campaign`)
both drivers journal every finished chunk of trials and skip trials
already journaled by an interrupted run. The full per-trial seed tree
is always spawned — resume changes which trials *execute*, never how
they are *seeded* — so resumed outcomes stay bit-for-bit identical to
an uninterrupted run.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Dict, Generic, List, Optional, Sequence, TypeVar

import numpy as np

from repro.checkpoint import CampaignSession, current_session
from repro.core.kernels import active_kernel, use_kernel
from repro.errors import AnalysisError
from repro.faults import FaultPlan
from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    active_metrics,
    collecting,
    merge_snapshots,
)
from repro.obs.log import EventLog, active_log
from repro.parallel import TrialRecord, TrialTimings, execute_tasks
from repro.rng import RngLike, make_rng, spawn_rngs, spawn_seed_sequences

T = TypeVar("T")

#: A trial takes (trial index, generator) and returns any outcome object.
Trial = Callable[[int, np.random.Generator], T]


@dataclass
class TrialSet(Generic[T]):
    """Outcomes of a batch of independent trials.

    ``timings`` carries per-trial wall-time and per-worker throughput
    when the batch ran through the parallel layer (``workers`` set);
    it is ``None`` on the plain serial path. ``metrics`` is the merged
    :class:`~repro.obs.metrics.MetricsSnapshot` of every trial executed
    in this batch when an ambient metrics registry was active (see
    :func:`repro.obs.metrics.collecting`); its counters are identical
    across worker counts, like the outcomes themselves.
    """

    outcomes: List[T]
    timings: Optional[TrialTimings] = None
    metrics: Optional[MetricsSnapshot] = None
    #: Resolved executor the batch ran through, including any
    #: degradation path (``"serial"``, ``"pool"``, ``"pool->serial"``).
    #: Mirrors ``RunResult.kernel``: what actually executed, not what
    #: was asked.
    executor: Optional[str] = None

    @property
    def count(self) -> int:
        return len(self.outcomes)

    def map(self, fn: Callable[[T], object]) -> List[object]:
        """Apply ``fn`` to every outcome."""
        return [fn(outcome) for outcome in self.outcomes]

    def frequency(self, predicate: Callable[[T], bool]) -> float:
        """Fraction of outcomes satisfying ``predicate``."""
        if not self.outcomes:
            raise AnalysisError("no outcomes")
        return sum(1 for o in self.outcomes if predicate(o)) / len(self.outcomes)

    def count_where(self, predicate: Callable[[T], bool]) -> int:
        """Number of outcomes satisfying ``predicate``."""
        return sum(1 for o in self.outcomes if predicate(o))


def run_trials(
    trials: int,
    trial: Trial,
    seed: RngLike = None,
    workers: Optional[int] = None,
    *,
    chunk_size: Optional[int] = None,
    timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    kernel: Optional[str] = None,
    executor: Optional[str] = None,
) -> TrialSet:
    """Run ``trial(index, rng)`` for ``trials`` independent generators.

    ``workers=None`` runs serially in-process; ``workers=N`` dispatches
    the same trials (same spawned seed sequences, hence identical
    outcomes) across ``N`` worker processes. ``chunk_size``, ``timeout``
    and ``max_retries`` tune the parallel layer (see
    :func:`repro.parallel.execute_tasks`); ``fault_plan`` injects
    scripted failures (see :mod:`repro.faults`). Inside a checkpoint
    campaign, completed trials are journaled and skipped on resume.

    ``kernel`` scopes an execution-kernel choice over the whole batch
    (``"loop"``, ``"block"`` or ``"auto"``; see
    :mod:`repro.core.kernels`) — installed ambiently around serial
    trials and shipped to every worker on the parallel path, so engine
    calls that leave ``kernel="auto"`` pick it up. Outcomes are
    identical across kernels; this is a wall-clock knob only.

    ``executor`` selects how the batch runs (``"auto"``, ``"serial"``
    or ``"pool"``; see :func:`repro.parallel.execute_tasks`); unset, it
    falls back to the ambient campaign session's choice and then to
    ``"auto"``. An explicit ``"serial"`` or ``"pool"`` routes the batch
    through :func:`repro.parallel.execute_tasks` even with
    ``workers=None`` (one worker). Outcomes never depend on the
    executor.
    """
    if trials < 1:
        raise AnalysisError(f"trials must be >= 1, got {trials}")
    session = current_session()
    batch, cached = _open_batch(session, "trials", trials)
    fault_plan, timeout, max_retries, executor = _session_overrides(
        session, fault_plan, timeout, max_retries, executor
    )
    log = active_log()
    parent_metrics = active_metrics()
    deliver = _deliverer(session, batch, log)
    with ExitStack() as stack:
        stack.enter_context(use_kernel(kernel))
        end = (
            stack.enter_context(log.batch(batch, "trials", trials, len(cached)))
            if log is not None
            else {}
        )
        if workers is None and executor in (None, "auto"):
            rngs = spawn_rngs(seed, trials)
            outcomes: List[T] = []
            snapshots: List[MetricsSnapshot] = []
            for i in range(trials):
                if i in cached:
                    outcomes.append(cached[i])
                    continue
                trial_started = time.perf_counter()
                outcome, snapshot = _run_local_trial(
                    trial, (i,), rngs[i], parent_metrics
                )
                if snapshot is not None:
                    snapshots.append(snapshot)
                seconds = time.perf_counter() - trial_started
                deliver([TrialRecord(i, outcome, seconds, "local")])
                outcomes.append(outcome)
            end["executor"] = "serial"
            return TrialSet(
                outcomes=outcomes,
                metrics=_merged_metrics(snapshots, parent_metrics),
                executor="serial",
            )
        trial_seeds = spawn_seed_sequences(seed, trials)
        tasks = [
            (i, (i,), trial_seeds[i]) for i in range(trials) if i not in cached
        ]
        records, timings = execute_tasks(
            trial,
            tasks,
            workers if workers is not None else 1,
            fault_plan=fault_plan,
            on_chunk=deliver,
            collect_metrics=parent_metrics is not None,
            kernel=active_kernel(),
            executor=executor,
            **_parallel_kwargs(chunk_size, timeout, max_retries),
        )
        end["executor"] = timings.executor
        merged: Dict[int, object] = dict(cached)
        merged.update((r.index, r.outcome) for r in records)
        return TrialSet(
            outcomes=[merged[i] for i in range(trials)],
            timings=timings,
            metrics=_merged_metrics(
                [r.metrics for r in records], parent_metrics
            ),
            executor=timings.executor,
        )


def run_trials_over(
    parameters: Sequence,
    trials: int,
    trial: Callable,
    seed: RngLike = None,
    workers: Optional[int] = None,
    *,
    chunk_size: Optional[int] = None,
    timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    kernel: Optional[str] = None,
    executor: Optional[str] = None,
) -> List[tuple]:
    """Run a trial batch per parameter value.

    ``trial(parameter, index, rng)`` is invoked ``trials`` times per
    parameter; returns ``[(parameter, TrialSet), ...]``. Each parameter
    gets its own spawned seed so adding parameters never perturbs the
    others' streams.

    With ``workers=N`` the full ``parameters × trials`` grid is flattened
    into one task list and dispatched across the pool (better load
    balance than parallelizing per parameter); outcomes are reassembled
    per parameter, bit-for-bit identical to the serial path. Checkpoint
    journaling keys trials by their flat grid index
    (``parameter_index * trials + trial_index``) on both paths, so a
    campaign interrupted under one worker count resumes correctly under
    any other.

    ``kernel`` and ``executor`` behave as in :func:`run_trials`:
    ambient/session-resolved, shipped to wherever trials execute,
    outcome-neutral.
    """
    if trials < 1:
        raise AnalysisError(f"trials must be >= 1, got {trials}")
    session = current_session()
    grid_key, cached = _open_batch(session, "grid", len(parameters) * trials)
    fault_plan, timeout, max_retries, executor = _session_overrides(
        session, fault_plan, timeout, max_retries, executor
    )
    log = active_log()
    parent_metrics = active_metrics()
    deliver = _deliverer(session, grid_key, log)
    batch_seeds = spawn_seed_sequences(seed, len(parameters))
    with ExitStack() as stack:
        stack.enter_context(use_kernel(kernel))
        end = (
            stack.enter_context(
                log.batch(grid_key, "grid", len(parameters) * trials, len(cached))
            )
            if log is not None
            else {}
        )
        if workers is None and executor in (None, "auto"):
            results = []
            for p_index, (parameter, batch_seed) in enumerate(
                zip(parameters, batch_seeds)
            ):
                rngs = spawn_rngs(make_rng(batch_seed), trials)
                outcomes = []
                snapshots: List[MetricsSnapshot] = []
                for i in range(trials):
                    flat = p_index * trials + i
                    if flat in cached:
                        outcomes.append(cached[flat])
                        continue
                    trial_started = time.perf_counter()
                    outcome, snapshot = _run_local_trial(
                        trial, (parameter, i), rngs[i], parent_metrics
                    )
                    if snapshot is not None:
                        snapshots.append(snapshot)
                    seconds = time.perf_counter() - trial_started
                    deliver([TrialRecord(flat, outcome, seconds, "local")])
                    outcomes.append(outcome)
                results.append(
                    (
                        parameter,
                        TrialSet(
                            outcomes=outcomes,
                            metrics=_merged_metrics(snapshots, parent_metrics),
                            executor="serial",
                        ),
                    )
                )
            end["executor"] = "serial"
            return results

        tasks = []
        for p_index, (parameter, batch_seed) in enumerate(
            zip(parameters, batch_seeds)
        ):
            # Spawning from the per-parameter generator (not the sequence
            # directly) reproduces the serial path's derivation exactly.
            trial_seeds = spawn_seed_sequences(make_rng(batch_seed), trials)
            for i in range(trials):
                flat = p_index * trials + i
                if flat not in cached:
                    tasks.append((flat, (parameter, i), trial_seeds[i]))
        records, timings = execute_tasks(
            trial,
            tasks,
            workers if workers is not None else 1,
            fault_plan=fault_plan,
            on_chunk=deliver,
            collect_metrics=parent_metrics is not None,
            kernel=active_kernel(),
            executor=executor,
            **_parallel_kwargs(chunk_size, timeout, max_retries),
        )
        end["executor"] = timings.executor
        merged: Dict[int, object] = dict(cached)
        merged.update((r.index, r.outcome) for r in records)
        executed = {r.index: r for r in records}
        results = []
        for p_index, parameter in enumerate(parameters):
            indices = range(p_index * trials, (p_index + 1) * trials)
            slice_records = [executed[i] for i in indices if i in executed]
            batch_timings = TrialTimings.from_records(
                slice_records,
                mode=timings.mode,
                requested_workers=timings.requested_workers,
                total_seconds=timings.total_seconds,
                retries=timings.retries,
                fallback_trials=timings.fallback_trials,
                executor=timings.executor,
            )
            results.append(
                (
                    parameter,
                    TrialSet(
                        outcomes=[merged[i] for i in indices],
                        timings=batch_timings,
                        metrics=_merged_metrics(
                            [r.metrics for r in slice_records], parent_metrics
                        ),
                        executor=timings.executor,
                    ),
                )
            )
        return results


def _run_local_trial(
    trial: Callable,
    args: tuple,
    rng: np.random.Generator,
    parent_metrics: Optional[MetricsRegistry],
) -> tuple:
    """Run one serial trial; returns ``(outcome, snapshot)``.

    The snapshot is ``None`` unless a parent registry is collecting. The
    trial then runs under a fresh child registry so its snapshot matches
    what a worker process would ship back, keeping serial and parallel
    aggregation identical.
    """
    if parent_metrics is None:
        return trial(*args, rng), None
    with collecting() as registry:
        outcome = trial(*args, rng)
    return outcome, registry.snapshot()


def _merged_metrics(
    snapshots: Sequence[Optional[MetricsSnapshot]],
    parent_metrics: Optional[MetricsRegistry],
) -> Optional[MetricsSnapshot]:
    """Merge per-trial snapshots into a batch snapshot (``None`` if idle).

    The merged snapshot is absorbed into the parent registry here —
    exactly once per trial, on both the serial and the parallel path —
    so ambient totals and per-batch ``TrialSet.metrics`` stay in sync.
    """
    if parent_metrics is None:
        return None
    batch = merge_snapshots(snapshots)
    parent_metrics.absorb(batch)
    return batch


def _open_batch(
    session: Optional[CampaignSession], kind: str, size: int
) -> tuple:
    """Reserve the next batch key and load its journaled outcomes."""
    if session is None:
        return None, {}
    batch = session.begin_batch(kind, size)
    return batch, session.completed(batch)


def _session_overrides(
    session: Optional[CampaignSession],
    fault_plan: Optional[FaultPlan],
    timeout: Optional[float],
    max_retries: Optional[int],
    executor: Optional[str],
) -> tuple:
    """Fill unset per-call knobs from the ambient campaign session."""
    if session is not None:
        fault_plan = fault_plan if fault_plan is not None else session.fault_plan
        timeout = timeout if timeout is not None else session.timeout
        max_retries = (
            max_retries if max_retries is not None else session.max_retries
        )
        executor = executor if executor is not None else session.executor
    return fault_plan, timeout, max_retries, executor


def _deliverer(
    session: Optional[CampaignSession],
    batch: Optional[str],
    log: Optional[EventLog],
) -> Callable[[Sequence[TrialRecord]], None]:
    """Hand on a finished chunk: journal it in one write, log one record
    per trial, then fire scripted aborts.

    Both the in-process path (chunks of one trial) and
    :func:`repro.parallel.execute_tasks` deliver through it, so a
    launcher killed between the two writes never leaves its log ahead
    of its journal, and an injected ``abort`` leaves the two equal.
    """

    def deliver(records: Sequence[TrialRecord]) -> None:
        if session is not None:
            session.record(batch, {r.index: r.outcome for r in records})
        if log is not None:
            for r in records:
                log.trial(r.index, r.seconds, r.worker)
        if session is not None:
            session.chunk_delivered([r.index for r in records])

    return deliver


def _parallel_kwargs(
    chunk_size: Optional[int],
    timeout: Optional[float],
    max_retries: Optional[int],
) -> dict:
    kwargs = {"chunk_size": chunk_size, "timeout": timeout}
    if max_retries is not None:
        kwargs["max_retries"] = max_retries
    return kwargs
