"""Deterministically-seeded Monte-Carlo trial runner.

Every experiment in this package repeats a stochastic run many times.
:func:`run_trials` derives one independent generator per trial from a
single master seed (see :mod:`repro.rng`), so results are exactly
reproducible and trials remain statistically independent.

Both drivers spawn the per-trial seed sequences here, build one flat
``(index, args, SeedSequence)`` task list and run it through
:func:`repro.parallel.execute_tasks` — the one code path that executes
trials. ``workers=None`` runs them one at a time in this process, under
its event log and profiler; ``workers=N`` farms them out to ``N``
worker processes. Only trial execution moves, never seeding, so for
the same master seed the outcomes are bit-for-bit identical for any
worker count — parallelism is purely a wall-clock optimization.

Inside an active checkpoint campaign (:func:`repro.checkpoint.campaign`)
both drivers journal every finished chunk of trials and skip trials
already journaled by an interrupted run. The full per-trial seed tree
is always spawned — resume changes which trials *execute*, never how
they are *seeded* — so resumed outcomes stay bit-for-bit identical to
an uninterrupted run.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Generic, List, Optional, Sequence, TypeVar

import numpy as np

from repro.checkpoint import CampaignSession, current_session
from repro.core.kernels import active_kernel, use_kernel
from repro.errors import AnalysisError
from repro.faults import FaultPlan
from repro.obs.log import EventLog, active_log
from repro.parallel import TrialRecord, TrialTask, TrialTimings, execute_tasks
from repro.rng import RngLike, make_rng, spawn_seed_sequences

T = TypeVar("T")

#: A trial takes (trial index, generator) and returns any outcome object.
Trial = Callable[[int, np.random.Generator], T]


@dataclass
class TrialSet(Generic[T]):
    """Outcomes of a batch of independent trials.

    ``timings`` carries per-trial wall-time and per-worker throughput
    when the batch was asked for ``workers`` or a named executor; it
    is ``None`` for a default ``workers=None`` batch.
    """

    outcomes: List[T]
    timings: Optional[TrialTimings] = None
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
    ``"auto"``. Outcomes never depend on the executor. ``timings`` is
    attached only when ``workers`` or a non-``"auto"`` executor was
    asked for.
    """
    if trials < 1:
        raise AnalysisError(f"trials must be >= 1, got {trials}")
    trial_seeds = spawn_seed_sequences(seed, trials)
    tasks = [(i, (i,), trial_seeds[i]) for i in range(trials)]
    (trial_set,) = _run_batch(
        "trials", trial, tasks, trials, workers, chunk_size, timeout,
        max_retries, fault_plan, kernel, executor,
    )
    return trial_set


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

    The full ``parameters × trials`` grid is flattened into one task
    list and dispatched as one batch (with ``workers=N``, better load
    balance than parallelizing per parameter); outcomes are reassembled
    per parameter, bit-for-bit identical for any worker count.
    Checkpoint journaling keys trials by their flat grid index
    (``parameter_index * trials + trial_index``), so a campaign
    interrupted under one worker count resumes correctly under any
    other.

    ``kernel`` and ``executor`` behave as in :func:`run_trials`:
    ambient/session-resolved, shipped to wherever trials execute,
    outcome-neutral.
    """
    if trials < 1:
        raise AnalysisError(f"trials must be >= 1, got {trials}")
    tasks = []
    for p_index, (parameter, batch_seed) in enumerate(
        zip(parameters, spawn_seed_sequences(seed, len(parameters)))
    ):
        # Spawned from the per-parameter generator, not the sequence
        # itself: the derivation every journaled campaign was seeded by.
        trial_seeds = spawn_seed_sequences(make_rng(batch_seed), trials)
        tasks.extend(
            (p_index * trials + i, (parameter, i), trial_seeds[i])
            for i in range(trials)
        )
    trial_sets = _run_batch(
        "grid", trial, tasks, trials, workers, chunk_size, timeout,
        max_retries, fault_plan, kernel, executor,
    )
    return list(zip(parameters, trial_sets))


def _run_batch(
    kind: str,
    trial: Callable,
    tasks: Sequence[TrialTask],
    trials: int,
    workers: Optional[int],
    chunk_size: Optional[int],
    timeout: Optional[float],
    max_retries: Optional[int],
    fault_plan: Optional[FaultPlan],
    kernel: Optional[str],
    executor: Optional[str],
) -> List[TrialSet]:
    """Run one flat batch of tasks; one :class:`TrialSet` per ``trials``.

    Opens the batch in the ambient campaign session (skipping journaled
    trials), fills unset knobs from the session, brackets the batch in
    the ambient event log and hands the rest to
    :func:`repro.parallel.execute_tasks`. Task ``i`` of ``tasks`` must
    carry flat index ``i``.
    """
    session = current_session()
    batch, cached = _open_batch(session, kind, len(tasks))
    fault_plan, timeout, max_retries, executor = _session_overrides(
        session, fault_plan, timeout, max_retries, executor
    )
    instrumented = workers is not None or executor not in (None, "auto")
    log = active_log()
    bracket = (
        log.batch(batch, kind, len(tasks), len(cached))
        if log is not None
        else nullcontext({})
    )
    with use_kernel(kernel), bracket as end:
        records, timings = execute_tasks(
            trial,
            [task for task in tasks if task[0] not in cached],
            1 if workers is None else workers,
            chunk_size=chunk_size,
            timeout=timeout,
            max_retries=max_retries,
            fault_plan=fault_plan,
            on_chunk=_deliverer(session, batch, log),
            kernel=active_kernel(),
            executor=executor,
        )
        end["executor"] = timings.executor
    executed = {r.index: r for r in records}
    trial_sets = []
    for start in range(0, len(tasks), trials):
        indices = range(start, start + trials)
        ran = [executed[i] for i in indices if i in executed]
        trial_sets.append(
            TrialSet(
                outcomes=[
                    cached[i] if i in cached else executed[i].outcome
                    for i in indices
                ],
                timings=(
                    TrialTimings.from_records(
                        ran,
                        mode=timings.mode,
                        requested_workers=timings.requested_workers,
                        total_seconds=timings.total_seconds,
                        retries=timings.retries,
                        fallback_trials=timings.fallback_trials,
                        executor=timings.executor,
                    )
                    if instrumented
                    else None
                ),
                executor=timings.executor,
            )
        )
    return trial_sets


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

    :func:`repro.parallel.execute_tasks` calls it once per chunk (one
    trial per chunk in process), so a launcher killed between the two
    writes never leaves its log ahead of its journal, and an injected
    ``abort`` leaves the two equal.
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

