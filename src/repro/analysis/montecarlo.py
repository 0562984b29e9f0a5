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

How a batch runs beyond its worker count — executor, pool-round
timeout, retry budget, scripted faults — is a campaign setting: both
drivers read it from the ambient session (:func:`repro.checkpoint.campaign`)
and use the dispatcher's defaults outside one. Inside a campaign with
a journal they also journal every finished chunk of trials and skip
trials already journaled by an interrupted run. The full per-trial
seed tree is always spawned — resume changes which trials *execute*,
never how they are *seeded* — so resumed outcomes stay bit-for-bit
identical to an uninterrupted run.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Generic, List, Optional, Sequence, TypeVar

import numpy as np

from repro.checkpoint import CampaignSession, current_session
from repro.errors import AnalysisError
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
) -> TrialSet:
    """Run ``trial(index, rng)`` for ``trials`` independent generators.

    ``workers=None`` runs serially in-process; ``workers=N`` dispatches
    the same trials (same spawned seed sequences, hence identical
    outcomes) across ``N`` worker processes. The executor, pool-round
    timeout, retry budget and fault plan come from the ambient campaign
    session (see :func:`repro.checkpoint.campaign`), whose journal also
    records completed trials and skips them on resume; outside a
    session the batch runs with :func:`repro.parallel.execute_tasks`'
    defaults. Outcomes never depend on any of these. ``timings`` is
    attached only when ``workers`` or a non-``"auto"`` executor was
    asked for.

    Engine calls inside ``trial`` that leave ``kernel="auto"`` pick up
    the ambient :func:`repro.core.kernels.use_kernel` choice, on the
    pool too.
    """
    if trials < 1:
        raise AnalysisError(f"trials must be >= 1, got {trials}")
    trial_seeds = spawn_seed_sequences(seed, trials)
    tasks = [(i, (i,), trial_seeds[i]) for i in range(trials)]
    (trial_set,) = _run_batch("trials", trial, tasks, trials, workers)
    return trial_set


def run_trials_over(
    parameters: Sequence,
    trials: int,
    trial: Callable,
    seed: RngLike = None,
    workers: Optional[int] = None,
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
    other. Dispatch settings come from the session, as in
    :func:`run_trials`.
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
    trial_sets = _run_batch("grid", trial, tasks, trials, workers)
    return list(zip(parameters, trial_sets))


def _run_batch(
    kind: str,
    trial: Callable,
    tasks: Sequence[TrialTask],
    trials: int,
    workers: Optional[int],
) -> List[TrialSet]:
    """Run one flat batch of tasks; one :class:`TrialSet` per ``trials``.

    Opens the batch in the ambient campaign session (skipping journaled
    trials), takes its dispatch settings from that session (a default
    one outside a campaign), brackets the batch in the ambient event
    log and hands the rest to :func:`repro.parallel.execute_tasks`.
    Task ``i`` of ``tasks`` must carry flat index ``i``.
    """
    session = current_session()
    batch, cached = _open_batch(session, kind, len(tasks))
    settings = session if session is not None else CampaignSession()
    instrumented = workers is not None or settings.executor not in (None, "auto")
    log = active_log()
    bracket = (
        log.batch(batch, kind, len(tasks), len(cached))
        if log is not None
        else nullcontext({})
    )
    with bracket as end:
        records, timings = execute_tasks(
            trial,
            [task for task in tasks if task[0] not in cached],
            1 if workers is None else workers,
            timeout=settings.timeout,
            max_retries=settings.max_retries,
            fault_plan=settings.fault_plan,
            on_chunk=_deliverer(session, batch, log),
            executor=settings.executor,
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

