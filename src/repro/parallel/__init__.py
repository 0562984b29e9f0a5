"""Parallel Monte-Carlo trial execution with deterministic seeding.

The Monte-Carlo drivers in :mod:`repro.analysis.montecarlo` already pay
for per-trial :class:`~numpy.random.SeedSequence` independence; this
package turns that independence into wall-clock speedup.
:func:`execute_tasks` runs every trial batch, one of two ways:

* ``serial`` — in-process execution (``workers=None`` or ``1``), under
  the launcher's own event log and profiler;
* ``pool`` — a local :class:`~concurrent.futures.ProcessPoolExecutor`
  with bounded retries and transparent in-process fallback; workers
  hide the log and profiler they inherit.

Determinism contract
--------------------
The parent process spawns the per-trial seed sequences
(:func:`repro.rng.spawn_seed_sequences`) and hands out
``(index, args, SeedSequence)`` tasks; whoever executes a trial only
constructs ``make_rng(trial_seed)`` and runs the trial. Outcomes are
reassembled by task index, so for the same master seed both executors
return **bit-for-bit identical outcomes**, for any worker count,
chunking, scheduling order, or injected fault.

Robustness
----------
* A trial function (and its task arguments) must be picklable for the
  pool; an unpicklable trial raises a clear
  :class:`~repro.errors.AnalysisError` before any worker starts.
* A worker crash (``BrokenProcessPool``) or a pool-round timeout
  triggers a bounded retry on a fresh pool; chunks that still fail
  after ``max_retries`` rounds execute transparently in-process, with
  a :class:`RuntimeWarning`. Exceptions raised *by the trial itself*
  propagate unchanged, exactly as in process.
* Every finished chunk is handed to the checkpoint journal as soon as
  it is done, so a killed campaign resumes from every chunk that had
  finished (see :mod:`repro.checkpoint`).

Observability
-------------
Every trial's wall-time and executing worker are recorded; the
aggregated :class:`TrialTimings` (per-trial seconds, per-worker
throughput, execution mode, resolved executor, retry/fallback
counters) is attached to the resulting ``TrialSet`` and surfaced by
``div-repro run --workers N --executor NAME``.
"""

from repro.parallel.base import (
    DEFAULT_CHUNKS_PER_WORKER,
    DEFAULT_MAX_RETRIES,
    TrialRecord,
    TrialTask,
    TrialTimings,
    WorkerStats,
    summarize_timings,
)
from repro.parallel.dispatch import execute_tasks

__all__ = [
    "DEFAULT_CHUNKS_PER_WORKER",
    "DEFAULT_MAX_RETRIES",
    "TrialRecord",
    "TrialTask",
    "TrialTimings",
    "WorkerStats",
    "execute_tasks",
    "summarize_timings",
]
