"""The two folds over the event log: trace summary and launchers.

:func:`repro.obs.log.read_log` turns log files into one merged record
stream. This module folds that stream two ways:

* :func:`summarize` — the trace summary behind ``div-repro trace
  summarize``: engine-run totals (steps, opinion changes, RNG blocks,
  wall time), per-phase steps and wall time, per-worker throughput,
  and the check that every engine span's per-phase steps sum to its
  ``steps``;
* :func:`launcher_timelines` — each launcher's first and last record
  and whether it wrote its ``bye``, behind the unclosed-launcher lines
  of ``div-repro campaign status``.

A campaign's progress (completed and total trials, rate, ETA) is not
read from the log: the checkpoint journal holds every finished trial
exactly (see :meth:`repro.checkpoint.CheckpointJournal.census`). Kinds
a fold does not know — such as the ``lease.*`` and ``heartbeat``
records of older logs — are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.errors import EventLogError
from repro.obs.log import Log

__all__ = [
    "LauncherTimeline",
    "TraceSummary",
    "launcher_timelines",
    "summarize",
]

#: Span-name prefix shared by all engine-level spans.
ENGINE_SPAN_PREFIX = "engine."


# ---------------------------------------------------------------------------
# Trace summary
# ---------------------------------------------------------------------------


@dataclass
class TraceSummary:
    """Aggregates of one or more logs (see ``trace summarize``)."""

    campaigns: List[dict] = field(default_factory=list)
    engine_spans: int = 0
    total_steps: int = 0
    total_opinion_changes: int = 0
    total_rng_blocks: int = 0
    #: The block kernel's fixed-point solves and their passes (0 on
    #: the other kernels and on spans written before they were logged).
    total_solves: int = 0
    total_passes: int = 0
    total_engine_seconds: float = 0.0
    #: Sum of squared per-span engine seconds — additive like the
    #: other fields, so the stddev of per-run wall time stays exact
    #: however many logs are folded.
    engine_seconds_sq: float = 0.0
    phase_transitions: int = 0
    #: support size -> steps, seconds, and number of spans that visited it
    phase_steps: Dict[int, int] = field(default_factory=dict)
    phase_seconds: Dict[int, float] = field(default_factory=dict)
    phase_spans: Dict[int, int] = field(default_factory=dict)
    #: worker label -> (trials, busy seconds)
    workers: Dict[str, Tuple[int, float]] = field(default_factory=dict)

    @property
    def mean_engine_seconds(self) -> float:
        """Mean wall seconds per engine run (0.0 without engine spans)."""
        if self.engine_spans == 0:
            return 0.0
        return self.total_engine_seconds / self.engine_spans

    @property
    def stddev_engine_seconds(self) -> float:
        """Population stddev of per-run wall seconds (exact under folding)."""
        if self.engine_spans == 0:
            return 0.0
        variance = (
            self.engine_seconds_sq / self.engine_spans
            - self.mean_engine_seconds**2
        )
        return max(0.0, variance) ** 0.5


def summarize(records: Iterable[dict]) -> TraceSummary:
    """Fold log records into a trace summary.

    Raises :class:`~repro.errors.EventLogError` when an engine span's
    per-phase step counts do not sum to the span's ``steps``.
    """
    summary = TraceSummary()
    for record in records:
        kind = record["kind"]
        name = str(record.get("name", ""))
        if kind == "trial" or (kind == "span" and name == "trial"):
            # Older traces wrote serial trials as spans.
            _fold_trial(summary, record)
        elif kind == "span" and name == "campaign":
            summary.campaigns.append(record)
        elif kind == "span" and name.startswith(ENGINE_SPAN_PREFIX):
            _fold_engine_span(summary, record)
    return summary


def _fold_engine_span(summary: TraceSummary, record: dict) -> None:
    steps = int(record.get("steps", 0))
    phases = record.get("phases", [])
    phase_sum = sum(int(phase.get("steps", 0)) for phase in phases)
    if phase_sum != steps:
        raise EventLogError(
            f"inconsistent engine span (id {record.get('id')}): per-phase "
            f"steps sum to {phase_sum} but the span reports {steps} steps"
        )
    summary.engine_spans += 1
    summary.total_steps += steps
    summary.total_opinion_changes += int(record.get("opinion_changes", 0))
    summary.total_rng_blocks += int(record.get("rng_blocks", 0))
    summary.total_solves += int(record.get("solves", 0))
    summary.total_passes += int(record.get("passes", 0))
    seconds = float(record.get("seconds", 0.0))
    summary.total_engine_seconds += seconds
    summary.engine_seconds_sq += seconds * seconds
    summary.phase_transitions += int(record.get("phase_transitions", 0))
    for phase in phases:
        support = int(phase["support"])
        summary.phase_steps[support] = (
            summary.phase_steps.get(support, 0) + int(phase["steps"])
        )
        summary.phase_seconds[support] = (
            summary.phase_seconds.get(support, 0.0) + float(phase.get("seconds", 0.0))
        )
        summary.phase_spans[support] = summary.phase_spans.get(support, 0) + 1


def _fold_trial(summary: TraceSummary, record: dict) -> None:
    worker = str(record.get("worker", "local"))
    trials, busy = summary.workers.get(worker, (0, 0.0))
    summary.workers[worker] = (trials + 1, busy + float(record.get("seconds", 0.0)))


# ---------------------------------------------------------------------------
# Launchers
# ---------------------------------------------------------------------------


@dataclass
class LauncherTimeline:
    """When one launcher's log began and ended, and whether it closed."""

    name: str
    #: Timestamps of the launcher's first and last records.
    started: float = 0.0
    last_seen: float = 0.0
    #: ``True`` once the log's ``bye`` record was observed.
    closed: bool = False


def launcher_timelines(log: Log) -> Dict[str, LauncherTimeline]:
    """Fold merged log records into one timeline per launcher."""
    launchers: Dict[str, LauncherTimeline] = {}
    for record in log.records:
        t = float(record.get("t", 0.0))
        launcher = launchers.setdefault(
            record["launcher"], LauncherTimeline(record["launcher"], started=t)
        )
        launcher.last_seen = max(launcher.last_seen, t)
        launcher.closed = launcher.closed or record["kind"] == "bye"
    return launchers
