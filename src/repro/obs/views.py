"""The two folds over the event log: trace summary and campaign timeline.

:func:`repro.obs.log.read_log` turns log files into one merged record
stream. This module folds that stream two ways:

* :func:`summarize` — the trace summary behind ``div-repro trace
  summarize``: engine-run totals (steps, opinion changes, RNG blocks,
  wall time), per-phase steps and wall time, per-worker throughput,
  and the check that every engine span's per-phase steps sum to its
  ``steps``;
* :func:`campaign_timeline` — the campaign view behind ``div-repro
  campaign status``: launchers and whether each closed its log, batch
  progress, duplicates, recent rate and ETA.

Timeline accounting rules:

- A trial is **completed** once any launcher holds a record for its
  ``(batch, index)``. Further records of the same index (a trial run
  again, e.g. after its damaged journal record was discarded) count as
  ``duplicates``, never as progress. A launcher's journal-``cached``
  count at batch open is a completion *floor*, not an additive term
  (see :meth:`BatchProgress.completed`).
- Every trial record counts as a trial its launcher **executed**.
- Kinds a fold does not know — such as the ``lease.*`` and
  ``heartbeat`` records of older feeds — are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import EventLogError
from repro.obs.log import Log

__all__ = [
    "BatchProgress",
    "CampaignTimeline",
    "LauncherTimeline",
    "TraceSummary",
    "campaign_timeline",
    "summarize",
]

#: Span-name prefix shared by all engine-level spans.
ENGINE_SPAN_PREFIX = "engine."

#: Trailing seconds before the clock that :meth:`CampaignTimeline.recent_rate`
#: counts trials over.
RATE_WINDOW = 10.0


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
# Campaign timeline
# ---------------------------------------------------------------------------


@dataclass
class LauncherTimeline:
    """Everything one launcher's log said about its part of the campaign."""

    name: str
    started: float = 0.0
    #: Timestamp of the last record seen from this launcher.
    last_seen: float = 0.0
    #: ``True`` once the log's ``bye`` record was observed.
    closed: bool = False
    #: Trials this launcher executed.
    executed: int = 0
    #: Log time of each of those trials, in log order.
    trial_times: List[float] = field(default_factory=list)
    #: Trial records dropped by the telemetry-drop fault (self-reported).
    self_dropped: int = 0
    #: Torn final lines the reader skipped.
    torn_lines: int = 0


@dataclass
class BatchProgress:
    """Campaign-wide completion state of one batch across all launchers."""

    key: str
    kind: str = ""
    size: int = 0
    #: Journal-satisfied trials each launcher reported at its batch open.
    launcher_cached: Dict[str, int] = field(default_factory=dict)
    #: Distinct trial indices each launcher's own records cover.
    launcher_indices: Dict[str, Set[int]] = field(default_factory=dict)
    #: Distinct completed trial indices across all logs.
    completed_indices: Set[int] = field(default_factory=set)
    #: Records beyond the first per index: trials executed more than
    #: once — the campaign's redundancy cost.
    duplicates: int = 0
    #: Launchers that wrote batch.end, mapped to the executor that ran it.
    finished_by: Dict[str, str] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        """Best lower bound on distinct completed trials.

        A launcher's ``cached`` count is a *floor*, never an additive
        term: the cached trials' indices are unknown and usually also
        appear as trial records in some log — the launcher that ran them
        before this one resumed. What IS disjoint is each launcher's
        cached set versus its own records (executors are only handed the
        non-cached tasks), so ``cached + own distinct indices`` bounds
        completion per launcher; the cross-log index union bounds it
        globally. Take the best bound, clamped to the batch size.
        """
        known = len(self.completed_indices)
        for name, cached in self.launcher_cached.items():
            floor = cached + len(self.launcher_indices.get(name, ()))
            known = max(known, floor)
        if self.size > 0:
            return min(known, self.size)
        return known

    @property
    def remaining(self) -> int:
        return max(0, self.size - self.completed)

    @property
    def done(self) -> bool:
        return self.size > 0 and self.completed >= self.size


@dataclass
class CampaignTimeline:
    """The merged, deterministic view over every log of one campaign."""

    launchers: Dict[str, LauncherTimeline] = field(default_factory=dict)
    batches: Dict[str, BatchProgress] = field(default_factory=dict)
    #: Torn final lines skipped across logs.
    torn_lines: int = 0

    @property
    def executed(self) -> int:
        return sum(l.executed for l in self.launchers.values())

    @property
    def completed(self) -> int:
        return sum(b.completed for b in self.batches.values())

    @property
    def total(self) -> int:
        return sum(b.size for b in self.batches.values())

    @property
    def duplicates(self) -> int:
        return sum(b.duplicates for b in self.batches.values())

    def recent_rate(self, now: float) -> float:
        """Trials/sec of the running launcher over :data:`RATE_WINDOW`
        before ``now``.

        A launcher is running while it is unclosed and has a record in
        the window; with none running the rate is 0. Otherwise only the
        launcher that wrote the newest trial counts, from the later of
        the window start and its own start, so neither a dead launcher
        nor the idle gap before a resume enters the rate.
        """
        start = now - RATE_WINDOW
        launchers = self.launchers.values()
        if not any(not l.closed and l.last_seen >= start for l in launchers):
            return 0.0
        newest = max(
            (l for l in launchers if l.trial_times),
            key=lambda l: l.trial_times[-1],
            default=None,
        )
        if newest is None:
            return 0.0
        start = max(start, newest.started)
        recent = sum(1 for t in newest.trial_times if t >= start)
        span = newest.trial_times[-1] - start
        return recent / span if recent and span > 0.0 else 0.0

    def eta_seconds(self, now: float) -> Optional[float]:
        """Seconds to drain the remaining trials at the recent rate."""
        remaining = sum(b.remaining for b in self.batches.values())
        if remaining == 0:
            return 0.0
        rate = self.recent_rate(now)
        if rate <= 0.0:
            return None
        return remaining / rate


def campaign_timeline(log: Log) -> CampaignTimeline:
    """Fold a campaign's merged log records into its timeline."""
    timeline = CampaignTimeline(torn_lines=sum(log.torn.values()))
    for record in log.records:
        name = record["launcher"]
        launcher = timeline.launchers.get(name)
        t = float(record.get("t", 0.0))
        if launcher is None:
            launcher = timeline.launchers[name] = LauncherTimeline(
                name=name, started=t, torn_lines=log.torn.get(name, 0)
            )
        launcher.last_seen = max(launcher.last_seen, t)
        kind = record["kind"]
        if kind == "bye":
            launcher.closed = True
            launcher.self_dropped = int(record.get("dropped", 0))
        elif kind in ("batch.begin", "trial", "batch.end"):
            key = str(record.get("batch"))
            batch = timeline.batches.setdefault(key, BatchProgress(key=key))
            if kind == "batch.begin":
                batch.kind = str(record.get("batch_kind", batch.kind))
                batch.size = max(batch.size, int(record.get("size", 0)))
                batch.launcher_cached[name] = max(
                    batch.launcher_cached.get(name, 0), int(record.get("cached", 0))
                )
            elif kind == "trial":
                index = int(record["index"])
                if index in batch.completed_indices:
                    batch.duplicates += 1
                else:
                    batch.completed_indices.add(index)
                batch.launcher_indices.setdefault(name, set()).add(index)
                launcher.executed += 1
                launcher.trial_times.append(t)
            else:
                batch.finished_by[name] = str(record.get("executor") or "?")
    return timeline
