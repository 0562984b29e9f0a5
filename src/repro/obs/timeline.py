"""Merge launcher telemetry feeds into one deterministic campaign timeline.

:mod:`repro.obs.telemetry` leaves a campaign directory holding one
append-only JSONL feed per launcher that ever worked on the campaign.
A campaign gets a new feed each time a launcher opens it — the first
run, and each run that resumes it. This module is the read side: it
loads every feed under ``<campaign>/telemetry/``, tolerates the mess
real campaigns produce — launchers killed mid-line (torn tails),
crashed before their ``bye``, clocks skewed between runs — and folds
everything into a single :class:`CampaignTimeline` whose contents are
**deterministic**: the same set of feed files yields
the same timeline regardless of discovery order or interleaving,
because feeds are sorted by filename, records by their feed-local
``seq``, and the merged event stream by ``(t, launcher, seq)``.

The timeline powers ``div-repro campaign watch`` (live), ``div-repro
timeline report`` (post-hoc utilization analysis) and the
timeline-backed half of ``div-repro campaign status``. Its accounting
rules:

- A trial is **completed** once any launcher holds a record for its
  ``(batch, index)`` — duplicates (the same index executed again, e.g.
  after its damaged journal record was discarded on resume) count
  toward ``duplicates``, never toward progress. A launcher's
  journal-``cached`` count at batch open is a completion *floor*, not
  an additive term — those trials usually also appear as records in
  some feed (see :meth:`BatchProgress.completed`).
- Every trial record counts as a trial its launcher **executed**.
- Record kinds the reader does not fold — such as those only feeds
  written by older versions hold — pass through to ``events``.
- Heartbeat metric payloads are deltas; merging them with
  :func:`~repro.obs.metrics.merge_snapshots` reconstructs each
  launcher's cumulative snapshot exactly (see the telemetry module
  docstring for why the histogram extremes survive this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import TelemetryError
from repro.obs.metrics import MetricsSnapshot, merge_snapshots
from repro.obs.telemetry import (
    FEED_FORMAT,
    TELEMETRY_DIRNAME,
    snapshot_from_payload,
)

__all__ = [
    "BatchProgress",
    "CampaignTimeline",
    "LauncherTimeline",
    "load_timeline",
    "read_feed",
    "resolve_telemetry_dir",
]

def resolve_telemetry_dir(directory: Union[str, Path]) -> Path:
    """Accept either a campaign directory or its ``telemetry/`` subdir."""
    root = Path(directory)
    if root.name == TELEMETRY_DIRNAME and root.is_dir():
        return root
    candidate = root / TELEMETRY_DIRNAME
    if candidate.is_dir():
        return candidate
    if not root.exists():
        raise TelemetryError(f"no such campaign directory: {root}")
    raise TelemetryError(
        f"{root} has no {TELEMETRY_DIRNAME}/ feeds — was the campaign run "
        "with telemetry enabled (div-repro run --telemetry)?"
    )


def read_feed(path: Union[str, Path]) -> Tuple[List[dict], int]:
    """Read one feed; returns ``(records, dropped_lines)``.

    Records come back in ``seq`` order. Unparseable lines — the torn
    tail of a killed launcher, or any malformed line — are dropped and
    counted, never fatal: a telemetry reader that crashes on the debris
    of the very failures it exists to expose would be useless.
    """
    source = Path(path)
    records: List[dict] = []
    dropped = 0
    try:
        text = source.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise TelemetryError(f"cannot read telemetry feed {source}: {exc}")
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            dropped += 1
            continue
        if not isinstance(record, dict) or "seq" not in record or "kind" not in record:
            dropped += 1
            continue
        records.append(record)
    records.sort(key=lambda r: r["seq"])
    return records, dropped


@dataclass
class LauncherTimeline:
    """Everything one launcher's feed said about its part of the campaign."""

    name: str
    host: str = ""
    pid: int = 0
    started: float = 0.0
    #: Timestamp of the last record seen from this launcher.
    last_seen: float = 0.0
    #: Heartbeat cadence promised in the hello record (staleness yardstick).
    heartbeat_interval: float = 1.0
    #: ``True`` once the feed's ``bye`` record was observed.
    closed: bool = False
    #: Trials this launcher executed.
    executed: int = 0
    #: Wall seconds spent inside executed trials (utilization numerator).
    busy_seconds: float = 0.0
    #: Cumulative metrics, reconstructed by merging heartbeat deltas.
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    #: Trial records dropped by the telemetry-drop fault (self-reported).
    self_dropped: int = 0
    #: Unparseable feed lines (torn tail etc.) the reader skipped.
    torn_lines: int = 0
    #: ``(t, batch, index, seconds)`` for executed trials, in feed order.
    trials: List[Tuple[float, str, int, float]] = field(default_factory=list)

    @property
    def wall_seconds(self) -> float:
        """Observed lifetime of the launcher (first to last record)."""
        return max(0.0, self.last_seen - self.started)

    @property
    def utilization(self) -> float:
        """Fraction of its observed lifetime spent executing trials."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return min(1.0, self.busy_seconds / self.wall_seconds)

    @property
    def trials_per_second(self) -> float:
        """Lifetime average throughput of executed trials."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.executed / self.wall_seconds

    def is_stale(self, now: float, grace: float = 5.0) -> bool:
        """A launcher that stopped reporting without saying goodbye.

        ``grace`` multiplies the feed's own promised heartbeat interval
        — a launcher silent for that long either died or is wedged, and
        ``campaign watch`` flags it.
        """
        if self.closed:
            return False
        quiet = now - self.last_seen
        return quiet > grace * max(self.heartbeat_interval, 0.1)


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
    #: Distinct completed trial indices across all feeds (progress
    #: denominator is size).
    completed_indices: Set[int] = field(default_factory=set)
    #: Records beyond the first per index: trials executed more than
    #: once — the campaign's redundancy cost.
    duplicates: int = 0
    #: Launchers that announced batch.end, mapped to resolved executor.
    finished_by: Dict[str, str] = field(default_factory=dict)

    @property
    def cached(self) -> int:
        """Largest journal-satisfied count any launcher saw at batch open."""
        return max(self.launcher_cached.values(), default=0)

    @property
    def completed(self) -> int:
        """Best lower bound on distinct completed trials.

        A launcher's ``cached`` count is a *floor*, never an additive
        term: the cached trials' indices are unknown and usually also
        appear as trial records in some feed — the launcher that
        executed them before this one resumed, or this launcher's own
        predecessor feed. What IS disjoint is each launcher's cached set
        versus its own records (executors are only ever handed the
        non-cached tasks), so ``cached + own distinct indices`` bounds
        completion per launcher; the cross-feed index union bounds it
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
    """The merged, deterministic view over every feed of one campaign."""

    directory: Path
    launchers: Dict[str, LauncherTimeline] = field(default_factory=dict)
    batches: Dict[str, BatchProgress] = field(default_factory=dict)
    #: All records from all feeds, ordered by ``(t, launcher, seq)``.
    #: Each record carries an injected ``launcher`` field.
    events: List[dict] = field(default_factory=list)
    #: Sum of unparseable lines across feeds.
    torn_lines: int = 0

    @property
    def metrics(self) -> MetricsSnapshot:
        """Campaign-cumulative metrics (all launchers' deltas merged)."""
        return merge_snapshots(
            self.launchers[name].metrics for name in sorted(self.launchers)
        )

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

    @property
    def started(self) -> float:
        if not self.launchers:
            return 0.0
        return min(l.started for l in self.launchers.values())

    @property
    def last_seen(self) -> float:
        if not self.launchers:
            return 0.0
        return max(l.last_seen for l in self.launchers.values())

    def recent_rate(self, window: float = 10.0) -> float:
        """Executed trials/sec over the trailing ``window`` of feed time.

        The live throughput figure behind ``campaign watch``'s ETA;
        measured against the newest record timestamp so it also works
        post-hoc on finished campaigns.
        """
        horizon = self.last_seen - window
        recent = [
            t
            for launcher in self.launchers.values()
            for (t, _batch, _index, _seconds) in launcher.trials
            if t >= horizon
        ]
        if not recent:
            return 0.0
        span = max(self.last_seen - min(recent), 1e-9)
        return len(recent) / span

    def eta_seconds(self, window: float = 10.0) -> Optional[float]:
        """Seconds to drain the remaining trials at the recent rate."""
        remaining = sum(b.remaining for b in self.batches.values())
        if remaining == 0:
            return 0.0
        rate = self.recent_rate(window)
        if rate <= 0.0:
            return None
        return remaining / rate

    def throughput_series(
        self, bin_seconds: float = 1.0
    ) -> List[Tuple[float, int]]:
        """Executed-trial counts per time bin since campaign start.

        Returns ``(offset_seconds, trials)`` pairs for non-empty bins in
        ascending order — the throughput-over-time series of
        ``timeline report``.
        """
        if bin_seconds <= 0.0:
            raise TelemetryError("throughput bin width must be positive")
        origin = self.started
        bins: Dict[int, int] = {}
        for launcher in self.launchers.values():
            for t, _batch, _index, _seconds in launcher.trials:
                bins[int((t - origin) / bin_seconds)] = (
                    bins.get(int((t - origin) / bin_seconds), 0) + 1
                )
        return [(index * bin_seconds, bins[index]) for index in sorted(bins)]

    def stale_launchers(
        self, now: float, grace: float = 5.0
    ) -> List[LauncherTimeline]:
        """Launchers that went silent without closing their feed."""
        return [
            self.launchers[name]
            for name in sorted(self.launchers)
            if self.launchers[name].is_stale(now, grace)
        ]


def _fold_feed(
    timeline: CampaignTimeline,
    feed_name: str,
    records: Sequence[dict],
    torn: int,
) -> None:
    launcher = LauncherTimeline(name=feed_name[: -len(".jsonl")])
    launcher.torn_lines = torn
    timeline.torn_lines += torn
    for record in records:
        kind = record["kind"]
        t = float(record.get("t", 0.0))
        if launcher.started == 0.0:
            launcher.started = t
        launcher.last_seen = max(launcher.last_seen, t)
        if kind == "hello":
            if record.get("format") not in (None, FEED_FORMAT):
                raise TelemetryError(
                    f"{feed_name}: not a telemetry feed "
                    f"(format={record.get('format')!r})"
                )
            launcher.name = str(record.get("launcher", launcher.name))
            launcher.host = str(record.get("host", ""))
            launcher.pid = int(record.get("pid", 0))
            launcher.heartbeat_interval = float(
                record.get("heartbeat_interval", 1.0)
            )
        elif kind in ("heartbeat", "bye"):
            payload = record.get("metrics")
            if isinstance(payload, dict):
                launcher.metrics = merge_snapshots(
                    [launcher.metrics, snapshot_from_payload(payload)]
                )
            if kind == "bye":
                launcher.closed = True
                launcher.self_dropped = int(record.get("dropped", 0))
        elif kind == "batch.begin":
            batch = timeline.batches.setdefault(
                str(record["batch"]), BatchProgress(key=str(record["batch"]))
            )
            batch.kind = str(record.get("batch_kind", batch.kind))
            batch.size = max(batch.size, int(record.get("size", 0)))
            batch.launcher_cached[launcher.name] = max(
                batch.launcher_cached.get(launcher.name, 0),
                int(record.get("cached", 0)),
            )
        elif kind == "trial":
            key = str(record.get("batch"))
            batch = timeline.batches.setdefault(key, BatchProgress(key=key))
            index = int(record["index"])
            if index in batch.completed_indices:
                batch.duplicates += 1
            else:
                batch.completed_indices.add(index)
            batch.launcher_indices.setdefault(launcher.name, set()).add(index)
            seconds = float(record.get("seconds", 0.0))
            launcher.executed += 1
            launcher.busy_seconds += seconds
            launcher.trials.append((t, key, index, seconds))
        elif kind == "batch.end":
            key = str(record.get("batch"))
            batch = timeline.batches.setdefault(key, BatchProgress(key=key))
            batch.finished_by[launcher.name] = str(
                record.get("executor") or "?"
            )
        # Unknown kinds flow through to the event stream untouched —
        # newer writers must not break older readers.
    timeline.launchers[launcher.name] = launcher
    for record in records:
        tagged = dict(record)
        tagged["launcher"] = launcher.name
        timeline.events.append(tagged)


def iter_feed_paths(directory: Union[str, Path]) -> Iterator[Path]:
    """Feed files under a campaign/telemetry directory, filename-sorted."""
    telemetry_dir = resolve_telemetry_dir(directory)
    yield from sorted(telemetry_dir.glob("*.jsonl"))


def load_timeline(directory: Union[str, Path]) -> CampaignTimeline:
    """Load and merge every feed under ``directory`` into one timeline.

    ``directory`` may be the campaign checkpoint directory or its
    ``telemetry/`` subdirectory. Raises :class:`TelemetryError` when the
    directory (or its telemetry subdir) does not exist; an *empty*
    telemetry directory yields an empty timeline — a campaign that has
    not started yet is not an error for a watcher.
    """
    telemetry_dir = resolve_telemetry_dir(directory)
    timeline = CampaignTimeline(directory=telemetry_dir)
    for path in sorted(telemetry_dir.glob("*.jsonl")):
        records, torn = read_feed(path)
        _fold_feed(timeline, path.name, records, torn)
    timeline.events.sort(
        key=lambda r: (r.get("t", 0.0), r.get("launcher", ""), r.get("seq", 0))
    )
    return timeline
