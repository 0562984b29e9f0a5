"""Campaign telemetry feeds: append-only JSONL heartbeats of live runs.

A campaign run would otherwise be observable only after the fact
(``trace summarize``) or through the one-shot ``campaign status``. This
module gives every launcher — each ``div-repro run`` process that works
on a campaign, such as a first run and the runs that resume it — a
**telemetry feed**: an append-only JSONL file under the campaign's
checkpoint directory::

    <campaign>/telemetry/<host>-pid<pid>-F<seq>-<ns>.jsonl

into which it streams progress while running: batch begin/end, one
record per executed trial, executor resolution, checkpoint cache hits,
and periodic heartbeats carrying mergeable
:class:`~repro.obs.metrics.MetricsSnapshot` *deltas*. The timeline
reader (:mod:`repro.obs.timeline`) merges any number of feeds — torn-
tailed, from launchers that died mid-write — into one deterministic
campaign timeline that ``div-repro campaign watch`` and ``div-repro
timeline report`` render.

Like metrics, tracing and profiling, telemetry is **ambient and
opt-in**: instrumented code asks :func:`active_telemetry` once and does
nothing when no feed is installed, so un-instrumented runs pay nothing.
A feed is installed with the :func:`telemetering` context manager (the
experiment registry does this for ``run_campaign(telemetry=True)`` /
``div-repro run --telemetry``) and :func:`suspended` hides it inside
forked worker processes, exactly like ``tracing.suspended``.

Feed record schema (one JSON object per line; every record carries a
feed-local monotonically increasing ``seq`` and an epoch ``t``)::

    {"seq": 0, "t": ..., "kind": "hello", "format": "div-repro-telemetry",
     "version": 1, "launcher": "<host>-pid<pid>-F0-<ns>", "host": ...,
     "pid": ..., "heartbeat_interval": 1.0, ...context}
    {"seq": n, "t": ..., "kind": "batch.begin", "batch": "b0000-trials-40",
     "batch_kind": "trials", "size": 40, "cached": 0}
    {"seq": n, "t": ..., "kind": "trial", "batch": ..., "index": 7,
     "seconds": 0.012, "worker": "pid-4242"}
    {"seq": n, "t": ..., "kind": "heartbeat", "metrics": {...delta...}}
    {"seq": n, "t": ..., "kind": "executor.resolved", "executor": "pool",
     "tasks": 40, "workers": 2}
    {"seq": n, "t": ..., "kind": "batch.end", "batch": ...,
     "executor": "pool", "seconds": 1.73, "trials": 40}
    {"seq": n, "t": ..., "kind": "bye", "metrics": {...final delta...}}

Heartbeats carry metric **deltas** (everything recorded since the
previous heartbeat): counters and the additive histogram moments
(``count``/``total``/``sum_squares``) subtract, while the histogram
``min``/``max`` ride as the *cumulative* extremes at heartbeat time —
the min of mins over deltas is the true global min, so re-merging the
deltas reconstructs the launcher's cumulative snapshot exactly. Gauges
are last-write-wins, as everywhere else.

Feed writes go through :func:`repro.io.append_jsonl_line` (whole-line
``O_APPEND`` writes), so a dying
launcher can tear at most its final line. A feed whose filesystem starts failing disables
itself with a :class:`RuntimeWarning` instead of taking the campaign
down: telemetry observes work, it must never lose it.

This module imports only the foundation layer eagerly (the I/O helper
is deferred, mirroring :mod:`repro.obs.tracing`), keeping the ``obs``
layer a leaf below core/parallel/checkpoint.
"""

from __future__ import annotations

import itertools
import os
import socket
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.obs.metrics import (
    HistogramSummary,
    MetricsSnapshot,
    active_metrics,
)

__all__ = [
    "FEED_FORMAT",
    "FEED_VERSION",
    "TELEMETRY_DIRNAME",
    "TelemetryFeed",
    "active_telemetry",
    "default_feed_name",
    "snapshot_from_payload",
    "snapshot_to_payload",
    "suspended",
    "telemetering",
]

#: Format tag carried by every feed's ``hello`` record.
FEED_FORMAT = "div-repro-telemetry"

#: Feed record format version.
FEED_VERSION = 1

#: Subdirectory of a campaign checkpoint directory that holds the feeds.
TELEMETRY_DIRNAME = "telemetry"

#: Process-local counter so one process can host several feeds with
#: distinct identities (launcher-side only, never in trial workers).
_FEED_SEQUENCE = itertools.count()


def default_feed_name() -> str:
    """A collision-free feed filename: host, pid, per-process seq, ns clock.

    Deliberately RNG-free (the determinism contract rejects unseeded
    draws); the nanosecond suffix disambiguates pid reuse across
    launcher generations on one host.
    """
    return (
        f"{socket.gethostname()}-pid{os.getpid()}"
        f"-F{next(_FEED_SEQUENCE)}-{time.time_ns():x}.jsonl"
    )


# ---------------------------------------------------------------------------
# Snapshot <-> JSON payload
# ---------------------------------------------------------------------------


def snapshot_to_payload(snapshot: MetricsSnapshot) -> dict:
    """A JSON-ready, lossless encoding of a snapshot (feed heartbeats).

    Unlike ``MetricsSnapshot.to_dict`` (the human-facing
    ``--metrics-out`` schema) this round-trips through
    :func:`snapshot_from_payload` exactly, including the mergeable
    ``sum_squares`` moment and empty-series sentinels.
    """
    return {
        "counters": dict(sorted(snapshot.counters.items())),
        "gauges": dict(sorted(snapshot.gauges.items())),
        "histograms": {
            name: [
                summary.count,
                summary.total,
                summary.sum_squares,
                summary.minimum if summary.count else None,
                summary.maximum if summary.count else None,
            ]
            for name, summary in sorted(snapshot.histograms.items())
        },
    }


def snapshot_from_payload(payload: dict) -> MetricsSnapshot:
    """Inverse of :func:`snapshot_to_payload`."""
    histograms = {}
    for name, moments in payload.get("histograms", {}).items():
        count, total, sum_squares, minimum, maximum = moments
        histograms[str(name)] = HistogramSummary(
            count=int(count),
            total=float(total),
            minimum=float("inf") if minimum is None else float(minimum),
            maximum=float("-inf") if maximum is None else float(maximum),
            sum_squares=float(sum_squares),
        )
    return MetricsSnapshot(
        counters={str(k): v for k, v in payload.get("counters", {}).items()},
        gauges={str(k): v for k, v in payload.get("gauges", {}).items()},
        histograms=histograms,
    )


def _snapshot_delta(
    current: MetricsSnapshot, shipped: MetricsSnapshot
) -> MetricsSnapshot:
    """What ``current`` added on top of ``shipped`` (see module docstring).

    Counters and the additive histogram moments subtract; histogram
    extremes stay cumulative (extremes only ever widen, so the merged
    min/max over all deltas equals the cumulative min/max); gauges ship
    their latest value.
    """
    counters = {}
    for name, value in current.counters.items():
        delta = value - shipped.counters.get(name, 0)
        if delta:
            counters[name] = delta
    histograms = {}
    for name, summary in current.histograms.items():
        previous = shipped.histograms.get(name, HistogramSummary())
        if summary.count == previous.count:
            continue
        histograms[name] = HistogramSummary(
            count=summary.count - previous.count,
            total=summary.total - previous.total,
            minimum=summary.minimum,
            maximum=summary.maximum,
            sum_squares=summary.sum_squares - previous.sum_squares,
        )
    return MetricsSnapshot(
        counters=counters, gauges=dict(current.gauges), histograms=histograms
    )


# ---------------------------------------------------------------------------
# The feed
# ---------------------------------------------------------------------------


class TelemetryFeed:
    """One launcher's append-only telemetry stream.

    Parameters
    ----------
    directory:
        The campaign's telemetry directory (``<ckpt>/telemetry``;
        created on first write).
    heartbeat_interval:
        Minimum seconds between metric-carrying heartbeats. Heartbeats
        are emitted opportunistically from trial/batch events — the
        feed runs no thread of its own.
    drop_indices:
        Trial indices whose ``trial`` records are silently dropped — the
        launcher-side ``telemetry-drop`` fault (:mod:`repro.faults`),
        which drills the timeline reader's tolerance for missing
        records. Dropped events are tallied on ``dropped``.
    context:
        Extra fields for the ``hello`` record (experiment id, scale,
        seed, …).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        heartbeat_interval: float = 1.0,
        drop_indices: Sequence[int] = (),
        **context: object,
    ) -> None:
        self.directory = Path(directory)
        self.name = default_feed_name()
        self.path = self.directory / self.name
        self.launcher = self.name[: -len(".jsonl")]
        self.heartbeat_interval = float(heartbeat_interval)
        self.drop_indices = frozenset(int(i) for i in drop_indices)
        #: Trial records suppressed by ``drop_indices``.
        self.dropped = 0
        self._seq = 0
        self._broken = False
        self._closed = False
        self._last_heartbeat = 0.0
        self._shipped = MetricsSnapshot()
        self._batch_seq = itertools.count()
        self._open_batch: Optional[str] = None
        self._emit(
            "hello",
            format=FEED_FORMAT,
            version=FEED_VERSION,
            launcher=self.launcher,
            host=socket.gethostname(),
            pid=os.getpid(),
            heartbeat_interval=self.heartbeat_interval,
            **context,
        )

    # -- low-level emission ----------------------------------------------

    def _emit(self, kind: str, **fields: object) -> None:
        if self._broken or self._closed:
            return
        record: Dict[str, object] = {
            "seq": self._seq,
            "t": time.time(),
            "kind": kind,
        }
        record.update(fields)
        from repro.io import append_jsonl_line  # deferred: io sits above obs

        try:
            append_jsonl_line(self.path, record)
        except OSError as exc:
            # Telemetry must never take the campaign down with it: a
            # failing filesystem silences the feed, not the launcher.
            self._broken = True
            warnings.warn(
                f"telemetry feed {self.path} stopped writing ({exc}); "
                "the campaign continues without telemetry from this "
                "launcher",
                RuntimeWarning,
                stacklevel=3,
            )
            return
        self._seq += 1

    def event(self, kind: str, **fields: object) -> None:
        """Emit a generic event record (executor resolution, cache hits)."""
        if self._open_batch is not None and "batch" not in fields:
            fields["batch"] = self._open_batch
        self._emit(kind, **fields)

    # -- campaign progress ------------------------------------------------

    def batch_begin(
        self,
        batch: Optional[str],
        kind: str,
        size: int,
        cached: int = 0,
    ) -> str:
        """Open a batch; returns the batch key trial records attribute to."""
        if batch is None:
            batch = f"anon-{next(self._batch_seq):04d}-{kind}-{size}"
        self._open_batch = batch
        self._emit(
            "batch.begin", batch=batch, batch_kind=kind, size=size, cached=cached
        )
        return batch

    def trial(
        self,
        index: int,
        seconds: float,
        worker: str,
        batch: Optional[str] = None,
    ) -> None:
        """Record one executed trial; throttled heartbeat."""
        if index in self.drop_indices:
            self.dropped += 1
            return
        self._emit(
            "trial",
            batch=batch if batch is not None else self._open_batch,
            index=index,
            seconds=seconds,
            worker=worker,
        )
        self.maybe_heartbeat()

    def batch_end(
        self,
        batch: Optional[str],
        executor: Optional[str],
        seconds: float,
        trials: int,
    ) -> None:
        self._emit(
            "batch.end",
            batch=batch if batch is not None else self._open_batch,
            executor=executor,
            seconds=seconds,
            trials=trials,
        )
        self._open_batch = None
        self.maybe_heartbeat()

    # -- heartbeats --------------------------------------------------------

    def heartbeat(self) -> None:
        """Emit a heartbeat now, carrying the metrics recorded since the
        previous one (empty delta when no registry is collecting)."""
        registry = active_metrics()
        delta = MetricsSnapshot()
        if registry is not None:
            current = registry.snapshot()
            delta = _snapshot_delta(current, self._shipped)
            self._shipped = current
        self._emit("heartbeat", metrics=snapshot_to_payload(delta))
        self._last_heartbeat = time.monotonic()

    def maybe_heartbeat(self) -> None:
        """Heartbeat if ``heartbeat_interval`` has elapsed since the last."""
        if time.monotonic() - self._last_heartbeat >= self.heartbeat_interval:
            self.heartbeat()

    def close(self) -> None:
        """Emit the final ``bye`` record (with the closing metrics delta)."""
        if self._closed or self._broken:
            self._closed = True
            return
        registry = active_metrics()
        delta = MetricsSnapshot()
        if registry is not None:
            current = registry.snapshot()
            delta = _snapshot_delta(current, self._shipped)
            self._shipped = current
        self._emit(
            "bye", metrics=snapshot_to_payload(delta), dropped=self.dropped
        )
        self._closed = True


# ---------------------------------------------------------------------------
# Ambient installation
# ---------------------------------------------------------------------------

_ACTIVE: List[TelemetryFeed] = []


def active_telemetry() -> Optional[TelemetryFeed]:
    """The innermost installed feed, or ``None`` (telemetry off)."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def telemetering(feed: TelemetryFeed) -> Iterator[TelemetryFeed]:
    """Install ``feed`` as the ambient telemetry sink; closes it on exit.

    Only a block that completes closes the feed. One that raises — an
    injected abort, a ctrl-C, a corrupt journal — leaves it without its
    ``bye`` record, as a killed launcher would, so the timeline reports
    that launcher as one that never finished.
    """
    _ACTIVE.append(feed)
    try:
        yield feed
    finally:
        _ACTIVE.pop()
    feed.close()


@contextmanager
def suspended() -> Iterator[None]:
    """Hide any ambient feed for the enclosed block.

    Worker processes need this exactly as they need
    ``tracing.suspended``: under ``fork`` a worker inherits the parent's
    feed stack and would append worker-side records that double-count
    the launcher's own — and interleave pid-stamped lines under the
    parent's launcher identity. The worker entry point suspends
    telemetry so :func:`active_telemetry` reports the truth: this
    process owns no feed.
    """
    saved = _ACTIVE[:]
    _ACTIVE.clear()
    try:
        yield
    finally:
        _ACTIVE.extend(saved)
