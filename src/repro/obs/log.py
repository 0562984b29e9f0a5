"""The event log: one append-only JSONL stream per run or launcher.

A traced run and a telemetered campaign record the same facts — which
trials ran where, how long each engine run took, and how it split into
the paper's phases. This module writes them once, into one log, and
reads any number of logs back as one merged record stream. The two
folds over that stream, the trace summary and the launcher timelines,
live in :mod:`repro.obs.views`.

Destinations
------------
``div-repro run --trace-dir DIR`` writes ``DIR/<experiment>.jsonl``;
``div-repro run --checkpoint-dir CKPT --telemetry`` writes
``CKPT/<experiment>/telemetry/<launcher>.jsonl``, one file per launcher
(the first run of a campaign and each run that resumes it). Both are
the same :class:`EventLog`.

Record schema (one JSON object per line; ``seq`` counts up from 0 in
each file, ``t`` is the epoch time of the write)::

    {"seq": 0, "t": ..., "kind": "hello", "format": "div-repro-telemetry",
     "version": 2, "launcher": ..., "host": ..., "pid": ..., ...context}
    {"kind": "batch.begin", "batch": "b0000-trials-40",
     "batch_kind": "trials", "size": 40, "cached": 0}
    {"kind": "trial", "batch": ..., "index": 7, "seconds": 0.012,
     "worker": "pid-4242"}
    {"kind": "span", "id": 3, "parent": 2, "name": "engine.run",
     "seconds": 0.004, "steps": 412, "phases": [...], ...attributes}
    {"kind": "executor.resolved", "batch": ..., "executor": "pool", ...}
    {"kind": "batch.end", "batch": ..., "executor": "pool",
     "seconds": 1.73, "trials": 40}
    {"kind": "bye"}

A span is written when it closes. Engine spans (``engine.run``,
``engine.run_complete``) carry ``steps``, ``stop_reason``,
``rng_blocks``, ``opinion_changes``, the phase totals of
:class:`PhaseTraceObserver` — whose per-phase ``steps`` always sum to
the span's ``steps`` — and the ``transitions`` list of
``[step, support]`` pairs; ``engine.run`` also carries the block
kernel's ``solves`` and ``passes`` (0 on the other kernels).

Writing and reading
-------------------
Each record is one ``write`` of one whole line to a handle opened once
with ``O_APPEND``, so a killed launcher tears at most its final line.
A log whose filesystem fails disables itself with a
:class:`RuntimeWarning`: it observes work and must never lose it.

:func:`read_log` skips and counts a torn final line (one without its
``\\n``); any other malformed line raises
:class:`~repro.errors.EventLogError` naming ``file:line``. Trace files
written before the one log (``{"type": "span"|"event", ...}``) load
through the same reader: ``type`` becomes ``kind``, and an event's
``name`` becomes its kind. Logs written before heartbeats were dropped
hold ``heartbeat`` records, a hello ``heartbeat_interval`` and a
``bye`` ``metrics`` payload, and older ``bye`` records a ``dropped``
tally; they read as any other record, and the folds ignore them.

Like profiling, the log is ambient and opt-in: instrumented
code asks :func:`active_log` once and does nothing when it is ``None``.
This module sits below ``repro.core`` and imports nothing from it when
it loads.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Union

import numpy as np

from repro.errors import EventLogError

__all__ = [
    "FEED_FORMAT",
    "LOG_VERSION",
    "TELEMETRY_DIRNAME",
    "EventLog",
    "Log",
    "PhaseTraceObserver",
    "active_log",
    "read_log",
    "recording",
    "suspended",
]

#: Format tag of every log's ``hello`` record. It is the tag of the
#: telemetry feeds the log grew out of, so old feeds and new logs are
#: one format to the reader.
FEED_FORMAT = "div-repro-telemetry"

#: Version 2 logs may hold ``span`` records besides the feed's kinds.
LOG_VERSION = 2

#: Subdirectory of a campaign directory that holds its launchers' logs.
TELEMETRY_DIRNAME = "telemetry"

#: Mirrors ``repro.core.observers.ENDPOINTS_ONLY`` (obs sits below core,
#: so the constant is duplicated, not imported).
_ENDPOINTS_ONLY = 1 << 62

#: Per-process counter so one process can host several launchers.
_LAUNCHERS = itertools.count()


def _launcher_name() -> str:
    """A collision-free launcher name: host, pid, per-process seq, ns clock.

    RNG-free on purpose (the determinism contract rejects unseeded
    draws); the nanosecond suffix tells apart launchers that reused a pid.
    """
    return (
        f"{socket.gethostname()}-pid{os.getpid()}"
        f"-F{next(_LAUNCHERS)}-{time.time_ns():x}"
    )


def _json_default(value: object) -> object:
    """numpy scalars become numbers; anything else its ``str``."""
    return value.item() if hasattr(value, "item") else str(value)


# ---------------------------------------------------------------------------
# The writer
# ---------------------------------------------------------------------------


class EventLog:
    """One launcher's append-only event log.

    Parameters
    ----------
    directory:
        Where the log file goes (created on open).
    name:
        The launcher name, which is also the file stem. Defaults to a
        fresh ``<host>-pid<pid>-F<seq>-<ns>``; ``--trace-dir`` passes the
        experiment id so a rerun replaces its trace.
    context:
        Extra fields for the ``hello`` record (experiment, seed, ...).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        name: Optional[str] = None,
        **context: object,
    ) -> None:
        self.launcher = _launcher_name() if name is None else name
        self.path = Path(directory) / f"{self.launcher}.jsonl"
        self._file = None
        self._seq = 0
        self._anonymous_batches = itertools.count()
        self._batch: Optional[str] = None
        self._batch_trials = 0
        self._spans: List[int] = []
        self._span_ids = itertools.count(1)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND
            self._file = os.fdopen(os.open(self.path, flags, 0o666), "wb", 0)
        except OSError as exc:
            self._disable(exc)
        self._write(
            "hello",
            format=FEED_FORMAT,
            version=LOG_VERSION,
            launcher=self.launcher,
            host=socket.gethostname(),
            pid=os.getpid(),
            **context,
        )

    def _write(self, kind: str, **fields: object) -> None:
        if self._file is None:
            return
        record: Dict[str, object] = {"seq": self._seq, "t": time.time(), "kind": kind}
        record.update(fields)
        line = json.dumps(record, default=_json_default) + "\n"
        try:
            self._file.write(line.encode("utf-8"))
        except OSError as exc:
            self._disable(exc)
            return
        self._seq += 1

    def _disable(self, exc: OSError) -> None:
        # A failing filesystem silences the log, not the campaign.
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        warnings.warn(
            f"event log {self.path} stopped writing ({exc}); the run "
            "continues without it",
            RuntimeWarning,
            stacklevel=3,
        )

    def event(self, kind: str, **fields: object) -> None:
        """Write one record, attributed to the open batch if it names none."""
        if self._batch is not None:
            fields.setdefault("batch", self._batch)
        self._write(kind, **fields)

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        """Time a region; yields its attribute dict, written on close."""
        span_id = next(self._span_ids)
        parent = self._spans[-1] if self._spans else None
        self._spans.append(span_id)
        started = time.perf_counter()
        try:
            yield attrs
        finally:
            self._spans.pop()
            self._write(
                "span",
                id=span_id,
                parent=parent,
                name=name,
                seconds=time.perf_counter() - started,
                **attrs,
            )

    @contextmanager
    def batch(
        self, key: Optional[str], kind: str, size: int, cached: int = 0
    ) -> Iterator[dict]:
        """Bracket one trial batch with ``batch.begin`` / ``batch.end``.

        ``key`` is the campaign's batch key, or ``None`` for a
        launcher-local ``anon-<n>-<kind>-<size>`` key. The caller sets
        the yielded dict's ``"executor"`` to the executor that ran the
        batch. A batch that raises gets no ``batch.end``: it never
        finished.
        """
        if key is None:
            key = f"anon-{next(self._anonymous_batches):04d}-{kind}-{size}"
        self._batch, self._batch_trials = key, 0
        self._write("batch.begin", batch=key, batch_kind=kind, size=size, cached=cached)
        started = time.perf_counter()
        end: Dict[str, object] = {"executor": None}
        try:
            yield end
        finally:
            self._batch = None
        self._write(
            "batch.end",
            batch=key,
            executor=end["executor"],
            seconds=time.perf_counter() - started,
            trials=self._batch_trials,
        )

    def trial(self, index: int, seconds: float, worker: str) -> None:
        """Record one executed trial."""
        self._batch_trials += 1
        self.event("trial", index=index, seconds=seconds, worker=worker)

    def close(self, bye: bool = True) -> None:
        """Write the ``bye`` record (unless ``bye`` is false) and close."""
        if self._file is None:
            return
        if bye:
            self._write("bye")
        if self._file is not None:
            self._file.close()
            self._file = None


# ---------------------------------------------------------------------------
# Ambient installation
# ---------------------------------------------------------------------------

_ACTIVE: List[EventLog] = []


def active_log() -> Optional[EventLog]:
    """The innermost installed log, or ``None`` (recording off)."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def recording(log: EventLog) -> Iterator[EventLog]:
    """Install ``log`` as the ambient log; close it when the block ends.

    Only a block that completes writes the ``bye`` record. One that
    raises — an injected abort, a ctrl-C, a corrupt journal — closes
    the file without it, as a killed launcher would, so ``campaign
    status`` reports that launcher as one that never finished.
    """
    _ACTIVE.append(log)
    finished = False
    try:
        yield log
        finished = True
    finally:
        _ACTIVE.pop()
        log.close(bye=finished)


@contextmanager
def suspended() -> Iterator[None]:
    """Hide any ambient log for the enclosed block.

    Pool workers need this: under ``fork`` a worker inherits a copy of
    the parent's log stack, and would write worker-pid records under
    the parent launcher's name, double-counting the trials the parent
    reports itself.
    """
    saved = _ACTIVE[:]
    _ACTIVE.clear()
    try:
        yield
    finally:
        _ACTIVE.extend(saved)


# ---------------------------------------------------------------------------
# Phase tracing
# ---------------------------------------------------------------------------


class PhaseTraceObserver:
    """Records every transition in the number of distinct opinions.

    A *phase* is a maximal step interval during which ``|support|`` is
    constant — the quantity Theorem 1's proof tracks: contraction to two
    consecutive opinions, then the two-opinion endgame. The observer is
    sampled at the endpoints and sees transitions either change by
    change (``on_change``, on the loop kernel) or one committed stretch
    at a time (``on_timeline``, on the block kernel: it is a timeline
    observer, see :func:`repro.core.observers.is_timeline_observer`).
    It charges every step and every wall-clock second of the run to
    exactly one support size, so ``sum(steps per phase) == total
    steps``. Within one stretch the wall time is apportioned to the
    phases by steps.

    The generic engine attaches one whenever a log is installed; the
    count engine, which sees support sizes directly, drives
    :meth:`begin`, :meth:`advance` and :meth:`end` itself.
    """

    interval = _ENDPOINTS_ONLY

    def __init__(self) -> None:
        from repro.core.stopping import StopTerm  # repro.core sits above

        # The support can grow as well as shrink: no support ceiling.
        self.support_range_terms = (StopTerm("phase", lambda sizes, widths: sizes > 0),)
        self.initial_support: Optional[int] = None
        #: ``(step, new support size)`` per transition, in step order.
        self.transitions: List[tuple] = []
        self._phase_steps: Dict[int, int] = {}
        self._phase_seconds: Dict[int, float] = {}
        self._last_support: Optional[int] = None
        self._last_step = 0
        self._last_time = 0.0

    def sample(self, step: int, state) -> None:
        if self.initial_support is None:
            self.begin(step, state.support_size)
        else:
            self.advance(step, state.support_size)
            self.end(step)

    def on_change(self, step: int, v: int, w: int, state) -> None:
        self.advance(step, state.support_size)

    def on_timeline(self, steps, support_sizes, range_widths) -> None:
        """Note the transitions of one committed stretch of changes."""
        moved = np.flatnonzero(np.diff(support_sizes, prepend=self._last_support))
        # The wall time since the last boundary, spread evenly over the
        # steps up to the stretch's last change.
        start, start_time = self._last_step, self._last_time
        per_step = (time.perf_counter() - start_time) / (int(steps[-1]) - start)
        for step, support in zip(steps[moved].tolist(), support_sizes[moved].tolist()):
            self.advance(step, support, start_time + per_step * (step - start))

    def begin(self, step: int, support: int) -> None:
        """Open the first phase at ``step``."""
        self.initial_support = self._last_support = support
        self._last_step = step
        self._last_time = time.perf_counter()

    def advance(self, step: int, support: int, now: Optional[float] = None) -> None:
        """Note the support size after the change at ``step``, made at
        wall-clock time ``now`` (the clock's reading by default)."""
        if support != self._last_support:
            self._accrue(step, time.perf_counter() if now is None else now)
            self.transitions.append((step, support))
            self._last_support = support

    def end(self, step: int) -> None:
        """Close the open phase at the run's final ``step``."""
        self._accrue(step, time.perf_counter())

    def _accrue(self, step: int, now: float) -> None:
        """Charge the segment since the last boundary to the open phase."""
        prev = self._last_support
        if step > self._last_step or prev not in self._phase_steps:
            self._phase_steps[prev] = (
                self._phase_steps.get(prev, 0) + step - self._last_step
            )
            self._phase_seconds[prev] = (
                self._phase_seconds.get(prev, 0.0) + now - self._last_time
            )
        self._last_step = step
        self._last_time = now

    def phases(self) -> List[dict]:
        """Per-phase totals, largest support (earliest phase) first."""
        return [
            {
                "support": support,
                "steps": self._phase_steps[support],
                "seconds": self._phase_seconds[support],
            }
            for support in sorted(self._phase_steps, reverse=True)
        ]

    def attrs(self) -> dict:
        """The engine-span attributes of the phase structure."""
        return {
            "initial_support": self.initial_support,
            "phase_transitions": len(self.transitions),
            "phases": self.phases(),
            "transitions": self.transitions,
        }


# ---------------------------------------------------------------------------
# The reader
# ---------------------------------------------------------------------------


class Log(NamedTuple):
    """The merged records of one or more log files."""

    #: Every record, ordered by ``(t, launcher, seq)``; each carries the
    #: ``launcher`` of its file (the hello's, else the file stem).
    records: List[dict]
    #: launcher -> torn final lines skipped.
    torn: Dict[str, int]


def _log_files(root: Path) -> List[Path]:
    if root.is_file():
        return [root]
    if not root.is_dir():
        raise EventLogError(f"no such log file or directory: {root}")
    if (root / TELEMETRY_DIRNAME).is_dir():
        root = root / TELEMETRY_DIRNAME
    files = sorted(root.glob("*.jsonl"))
    if not files and root.name != TELEMETRY_DIRNAME:
        raise EventLogError(
            f"{root} has no telemetry/ directory and no *.jsonl logs — was "
            "it written by div-repro run --telemetry or --trace-dir?"
        )
    return files


def read_log(source: Union[str, Path]) -> Log:
    """Read a log file, a directory of ``*.jsonl`` logs, or a campaign.

    A campaign directory (or its ``telemetry/`` subdirectory) with no
    logs yet reads as an empty log. See the module docstring for which
    lines are skipped and which raise.
    """
    records: List[dict] = []
    torn: Dict[str, int] = {}
    for path in _log_files(Path(source)):
        try:
            lines = path.read_text(encoding="utf-8", errors="replace").split("\n")
        except OSError as exc:
            raise EventLogError(f"{path}: cannot read log: {exc}") from None
        parsed: List[dict] = []
        tail_torn = 0
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if number == len(lines):  # no "\n": the write was cut short
                    tail_torn = 1
                    continue
                raise EventLogError(
                    f"{path}:{number}: malformed record: {exc.msg}"
                ) from None
            if not isinstance(record, dict) or not ("kind" in record or "type" in record):
                raise EventLogError(
                    f"{path}:{number}: not a log record (no 'kind' or 'type')"
                )
            if "kind" not in record:  # a trace file from before the one log
                kind = record.pop("type")
                record["kind"] = record.get("name") if kind == "event" else kind
            elif record["kind"] == "hello" and record.get("format") not in (
                None,
                FEED_FORMAT,
            ):
                raise EventLogError(
                    f"{path}: not a div-repro event log "
                    f"(format={record.get('format')!r})"
                )
            parsed.append(record)
        hello = next((r for r in parsed if r["kind"] == "hello"), {})
        launcher = str(hello.get("launcher", path.stem))
        for record in parsed:
            record["launcher"] = launcher
        records.extend(parsed)
        if tail_torn:
            torn[launcher] = torn.get(launcher, 0) + 1
    # Stable: records without a time or seq (old traces) keep file order.
    records.sort(key=lambda r: (r.get("t", 0.0), r["launcher"], r.get("seq", 0)))
    return Log(records, torn)
