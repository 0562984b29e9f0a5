"""Observability: the event log, its views and profiling.

The third cross-cutting layer (after parallelism and checkpointing):

* :mod:`repro.obs.log` — the append-only event log that ``run
  --trace-dir`` and ``run --telemetry`` write (trials, batches, engine
  spans with the paper's phase structure via
  :class:`~repro.obs.log.PhaseTraceObserver`), and the one reader that
  merges any number of logs. It is the one record of a run's work:
  every engine run's steps, opinion changes, RNG blocks and seconds
  are attributes of its span;
* :mod:`repro.obs.views` — the two folds over a read log: the trace
  summary (``div-repro trace summarize``) and each launcher's timeline
  (the unclosed-launcher lines of ``div-repro campaign status``);
* :mod:`repro.obs.profile` — opt-in cProfile sections keyed by span;
* :mod:`repro.obs.bench` — committed benchmark-snapshot comparison
  (``div-repro bench compare``).

Everything is ambient and opt-in: with nothing installed, the engines
and drivers skip all recording (same zero-overhead contract as
:mod:`repro.core.observers`). This package sits *below* ``repro.core``
in the layering — it must never import core, analysis or experiments.

See ``docs/observability.md`` for the record schema and CLI usage.
"""

from repro.obs.bench import BenchDelta, compare_snapshots, load_snapshot
from repro.obs.log import (
    TELEMETRY_DIRNAME,
    EventLog,
    Log,
    PhaseTraceObserver,
    active_log,
    read_log,
    recording,
)
from repro.obs.profile import SpanProfiler, active_profiler, profiling
from repro.obs.views import (
    LauncherTimeline,
    TraceSummary,
    launcher_timelines,
    summarize,
)

__all__ = [
    "TELEMETRY_DIRNAME",
    "BenchDelta",
    "EventLog",
    "LauncherTimeline",
    "Log",
    "PhaseTraceObserver",
    "SpanProfiler",
    "TraceSummary",
    "active_log",
    "active_profiler",
    "compare_snapshots",
    "launcher_timelines",
    "load_snapshot",
    "profiling",
    "read_log",
    "recording",
    "summarize",
]
