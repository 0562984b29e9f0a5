"""Opt-in profiler hook: cProfile sections keyed by span name.

The event log (:mod:`repro.obs.log`) answers *where the steps went*;
this module answers *where the CPU went* inside a span. A
:class:`SpanProfiler` keeps one ``cProfile.Profile`` per section key.
Two sections are opened today: ``"engine.run"`` around every generic
engine run (:mod:`repro.core.engine`) and ``"engine.run_complete"``
around the exact ``K_n`` count chain (:mod:`repro.core.fast_complete`).
Were sections nested, the profiler would switch between them so that
each key accumulates (approximately) its *self* time.

Like the other observability hooks it is ambient and opt-in
(:func:`active_profiler` returns ``None`` by default and instrumented
code then does nothing); unlike them it is *not* low-overhead — cProfile
slows the hot loop severalfold — so it is reserved for hot-path
attribution runs (``div-repro run --profile-out``), never for
benchmarked numbers.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["SpanProfiler", "active_profiler", "profiling", "suspended"]


class SpanProfiler:
    """Aggregates cProfile data per section key across a whole run."""

    def __init__(self) -> None:
        self._profiles: Dict[str, cProfile.Profile] = {}
        self._stack: List[cProfile.Profile] = []

    @contextmanager
    def section(self, key: str) -> Iterator[None]:
        """Profile the enclosed block under ``key``.

        Entering a nested section suspends the enclosing one, so time is
        attributed to the innermost instrumented region; repeated
        sections with the same key accumulate into one profile.
        """
        profile = self._profiles.setdefault(key, cProfile.Profile())
        if self._stack:
            self._stack[-1].disable()
        profile.enable()
        self._stack.append(profile)
        try:
            yield
        finally:
            profile.disable()
            self._stack.pop()
            if self._stack:
                self._stack[-1].enable()

    @property
    def keys(self) -> List[str]:
        return sorted(self._profiles)

    def stats(self, key: str) -> pstats.Stats:
        """The aggregated :class:`pstats.Stats` of one section key."""
        return pstats.Stats(self._profiles[key])

    def render(self, top: int = 20) -> str:
        """Human-readable hot-path report, one block per section key."""
        blocks = []
        for key in self.keys:
            stream = io.StringIO()
            stats = pstats.Stats(self._profiles[key], stream=stream)
            stats.sort_stats("cumulative").print_stats(top)
            blocks.append(f"== section {key} ==\n{stream.getvalue().strip()}\n")
        if not blocks:
            return "(no profiled sections)\n"
        return "\n".join(blocks)


_ACTIVE: List[SpanProfiler] = []


def active_profiler() -> Optional[SpanProfiler]:
    """The installed profiler, or ``None`` (profiling off, zero cost)."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def profiling(profiler: Optional[SpanProfiler] = None) -> Iterator[SpanProfiler]:
    """Install ``profiler`` (or a fresh one) for the enclosed block."""
    profiler = profiler if profiler is not None else SpanProfiler()
    _ACTIVE.append(profiler)
    try:
        yield profiler
    finally:
        _ACTIVE.pop()


@contextmanager
def suspended() -> Iterator[None]:
    """Hide any ambient profiler for the enclosed block.

    Forked workers inherit a copy of the parent's profiler stack;
    without suspension they aggregate span timings into a profiler the
    parent never reads.  The worker entry suspends profiling so
    :func:`active_profiler` reports that profiling is off here.
    """
    saved = _ACTIVE[:]
    _ACTIVE.clear()
    try:
        yield
    finally:
        _ACTIVE.extend(saved)
