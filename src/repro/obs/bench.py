"""Compare committed benchmark snapshots and flag perf regressions.

``scripts/bench_snapshot.sh`` consolidates a pytest-benchmark run into a
committed ``BENCH_<date>*.json`` snapshot (format
``div-repro-bench-snapshot``; see ``benchmarks/_emit.py``). This module
diffs two such snapshots per-benchmark so the perf trajectory the repo
commits actually *gates* changes: ``div-repro bench compare OLD NEW``
exits nonzero when any benchmark regressed beyond the threshold or
disappeared, and the CI drill (``scripts/trace_drill.sh``) proves the
gate fires by seeding a synthetic ≥50 % regression and asserting the
nonzero exit.

Comparison semantics, chosen to stay honest on noisy shared runners:

- Benchmarks are matched by ``name``; the compared statistic is
  ``mean_seconds`` (mean per-round wall time).
- ``regressed``: new mean > old mean × (1 + threshold).
- ``improved``: new mean < old mean × (1 − threshold).
- ``ok``: within the threshold band either way.
- ``missing``: present in the old snapshot only — treated as a failure,
  because silently dropping a benchmark is how perf coverage rots.
- ``skipped``: present in the old snapshot only when the two snapshots
  ran different selections (their ``select`` headers, the
  ``BENCH_SELECT`` of ``scripts/bench_snapshot.sh``, differ) —
  informational, since a subset snapshot leaves out the rest by design.
- ``new``: present in the new snapshot only — informational.
- Benchmarks whose *old* mean is below ``min_seconds`` are reported
  ``ok`` regardless of ratio: sub-noise-floor timings produce wild
  ratios that mean nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Union

from repro.errors import BenchCompareError

__all__ = [
    "SNAPSHOT_FORMAT",
    "BenchDelta",
    "compare_snapshots",
    "load_snapshot",
    "snapshot_origin",
]

#: ``format`` tag required in a snapshot file (written by _emit.py).
SNAPSHOT_FORMAT = "div-repro-bench-snapshot"

#: Default regression threshold: 30 % on mean wall time.
DEFAULT_THRESHOLD = 0.3

#: Default noise floor: benchmarks faster than this are never judged.
DEFAULT_MIN_SECONDS = 1e-4


def load_snapshot(path: Union[str, Path]) -> dict:
    """Load and validate one ``BENCH_*.json`` snapshot."""
    source = Path(path)
    try:
        payload = json.loads(source.read_text(encoding="utf-8"))
    except OSError as exc:
        raise BenchCompareError(f"cannot read benchmark snapshot: {exc}")
    except ValueError as exc:
        raise BenchCompareError(f"{source} is not valid JSON: {exc}")
    if not isinstance(payload, dict) or payload.get("format") != SNAPSHOT_FORMAT:
        raise BenchCompareError(
            f"{source} is not a {SNAPSHOT_FORMAT} file — expected the "
            "output of scripts/bench_snapshot.sh"
        )
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, list):
        raise BenchCompareError(f"{source} has no benchmarks list")
    for entry in benchmarks:
        if not isinstance(entry, dict) or "name" not in entry:
            raise BenchCompareError(f"{source} has a malformed benchmark entry")
    return payload


def snapshot_origin(snapshot: dict) -> str:
    """The tree a snapshot measured: its git sha, dirty flag and digest.

    ``dirty`` is true when the tree had uncommitted changes to tracked
    files, so the sha names the commit the change was made on, not the
    code measured; snapshots older than the flag read ``dirty unknown``.
    ``source_sha256``, the digest of the measured ``src/**/*.py``
    (``benchmarks/_emit.py``), names the code itself; its first 12 hex
    digits follow when the snapshot has one.
    """
    dirty = snapshot.get("dirty")
    flag = {True: "dirty", False: "clean"}.get(dirty, "dirty unknown")
    origin = f"{snapshot.get('git_sha') or 'unknown sha'} ({flag})"
    digest = snapshot.get("source_sha256")
    return f"{origin} src {digest[:12]}" if digest else origin


@dataclass(frozen=True)
class BenchDelta:
    """The comparison verdict for one benchmark name."""

    name: str
    status: str  # ok | improved | regressed | missing | skipped | new
    old_mean: float = 0.0
    new_mean: float = 0.0

    @property
    def ratio(self) -> float:
        """new/old mean ratio (1.0 when either side is absent)."""
        if self.old_mean <= 0.0 or self.new_mean <= 0.0:
            return 1.0
        return self.new_mean / self.old_mean

    @property
    def failed(self) -> bool:
        return self.status in ("regressed", "missing")


def _mean_by_name(snapshot: dict) -> Dict[str, float]:
    means: Dict[str, float] = {}
    for entry in snapshot["benchmarks"]:
        means[str(entry["name"])] = float(entry.get("mean_seconds", 0.0))
    return means


def compare_snapshots(
    old: dict,
    new: dict,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> List[BenchDelta]:
    """Diff two loaded snapshots; returns one delta per benchmark name.

    Deltas come back name-sorted; the run failed if any delta's
    :attr:`~BenchDelta.failed` is true. A benchmark absent from ``new``
    is ``skipped`` when the snapshots' ``select`` headers differ, else
    ``missing``.
    """
    if threshold <= 0.0:
        raise BenchCompareError("regression threshold must be positive")
    old_means = _mean_by_name(old)
    new_means = _mean_by_name(new)
    same_selection = old.get("select") == new.get("select")
    deltas: List[BenchDelta] = []
    for name in sorted(set(old_means) | set(new_means)):
        if name not in new_means:
            status = "missing" if same_selection else "skipped"
            deltas.append(BenchDelta(name=name, status=status, old_mean=old_means[name]))
            continue
        if name not in old_means:
            deltas.append(
                BenchDelta(name=name, status="new", new_mean=new_means[name])
            )
            continue
        old_mean, new_mean = old_means[name], new_means[name]
        if old_mean < min_seconds:
            status = "ok"
        elif new_mean > old_mean * (1.0 + threshold):
            status = "regressed"
        elif new_mean < old_mean * (1.0 - threshold):
            status = "improved"
        else:
            status = "ok"
        deltas.append(
            BenchDelta(
                name=name, status=status, old_mean=old_mean, new_mean=new_mean
            )
        )
    return deltas
