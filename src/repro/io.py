"""Serialization: graphs to/from edge-list files, reports to JSON/CSV.

A downstream user needs to persist the topologies they simulated and
feed the experiment tables into their own tooling; these helpers keep
both in plain, diff-able text formats.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Union

from repro.errors import GraphConstructionError
from repro.experiments.tables import ExperimentReport, Table
from repro.graphs.graph import Graph

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (all-or-nothing).

    The payload lands in a temporary file in the *same directory* and is
    moved into place with :func:`os.replace` after an ``fsync``, so a
    crash (or SIGKILL) mid-write can never leave a truncated artifact at
    ``path`` — readers see either the old content or the new one. The
    checkpoint layer (:mod:`repro.checkpoint`) builds its crash-safety
    guarantee on this helper.
    """
    target = Path(path)
    handle = tempfile.NamedTemporaryFile(
        mode="wb",
        dir=str(target.parent),
        prefix=f".{target.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def atomic_write_text(path: PathLike, text: str, encoding: str = "utf-8") -> None:
    """Atomic counterpart of ``Path.write_text`` (see :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode(encoding))


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def write_edge_list(graph: Graph, path: PathLike) -> None:
    """Write a graph as ``n m`` header plus one ``u v`` line per edge.

    The write is atomic: a crash mid-write leaves the previous file (or
    nothing), never a truncated edge list.
    """
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_edge_list(path: PathLike, name: str = "") -> Graph:
    """Read a graph written by :func:`write_edge_list`."""
    source = Path(path)
    with source.open("r", encoding="utf-8") as handle:
        header = handle.readline().split()
        if len(header) != 2:
            raise GraphConstructionError(f"{source}: malformed header {header!r}")
        n, m = int(header[0]), int(header[1])
        edges = []
        for line_number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphConstructionError(
                    f"{source}:{line_number}: expected 'u v', got {line!r}"
                )
            edges.append((int(parts[0]), int(parts[1])))
    if len(edges) != m:
        raise GraphConstructionError(
            f"{source}: header promises {m} edges, found {len(edges)}"
        )
    return Graph(n, edges, name=name or source.stem)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def table_to_dict(table: Table) -> dict:
    """A JSON-ready representation of one table."""
    return {
        "title": table.title,
        "headers": list(table.headers),
        "rows": [list(row) for row in table.rows],
        "notes": list(table.notes),
    }


def report_to_dict(report: ExperimentReport) -> dict:
    """A JSON-ready representation of an experiment report."""
    return {
        "experiment_id": report.experiment_id,
        "title": report.title,
        "lines": list(report.lines),
        "tables": [table_to_dict(table) for table in report.tables],
    }


def report_to_json(report: ExperimentReport, indent: int = 2) -> str:
    """Serialize a report to a JSON string."""
    return json.dumps(report_to_dict(report), indent=indent, default=_jsonify)


def write_report_json(report: ExperimentReport, path: PathLike) -> None:
    """Write a report as JSON (atomically; see :func:`atomic_write_text`)."""
    atomic_write_text(path, report_to_json(report))


def table_to_csv(table: Table) -> str:
    """Serialize one table as CSV (headers + rows; notes omitted)."""
    import csv
    import io as _io

    buffer = _io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(table.headers)
    for row in table.rows:
        writer.writerow(list(row))
    return buffer.getvalue()


def _jsonify(value):
    """Best-effort conversion of numpy scalars inside report rows."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__}")
