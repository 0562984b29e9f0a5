"""Machine-readable benchmark emission, shared by every ``bench_*.py``.

Each benchmark run produces one JSON record::

    {"name": "test_count_engine_throughput", "params": {...},
     "wall_seconds": 0.0123, "mean_seconds": 0.0131,
     "steps": 100000, "steps_per_second": 8130081.3,
     "git_sha": "7813d2e", "timestamp": 1754500000.0}

``benchmarks/conftest.py`` calls :func:`emit_fixture` for every test
that used the ``benchmark`` fixture, so every bench file emits without
per-test boilerplate; tests attach parameters and step counts through
``benchmark.extra_info``. Records go to the JSONL file named by the
``DIV_REPRO_BENCH_JSONL`` environment variable, or to stdout when it is
unset (still machine-readable, no stray files).

Run as a script to consolidate a records file into one snapshot JSON
(the ``BENCH_<date>.json`` written by ``scripts/bench_snapshot.sh``)::

    python benchmarks/_emit.py consolidate records.jsonl BENCH_20260806.json
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

#: Environment variable naming the JSONL sink for benchmark records.
ENV_VAR = "DIV_REPRO_BENCH_JSONL"

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    """Stdout of one git command in the repo root, or None outside git."""
    try:
        completed = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            cwd=_REPO_ROOT,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout if completed.returncode == 0 else None


def git_sha():
    """Short commit hash of the benchmarked tree, or None outside git."""
    sha = (_git("rev-parse", "--short", "HEAD") or "").strip()
    return sha or None


def git_dirty():
    """Whether tracked files differ from ``HEAD`` (None outside git).

    A dirty tree is not the commit ``git_sha`` names, so a snapshot
    taken from one must say so.
    """
    status = _git("status", "--porcelain", "--untracked-files=no")
    return None if status is None else bool(status.strip())


def source_sha256():
    """SHA-256 over the bytes of ``src/**/*.py`` in sorted path order.

    It names the code a snapshot measured without git, so it also works
    on an exported tree, and it changes with uncommitted edits, which
    the commit hash cannot show.
    """
    src = _REPO_ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py"), key=lambda path: path.relative_to(src).as_posix()):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def emit(name, *, wall_seconds, mean_seconds=None, params=None, steps=None):
    """Append one benchmark record to the configured sink; returns it."""
    record = {
        "name": name,
        "params": dict(params) if params else {},
        "wall_seconds": wall_seconds,
        "mean_seconds": mean_seconds if mean_seconds is not None else wall_seconds,
        "git_sha": git_sha(),
        "timestamp": time.time(),
    }
    if steps is not None:
        record["steps"] = steps
        record["steps_per_second"] = (
            steps / wall_seconds if wall_seconds > 0 else None
        )
    line = json.dumps(record, sort_keys=True)
    target = os.environ.get(ENV_VAR)
    if target:
        path = Path(target)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
    else:
        print(f"[bench-record] {line}")
    return record


def emit_fixture(benchmark):
    """Emit the record of one finished pytest-benchmark fixture.

    ``extra_info`` keys are forwarded as ``params``, except ``steps``,
    which becomes the throughput numerator. The best (minimum) round is
    the headline wall time — it is the least noisy estimator on shared
    runners — with the mean kept alongside.
    """
    stats = benchmark.stats.stats
    info = dict(benchmark.extra_info)
    steps = info.pop("steps", None)
    return emit(
        benchmark.name,
        wall_seconds=stats.min,
        mean_seconds=stats.mean,
        params=info,
        steps=steps,
    )


def consolidate(records_path, out_path):
    """Fold a JSONL records file into one sorted snapshot JSON.

    The header's ``select`` is the run's ``BENCH_SELECT`` (the whole
    ``benchmarks`` suite when unset), so ``div-repro bench compare``
    can tell a subset snapshot from one that dropped a benchmark, and
    its ``source_sha256`` is :func:`source_sha256` of the measured tree.
    """
    source = Path(records_path)
    records = []
    for line in source.read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(json.loads(line))
    records.sort(key=lambda record: record.get("name", ""))
    payload = {
        "format": "div-repro-bench-snapshot",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(),
        "dirty": git_dirty(),
        "source_sha256": source_sha256(),
        "select": " ".join(os.environ.get("BENCH_SELECT", "benchmarks").split()),
        "benchmarks": records,
    }
    Path(out_path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return payload


def main(argv):
    if len(argv) == 4 and argv[1] == "consolidate":
        payload = consolidate(argv[2], argv[3])
        print(
            f"[wrote {argv[3]}: {len(payload['benchmarks'])} benchmark(s) "
            f"at {payload['git_sha']}{' (dirty)' if payload['dirty'] else ''}]"
        )
        return 0
    print(
        "usage: python benchmarks/_emit.py consolidate RECORDS.jsonl OUT.json",
        file=sys.stderr,
    )
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
