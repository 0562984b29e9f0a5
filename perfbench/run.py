"""Benchmark of record for the DIV reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload div-engine.hub --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs one untraced and one traced round and prints the per-layer table
(spans are written under ``.perfbench/trace/``).  The last line of
standard output is the result object; the line before it carries the
host metadata and the calibration round.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"

def _peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


def _timed_rounds(workload, inputs, seconds: float, clock) -> list:
    """Repeat the round until ``seconds`` have passed (at least one round)."""
    rounds = []
    started = time.perf_counter()
    while True:
        done = workload.run_round(inputs, clock)
        # Only the first round keeps its full outputs (for the checks);
        # later ones keep what is compared and timed, so peak memory
        # does not grow with the number of rounds that fit.
        if rounds:
            done = {k: done[k] for k in ("key", "wall", "seconds")}
        rounds.append(done)
        if time.perf_counter() - started >= seconds:
            return rounds


def _result(checks, metrics: dict, units: dict) -> dict:
    failed = sum(1 for _, ok in checks if not ok)
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def measure(workload, seed: int, seconds: float, header: dict):
    """Untraced run: every end-to-end metric plus the output checks."""
    from hostinfo import HostClock
    from workloads import timed_setup

    clock = HostClock()
    # Half the set-ups run before the rounds and half after, so their
    # median samples the host at two moments, not one.
    half = workload.setup_repeats // 2
    inputs, setup_s, _ = timed_setup(workload, seed, half, clock)
    rounds = _timed_rounds(workload, inputs, seconds, clock)
    rest = workload.setup_repeats - half
    setup_s += timed_setup(workload, seed, rest, clock)[1]
    peak = _peak_rss_mb(getattr(workload, "workers", 0))
    checks = workload.checks(inputs, rounds)
    header["rounds"] = len(rounds)
    header["wall_throughput"] = workload.throughput(inputs, rounds, "wall")
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak,
        "passed_frac": sum(1 for _, ok in checks if ok) / len(checks),
        "throughput": workload.throughput(inputs, rounds),
    }
    return checks, metrics


def trace(workload, seed: int, header: dict, work_dir: Path):
    """One untraced and one traced round; the per-layer table.

    Both walls sum the round's timed units, so the calibration kernel
    between units counts in neither.
    """
    from hostinfo import HostClock
    from layers import LayerTrace, layer_fingerprint
    from workloads import timed_setup

    clock = HostClock()
    inputs, _, graph_s = timed_setup(workload, seed, workload.setup_repeats, clock)
    inputs = getattr(workload, "traced_subset", lambda whole: whole)(inputs)
    plain = workload.run_round(inputs, clock)

    recorder = LayerTrace()
    before = layer_fingerprint()
    with recorder.installed():
        during = layer_fingerprint()
        traced = workload.run_round(inputs, clock)

    checks = workload.checks(inputs, [plain])
    checks.append(("trace_wrappers_transparent", before == during))
    checks.append(("trace_outcomes_identical", traced["key"] == plain["key"]))

    untraced_s = sum(plain["wall"])
    traced_s = sum(traced["wall"])
    metrics = {"graphs.build_s": statistics.median(graph_s)}
    metrics.update(recorder.metrics())
    metrics["checkpoint.bytes"] = traced.get("bytes", 0)
    metrics["checkpoint.resume_s"] = traced.get("resume_s", 0.0)
    metrics["trace.wall_s"] = traced_s
    metrics["trace.untraced_wall_s"] = untraced_s
    metrics["trace.overhead"] = traced_s / untraced_s
    metrics["unaccounted_s"] = traced_s - recorder.top_level_s
    path = work_dir / "trace" / f"{workload.name}-seed{seed}.json"
    recorder.write(path, header)
    return checks, metrics


def run_benchmark(name: str, seed: int, seconds: float, traced: bool, *,
                  scale=None, work_dir: Path = WORK_DIR):
    """Run one workload; the header line and the result object."""
    from hostinfo import calibration, host_metadata
    from workloads import FULL, make_workload

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_dir.mkdir(parents=True, exist_ok=True)
    header = {
        "workload": name,
        "seed": seed,
        "host": host_metadata(ROOT),
        "calibration": calibration(),
    }
    workload = make_workload(name, scale or FULL, work_dir)
    if traced:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        checks, metrics = trace(workload, seed, header, work_dir)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        checks, metrics = measure(workload, seed, seconds, header)
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}"
        )
    header["failed_checks"] = sorted({check for check, ok in checks if not ok})
    return header, _result(checks, metrics, units)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    header, result = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(header))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
