"""Command-line interface: ``python -m repro`` or the ``div-repro`` script.

Commands
--------
``list``
    Show all registered experiments.
``run E1 [E5 ...] [--quick] [--seed N] [--workers N] [--kernel K]``
    Run experiments and print their reports (``all`` runs everything).
    ``--workers N`` parallelizes Monte-Carlo trials across N processes
    with outcomes bit-for-bit identical to the serial run.
    ``--kernel loop|block|compiled|auto`` selects the engine execution
    backend (also outcome-identical; see ``docs/kernels.md``).
    ``--checkpoint-dir DIR`` journals every completed trial so a killed
    campaign can continue with ``--resume``; ``--inject-faults SPEC``
    runs a deterministic chaos drill (see ``docs/robustness.md``).
    ``--executor serial|pool`` forces how trials run (default ``auto``:
    serial for one worker, a process pool otherwise).
``campaign status DIR``
    Per-batch journaled-trial counts of a checkpointed campaign, its
    damaged record files (exit 1 when there are any), and a line with
    completed/total trials, the recent rate and the ETA, all read from
    the journal. A campaign run with ``--telemetry`` also gets one line
    per launcher that never closed its log. Follow a live campaign with
    ``watch -n 2 div-repro campaign status DIR``.
``bench compare OLD.json NEW.json [--threshold R]``
    Diff two committed ``BENCH_*.json`` snapshots per benchmark; exits
    1 on any regression beyond the threshold (the CI perf gate).
``demo``
    A 30-second tour: one DIV run with a stage trace on a small graph.
``checkpoint diff A B``
    Compare two campaigns' journaled trial records bit-for-bit.
``trace summarize PATH``
    Per-phase step/wall-time breakdown and per-worker throughput of the
    event logs written by ``run --trace-dir`` or ``run --telemetry``
    (see ``docs/observability.md``). ``run`` also takes ``--profile-out``
    (cProfile hot paths per span).

Expected failures (unknown experiment, bad graph file, corrupt or
mismatched checkpoint — anything raising ``ReproError``) print a
one-line message to stderr and exit 2; tracebacks are reserved for
genuine bugs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.errors import ReproError
from repro.experiments.registry import all_experiments, get_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="div-repro",
        description="Reproduction harness for 'Discrete Incremental Voting on Expanders'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("experiments", nargs="+", help="experiment ids (E1..E19) or 'all'")
    run.add_argument("--quick", action="store_true", help="benchmark-scale configs")
    run.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="parallel trial workers (outcomes identical to serial; "
        "experiments without parallel support run serially)",
    )
    run.add_argument(
        "--kernel",
        choices=("auto", "block", "compiled", "loop"),
        default="auto",
        help="engine execution kernel: 'loop' (per-step reference), "
        "'block' (vectorized fixed-point solve per block), 'compiled' "
        "(numba machine-code loop; falls back to block without numba) "
        "or 'auto' (default; block wherever the dynamics has step_block, "
        "else loop). "
        "Reports are bit-for-bit identical across kernels "
        "(docs/kernels.md)",
    )
    run.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write each report as DIR/<id>.json",
    )
    run.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="journal completed trials under DIR/<experiment id> so an "
        "interrupted campaign can be resumed",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="skip trials already journaled in --checkpoint-dir "
        "(outcomes stay bit-for-bit identical to an uninterrupted run)",
    )
    run.add_argument(
        "--discard-corrupt",
        action="store_true",
        help="re-run trials whose checkpoint records fail their "
        "integrity check instead of aborting the resume",
    )
    run.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=None,
        help="deterministic chaos drill: scripted worker crashes/hangs "
        "and checkpoint damage by trial index, e.g. "
        "'crash@3:1;hang@5:1;corrupt@7' (see docs/robustness.md)",
    )
    run.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for each parallel dispatch round "
        "(enforced as one per-round deadline across its chunks)",
    )
    run.add_argument(
        "--executor",
        choices=("auto", "serial", "pool"),
        default="auto",
        help="trial execution: 'serial' (in-process), 'pool' (local "
        "process pool) or 'auto' (default; serial/pool from --workers). "
        "Outcomes are bit-for-bit identical across executors "
        "(docs/robustness.md)",
    )
    run.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="pool retry rounds after a worker crash or chunk timeout "
        "before falling back in-process",
    )
    run.add_argument(
        "--telemetry",
        action="store_true",
        help="write this launcher's event log under "
        "<checkpoint dir>/<experiment>/telemetry/ for 'trace summarize' "
        "and the unclosed launchers of 'campaign status' (requires "
        "--checkpoint-dir; not with --trace-dir)",
    )
    run.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="write one JSONL event log per experiment under DIR "
        "(inspect with 'div-repro trace summarize DIR'; see "
        "docs/observability.md)",
    )
    run.add_argument(
        "--profile-out",
        metavar="FILE",
        default=None,
        help="profile the run with cProfile (slow!) and write per-span "
        "hot-path stats to FILE",
    )

    sub.add_parser("demo", help="run a small annotated DIV demo")

    report = sub.add_parser(
        "report", help="run every experiment and write one combined markdown report"
    )
    report.add_argument("output", help="output markdown file")
    report.add_argument("--quick", action="store_true", help="benchmark-scale configs")
    report.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    report.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="parallel trial workers (outcomes identical to serial)",
    )
    report.add_argument(
        "--kernel",
        choices=("auto", "block", "compiled", "loop"),
        default="auto",
        help="engine execution kernel (bit-identical; see docs/kernels.md)",
    )

    trace = sub.add_parser(
        "trace",
        help="inspect the event logs written by 'run --trace-dir' or "
        "'run --telemetry'",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="per-phase step/wall-time breakdown and per-worker throughput "
        "of a log file, a directory of them, or a campaign",
    )
    summarize.add_argument(
        "path", help="log .jsonl file, a directory of them, or a campaign dir"
    )

    campaign = sub.add_parser(
        "campaign",
        help="inspect checkpointed campaigns, live or finished",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    status = campaign_sub.add_parser(
        "status",
        help="per-batch journaled-trial counts, damaged record files, "
        "progress and ETA of a campaign directory, plus unclosed "
        "launchers when it was run with --telemetry (follow it live with "
        "'watch -n 2 div-repro campaign status DIR')",
    )
    status.add_argument("directory", help="campaign dir (or a parent of several)")

    bench = sub.add_parser(
        "bench", help="compare committed benchmark snapshots"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    compare = bench_sub.add_parser(
        "compare",
        help="diff two BENCH_*.json snapshots per benchmark; exit 1 on "
        "regressions beyond the threshold or missing benchmarks (absent "
        "ones are only skipped when the snapshots ran different selections)",
    )
    compare.add_argument("old", help="baseline snapshot (the committed one)")
    compare.add_argument("new", help="candidate snapshot")
    compare.add_argument(
        "--threshold",
        type=float,
        default=0.3,
        metavar="RATIO",
        help="relative mean-time change that counts as a regression/"
        "improvement (default 0.3 = 30%%)",
    )
    compare.add_argument(
        "--min-seconds",
        type=float,
        default=1e-4,
        metavar="S",
        help="noise floor: benchmarks with baseline mean below S are "
        "never judged (default 1e-4)",
    )

    checkpoint = sub.add_parser(
        "checkpoint", help="compare campaign checkpoint directories"
    )
    checkpoint_sub = checkpoint.add_subparsers(dest="checkpoint_command", required=True)
    diff = checkpoint_sub.add_parser(
        "diff",
        help="compare two campaigns' trial records bit-for-bit "
        "(exit 1 on any difference)",
    )
    diff.add_argument("left", help="first campaign directory")
    diff.add_argument("right", help="second campaign directory")
    return parser


def _cmd_list() -> int:
    for spec in all_experiments():
        print(f"{spec.experiment_id:>4}  {spec.title}")
    return 0


def _cmd_run(args) -> int:
    ids: List[str] = args.experiments
    quick: bool = args.quick
    seed: int = args.seed
    json_dir: Optional[str] = args.json
    workers: Optional[int] = args.workers
    fault_plan = None
    if args.inject_faults is not None:
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.parse(args.inject_faults)
        print(f"[chaos drill: injecting faults {fault_plan.render()}]")
    if args.resume and args.checkpoint_dir is None:
        from repro.errors import CheckpointError

        raise CheckpointError("--resume requires --checkpoint-dir")
    if args.telemetry and args.trace_dir is not None:
        from repro.errors import ObservabilityError

        raise ObservabilityError(
            "--trace-dir and --telemetry are two destinations of the one "
            "event log; pass only one of them"
        )
    campaign_options = dict(
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        discard_corrupt=args.discard_corrupt,
        fault_plan=fault_plan,
        trial_timeout=args.trial_timeout,
        max_retries=args.max_retries,
        kernel=None if args.kernel == "auto" else args.kernel,
        executor=None if args.executor == "auto" else args.executor,
        telemetry=args.telemetry,
    )
    if any(e.lower() == "all" for e in ids):
        specs = all_experiments()
    else:
        specs = [get_experiment(e) for e in ids]
    from contextlib import ExitStack

    with ExitStack() as stack:
        profiler = None
        if args.profile_out is not None:
            from repro.obs.profile import profiling

            profiler = stack.enter_context(profiling())
        for spec in specs:
            if workers is not None and not spec.supports_workers:
                print(
                    f"[{spec.experiment_id} has no parallel trial support; "
                    "running serially]"
                )
            started = time.time()
            log = None
            with ExitStack() as spec_stack:
                if args.trace_dir is not None:
                    from repro.obs.log import EventLog, recording

                    log = spec_stack.enter_context(
                        recording(
                            EventLog(args.trace_dir, spec.experiment_id.lower())
                        )
                    )
                report = spec.run_campaign(
                    "quick" if quick else "full",
                    seed=seed,
                    workers=workers,
                    **campaign_options,
                )
            print(report.render())
            print(
                f"\n[{spec.experiment_id} finished in "
                f"{time.time() - started:.1f}s]\n"
            )
            if log is not None:
                print(f"[wrote trace {log.path}]\n")
            if json_dir is not None:
                from pathlib import Path

                from repro.io import write_report_json

                directory = Path(json_dir)
                directory.mkdir(parents=True, exist_ok=True)
                target = directory / f"{spec.experiment_id.lower()}.json"
                write_report_json(report, target)
                print(f"[wrote {target}]\n")
        if profiler is not None:
            from repro.io import atomic_write_text

            atomic_write_text(args.profile_out, profiler.render())
            print(f"[wrote profile {args.profile_out}]")
    return 0


def _cmd_demo() -> int:
    from repro.analysis.initializers import opinions_from_counts
    from repro.core.div import run_div
    from repro.core.observers import StageRecorder
    from repro.graphs import complete_graph

    graph = complete_graph(30)
    opinions = opinions_from_counts({1: 10, 2: 10, 5: 10}, rng=0)
    recorder = StageRecorder()
    result = run_div(graph, opinions, process="vertex", rng=1, observers=[recorder])
    print(f"DIV on {graph.name}, initial opinions {{1,2,5}} (c = {result.initial_mean:.2f})")
    trajectory = " -> ".join(
        "{" + ",".join(map(str, stage.support)) + "}" for stage in recorder.stages
    )
    print(f"stage evolution: {trajectory}")
    print(
        f"winner {result.winner} after {result.steps} steps "
        f"(two adjacent opinions from step {result.two_adjacent_step})"
    )
    return 0


def _campaign_dirs(directory) -> list:
    """The campaign dirs under ``directory`` (itself, or its children)."""
    from pathlib import Path

    from repro.checkpoint import MANIFEST_NAME
    from repro.errors import CheckpointError

    root = Path(directory)
    if (root / MANIFEST_NAME).is_file():
        return [root]
    if root.is_dir():
        found = sorted(
            child for child in root.iterdir() if (child / MANIFEST_NAME).is_file()
        )
        if found:
            return found
    raise CheckpointError(
        f"{root}: no campaign found (expected {MANIFEST_NAME} in it or in "
        "a direct subdirectory)"
    )


def _cmd_trace_summarize(path: str) -> int:
    from repro.experiments.tables import Table
    from repro.obs.log import read_log
    from repro.obs.views import summarize

    log = read_log(path)
    summary = summarize(log.records)
    for record in summary.campaigns:
        workers = record.get("workers", 0)
        print(
            f"campaign {record.get('experiment', '?')} "
            f"[{record.get('scale', '?')}] seed={record.get('seed', '?')} "
            f"workers={workers if workers else 'serial'} "
            f"— {record.get('seconds', 0.0):.2f}s"
        )
    # Only block-kernel runs solve; other traces print as they always did.
    solves = (
        f"{summary.total_solves} solve(s) in {summary.total_passes} pass(es), "
        if summary.total_solves
        else ""
    )
    print(
        f"{summary.engine_spans} engine run(s), {summary.total_steps} steps, "
        f"{summary.total_opinion_changes} opinion change(s), "
        f"{summary.total_rng_blocks} RNG block(s), {solves}"
        f"{summary.total_engine_seconds:.3f}s engine wall time "
        f"({1e3 * summary.mean_engine_seconds:.2f}"
        f"±{1e3 * summary.stddev_engine_seconds:.2f}ms/run), "
        f"{summary.phase_transitions} phase transition(s)"
    )
    if summary.phase_steps:
        table = Table(
            title="Per-phase breakdown (phase = number of distinct opinions)",
            headers=["|support|", "runs", "steps", "steps %", "wall s", "wall %"],
        )
        total_steps = max(summary.total_steps, 1)
        total_seconds = max(summary.total_engine_seconds, 1e-12)
        for support in sorted(summary.phase_steps, reverse=True):
            steps = summary.phase_steps[support]
            seconds = summary.phase_seconds.get(support, 0.0)
            table.add_row(
                support,
                summary.phase_spans.get(support, 0),
                steps,
                f"{100.0 * steps / total_steps:.1f}",
                f"{seconds:.3f}",
                f"{100.0 * seconds / total_seconds:.1f}",
            )
        table.add_note(
            "per-span phase steps always sum to the span's total steps "
            "(validated while loading)"
        )
        print()
        print(table.render())
    if summary.workers:
        table = Table(
            title="Per-worker throughput",
            headers=["worker", "trials", "busy s", "trials/s"],
        )
        for worker in sorted(summary.workers):
            trials, busy = summary.workers[worker]
            rate = trials / busy if busy > 0 else float("inf")
            table.add_row(worker, trials, f"{busy:.3f}", f"{rate:.1f}")
        print()
        print(table.render())
    if log.torn:
        print(f"note: {sum(log.torn.values())} torn final line(s) skipped")
    return 0


def _cmd_campaign_status(directory: str) -> int:
    """Print each campaign's journal: identity, intact trials per batch,
    the record files that fail their integrity check (the ones a
    ``--discard-corrupt`` resume deletes and reruns), then its progress:
    completed/total trials, recent rate and ETA. A campaign with a
    ``telemetry/`` log also gets a line per launcher that never wrote
    its ``bye``. Exit 1 when any file is damaged."""
    from repro.checkpoint import CheckpointJournal
    from repro.obs.log import TELEMETRY_DIRNAME, read_log
    from repro.obs.views import launcher_timelines

    any_damaged = False
    now = time.time()
    for campaign_dir in _campaign_dirs(directory):
        journal = CheckpointJournal(campaign_dir)
        manifest = journal.read_manifest()
        census = journal.census()
        print(
            f"{campaign_dir}: {manifest.get('experiment_id', '?')} "
            f"[{manifest.get('scale', '?')}] seed={manifest.get('seed', '?')} "
            f"— {census.completed} journaled trial(s) in "
            f"{len(census.per_batch)} batch(es)"
        )
        for batch in sorted(census.per_batch):
            print(f"  {batch}: {census.per_batch[batch]} trial(s)")
        for path in census.damaged:
            print(
                f"  damaged: {path} (--discard-corrupt deletes it and reruns "
                "its trials)"
            )
        any_damaged = any_damaged or bool(census.damaged)
        if census.per_batch:
            eta = census.eta_seconds(now)
            eta_text = "done" if eta == 0.0 else ("?" if eta is None else f"{eta:.0f}s")
            print(
                f"  progress: {census.completed}/{census.total} trial(s), "
                f"{census.recent_rate(now):.1f} trials/s recently, ETA {eta_text}"
            )
        if (campaign_dir / TELEMETRY_DIRNAME).is_dir():
            launchers = launcher_timelines(read_log(campaign_dir))
            for name in sorted(launchers):
                if not launchers[name].closed:
                    print(
                        f"  unclosed launcher {name}: last record "
                        f"{max(0.0, now - launchers[name].last_seen):.1f}s ago"
                    )
    return 1 if any_damaged else 0


def _cmd_bench_compare(
    old: str, new: str, threshold: float, min_seconds: float
) -> int:
    from repro.obs.bench import compare_snapshots, load_snapshot, snapshot_origin

    old_snapshot, new_snapshot = load_snapshot(old), load_snapshot(new)
    print(f"old: {snapshot_origin(old_snapshot)}  {old}")
    print(f"new: {snapshot_origin(new_snapshot)}  {new}")
    deltas = compare_snapshots(
        old_snapshot,
        new_snapshot,
        threshold=threshold,
        min_seconds=min_seconds,
    )
    failed = [delta for delta in deltas if delta.failed]
    width = max((len(delta.name) for delta in deltas), default=4)
    for delta in deltas:
        if delta.status in ("missing", "skipped"):
            detail = f"{1e3 * delta.old_mean:9.3f}ms ->   (absent)"
        elif delta.status == "new":
            detail = f"  (absent)   -> {1e3 * delta.new_mean:9.3f}ms"
        else:
            detail = (
                f"{1e3 * delta.old_mean:9.3f}ms -> {1e3 * delta.new_mean:9.3f}ms "
                f"({delta.ratio - 1.0:+7.1%})".replace("%", " %")
            )
        print(f"{delta.status.upper():>9}  {delta.name:<{width}}  {detail}")
    print(
        f"{len(deltas)} benchmark(s) compared at threshold "
        f"{threshold:.0%}: {len(failed)} regression(s)/missing"
    )
    return 1 if failed else 0


def _cmd_checkpoint_diff(left: str, right: str) -> int:
    from repro.checkpoint import CheckpointJournal, diff_journals

    differences = diff_journals(CheckpointJournal(left), CheckpointJournal(right))
    if not differences:
        print(f"identical: {left} == {right} (bit-for-bit)")
        return 0
    for line in differences:
        print(line)
    print(f"{len(differences)} difference(s)")
    return 1


def _cmd_report(
    output: str,
    quick: bool,
    seed: int,
    workers: Optional[int],
    kernel: Optional[str],
) -> int:
    from pathlib import Path

    sections = [
        "# DIV reproduction — combined experiment report",
        "",
        f"Scale: {'quick (benchmark)' if quick else 'full (paper)'} configurations, "
        f"master seed {seed}. Regenerate with "
        f"`python -m repro report {output}{' --quick' if quick else ''} --seed {seed}`.",
    ]
    for spec in all_experiments():
        started = time.time()
        runner = spec.run_quick if quick else spec.run_full
        report = runner(seed=seed, workers=workers, kernel=kernel)
        elapsed = time.time() - started
        print(f"[{spec.experiment_id} finished in {elapsed:.1f}s]")
        sections.append("")
        sections.append("```")
        sections.append(report.render())
        sections.append("```")
    Path(output).write_text("\n".join(sections) + "\n", encoding="utf-8")
    print(f"[wrote {output}]")
    return 0


def _dispatch(args) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "report":
        return _cmd_report(
            args.output,
            args.quick,
            args.seed,
            args.workers,
            None if args.kernel == "auto" else args.kernel,
        )
    if args.command == "trace":
        return _cmd_trace_summarize(args.path)
    if args.command == "campaign":
        return _cmd_campaign_status(args.directory)
    if args.command == "bench":
        return _cmd_bench_compare(
            args.old, args.new, args.threshold, args.min_seconds
        )
    if args.command == "checkpoint":
        return _cmd_checkpoint_diff(args.left, args.right)
    return 2  # pragma: no cover - argparse enforces the choices


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Expected failures — anything raising :class:`~repro.errors.ReproError`
    (unknown experiment id, malformed graph file, corrupt or mismatched
    checkpoint, bad fault spec) — print one line to stderr and exit 2.
    Unexpected exceptions keep their traceback: those are bugs, not
    usage errors.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"div-repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer closed early (`div-repro trace summarize | head`).
        # Detach stdout so the interpreter's shutdown flush can't raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
