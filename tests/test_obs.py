"""Tests for the observability layer (`repro.obs`).

Covers phase tracing against a hand-built opinion trajectory with
exactly-known transitions, the per-span phase invariant on both
engines, the event-log reader's rules (today's logs, trace files in
the older ``type`` format, torn and malformed lines), the non-positive
observer-interval bugfix, and the CLI round-trip `run --trace-dir` ->
`trace summarize`, whose engine totals match the spans' sums.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main
from repro.core import (
    IncrementalVoting,
    OpinionState,
    run_div_complete,
    run_dynamics,
    run_synchronous_div,
)
from repro.core.schedulers import VertexScheduler
from repro.errors import EventLogError, ProcessError
from repro.graphs import complete_graph
from repro.obs import (
    EventLog,
    PhaseTraceObserver,
    SpanProfiler,
    active_log,
    active_profiler,
    profiling,
    read_log,
    recording,
    summarize,
)


@contextmanager
def logged(tmp_path):
    """Record the block into a fresh log; yields the list its records
    are read into once the block ends."""
    records = []
    with recording(EventLog(tmp_path, "run")) as log:
        yield records
    records.extend(read_log(log.path).records)


class TestPhaseTraceObserver:
    def test_hand_built_trajectory(self):
        # Support sizes along a fabricated 30-step run:
        #   [0,12) -> 3 distinct opinions, [12,20) -> 2, [20,30) -> 3,
        #   consensus at step 30.
        obs = PhaseTraceObserver()
        state = lambda support: SimpleNamespace(support_size=support)  # noqa: E731
        obs.sample(0, state(3))
        obs.on_change(5, 0, 1, state(3))  # opinion changed, support did not
        obs.on_change(12, 1, 2, state(2))
        obs.on_change(20, 2, 0, state(3))
        obs.on_change(30, 0, 1, state(1))
        obs.sample(30, state(1))  # final endpoint sample

        assert obs.initial_support == 3
        assert obs.transitions == [(12, 2), (20, 3), (30, 1)]
        phases = obs.phases()
        assert [p["support"] for p in phases] == [3, 2, 1]
        assert [p["steps"] for p in phases] == [22, 8, 0]
        assert sum(p["steps"] for p in phases) == 30

    def test_timeline_matches_change_by_change(self):
        # The same fabricated run as above, its changes handed over as
        # two committed stretches: the same transitions and phase steps.
        obs = PhaseTraceObserver()
        obs.sample(0, SimpleNamespace(support_size=3))
        obs.on_timeline(np.array([5, 12]), np.array([3, 2]), np.array([2, 1]))
        obs.on_timeline(np.array([20, 30]), np.array([3, 1]), np.array([2, 0]))
        obs.sample(30, SimpleNamespace(support_size=1))

        assert obs.transitions == [(12, 2), (20, 3), (30, 1)]
        phases = obs.phases()
        assert [(p["support"], p["steps"]) for p in phases] == [(3, 22), (2, 8), (1, 0)]
        assert all(p["seconds"] >= 0.0 for p in phases)

    def test_emit_writes_span_attributes_and_events(self, tmp_path):
        obs = PhaseTraceObserver()
        state = lambda support: SimpleNamespace(support_size=support)  # noqa: E731
        obs.sample(0, state(2))
        obs.on_change(4, 0, 1, state(1))
        obs.sample(4, state(1))

        with logged(tmp_path) as records:
            with active_log().span("engine.run") as span:
                span.update(obs.attrs())
        (span_record,) = [r for r in records if r["kind"] == "span"]
        assert span_record["name"] == "engine.run"
        assert span_record["initial_support"] == 2
        assert span_record["phase_transitions"] == 1
        # The transition events ride on the span as [step, support].
        assert span_record["transitions"] == [[4, 1]]


class TestEnginePhaseInvariant:
    def test_generic_engine_phases_sum_to_steps(self, tmp_path):
        graph = complete_graph(12)
        state = OpinionState(graph, [1, 2, 5] * 4)
        with logged(tmp_path) as records:
            result = run_dynamics(
                state, VertexScheduler(graph), IncrementalVoting(), rng=0
            )
        summary = summarize(records)  # raises on mismatch
        assert summary.engine_spans == 1
        assert summary.total_steps == result.steps
        assert sum(summary.phase_steps.values()) == result.steps
        # The run ends in consensus, so the trace visits support size 1.
        assert 1 in summary.phase_steps

    def test_complete_engine_phases_sum_to_steps(self, tmp_path):
        with logged(tmp_path) as records:
            result = run_div_complete(12, {1: 4, 2: 4, 5: 4}, rng=0)
        summary = summarize(records)
        assert summary.engine_spans == 1
        assert summary.total_steps == result.steps
        (span,) = [r for r in records if r.get("name") == "engine.run_complete"]
        assert span["initial_support"] == 3
        assert span["phase_transitions"] == len(span["transitions"])

    def test_engine_span_counts_block_solves_and_passes(self, tmp_path, capsys):
        graph = complete_graph(12)
        spans = {}
        for kernel in ("block", "loop"):
            with logged(tmp_path / kernel) as records:
                run_dynamics(
                    OpinionState(graph, [1, 2, 5] * 4),
                    VertexScheduler(graph),
                    IncrementalVoting(),
                    rng=0,
                    kernel=kernel,
                )
            (spans[kernel],) = [r for r in records if r.get("name") == "engine.run"]
        block, loop = spans["block"], spans["loop"]
        assert (loop["solves"], loop["passes"]) == (0, 0)
        assert 0 < block["solves"] <= block["passes"]
        summary = summarize(read_log(tmp_path / "block").records)
        assert (summary.total_solves, summary.total_passes) == (
            block["solves"],
            block["passes"],
        )
        assert main(["trace", "summarize", str(tmp_path / "block")]) == 0
        assert (
            f"RNG block(s), {block['solves']} solve(s) in {block['passes']} pass(es), "
            in capsys.readouterr().out
        )

    def test_untraced_runs_emit_nothing(self):
        assert active_log() is None
        result = run_div_complete(12, {1: 6, 5: 6}, rng=0)
        assert result.steps > 0  # no tracer, no spans, still runs


class TestObserverIntervalValidation:
    def test_generic_engine_rejects_non_positive_interval(self):
        graph = complete_graph(6)
        state = OpinionState(graph, [1, 2, 3, 1, 2, 3])
        bad = SimpleNamespace(interval=0, sample=lambda step, state: None)
        with pytest.raises(ProcessError, match="non-positive sample interval"):
            run_dynamics(
                state,
                VertexScheduler(graph),
                IncrementalVoting(),
                rng=0,
                observers=[bad],
            )

    def test_synchronous_engine_rejects_non_positive_interval(self):
        graph = complete_graph(6)
        bad = SimpleNamespace(interval=-3, sample=lambda step, state: None)
        with pytest.raises(ProcessError, match="non-positive sample interval"):
            run_synchronous_div(graph, [1, 2, 3, 1, 2, 3], rng=0, observers=[bad])


#: A trace written by ``run --trace-dir`` before the one event log:
#: ``type`` records, serial trials as spans, pool trials and phase
#: transitions as events. Seconds are rounded for readability.
_LEGACY_TRACE = [
    '{"type": "event", "span": 4, "name": "phase.transition", "step": 1, "support": 4}',
    '{"type": "event", "span": 4, "name": "phase.transition", "step": 94, "support": 1}',
    '{"type": "span", "id": 4, "parent": 3, "name": "engine.run_complete", "start": 1760000004.0, "seconds": 0.0006, "engine": "complete", "steps": 94, "stop_reason": "consensus", "opinion_changes": 40, "rng_blocks": 1, "n": 12, "initial_support": 3, "phase_transitions": 8, "phases": [{"support": 5, "steps": 20, "seconds": 1e-05}, {"support": 4, "steps": 23, "seconds": 2e-05}, {"support": 3, "steps": 2, "seconds": 0.00051}, {"support": 2, "steps": 49, "seconds": 1e-05}, {"support": 1, "steps": 0, "seconds": 0.0}]}',
    '{"type": "span", "id": 3, "parent": 2, "name": "trial", "start": 1760000003.0, "seconds": 0.0007, "index": 0, "worker": "local"}',
    '{"type": "span", "id": 6, "parent": 5, "name": "engine.run_complete", "start": 1760000006.0, "seconds": 0.0004, "engine": "complete", "steps": 154, "stop_reason": "consensus", "opinion_changes": 80, "rng_blocks": 1, "n": 12, "initial_support": 3, "phase_transitions": 10, "phases": [{"support": 5, "steps": 21, "seconds": 1e-05}, {"support": 4, "steps": 12, "seconds": 1e-05}, {"support": 3, "steps": 26, "seconds": 0.00034}, {"support": 2, "steps": 95, "seconds": 1e-05}, {"support": 1, "steps": 0, "seconds": 0.0}]}',
    '{"type": "span", "id": 5, "parent": 2, "name": "trial", "start": 1760000005.0, "seconds": 0.0005, "index": 1, "worker": "local"}',
    '{"type": "span", "id": 2, "parent": 1, "name": "trials.batch", "start": 1760000002.0, "seconds": 0.0043, "kind": "trials", "trials": 3, "workers": 0, "cached": 0}',
    '{"type": "event", "span": 1, "name": "checkpoint.resume", "batch": "b0000-trials-3", "cached": 3}',
    '{"type": "span", "id": 9, "parent": 1, "name": "trials.batch", "start": 1760000009.0, "seconds": 0.0002, "kind": "trials", "trials": 3, "workers": 0, "cached": 3}',
    '{"type": "event", "span": 10, "name": "trial", "index": 0, "seconds": 0.0015, "worker": "pid-3001"}',
    '{"type": "event", "span": 10, "name": "trial", "index": 1, "seconds": 0.0006, "worker": "pid-3001"}',
    '{"type": "span", "id": 10, "parent": 1, "name": "trials.batch", "start": 1760000010.0, "seconds": 0.0207, "kind": "trials", "trials": 2, "workers": 2, "cached": 0}',
    '{"type": "span", "id": 1, "parent": null, "name": "campaign", "start": 1760000001.0, "seconds": 0.0269, "experiment": "E99", "scale": "quick", "seed": "0", "workers": 0, "checkpointed": true, "kernel": "auto"}',
]

#: ``trace summarize`` of ``_LEGACY_TRACE`` as the old trace reader
#: printed it (trailing blanks stripped).
_LEGACY_SUMMARY = """\
campaign E99 [quick] seed=0 workers=serial — 0.03s
2 engine run(s), 248 steps, 120 opinion change(s), 2 RNG block(s), 0.001s engine wall time (0.50±0.10ms/run), 18 phase transition(s)

Per-phase breakdown (phase = number of distinct opinions)
---------------------------------------------------------
|support|  runs  steps  steps %  wall s  wall %
---------  ----  -----  -------  ------  ------
5          2     41     16.5     0.000   2.0
4          2     35     14.1     0.000   3.0
3          2     28     11.3     0.001   85.0
2          2     144    58.1     0.000   2.0
1          2     0      0.0      0.000   0.0
  note: per-span phase steps always sum to the span's total steps (validated while loading)

Per-worker throughput
---------------------
worker    trials  busy s  trials/s
--------  ------  ------  --------
local     2       0.001   1666.7
pid-3001  2       0.002   952.4
"""


class TestTracerRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        log = EventLog(tmp_path, "run", experiment="E0")
        with log.span("campaign", experiment="E0"):
            with log.span("trial") as inner:
                inner.update(index=0, worker="local")
            log.event("checkpoint.resume", batch="b0", cached=3)
        log.close()

        records = read_log(log.path).records
        assert [r["kind"] for r in records] == [
            "hello", "span", "checkpoint.resume", "span", "bye"
        ]
        assert [r["seq"] for r in records] == list(range(5))
        assert {r["launcher"] for r in records} == {"run"}
        hello, trial, event, campaign, _ = records
        assert hello["experiment"] == "E0"
        assert trial["parent"] == campaign["id"]
        assert campaign["parent"] is None
        assert event["cached"] == 3
        assert read_log(tmp_path).records == records

    def test_legacy_type_trace_summarizes_as_before(self, tmp_path, capsys):
        path = tmp_path / "e99.jsonl"
        path.write_text("\n".join(_LEGACY_TRACE) + "\n", encoding="utf-8")
        records = read_log(path).records
        assert "type" not in records[0]
        assert records[0]["kind"] == "phase.transition"
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert [line.rstrip() for line in out.splitlines()] == (
            _LEGACY_SUMMARY.splitlines()
        )

    def test_torn_final_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            _LEGACY_TRACE[3] + "\n" + '{"type": "span", "na', encoding="utf-8"
        )
        log = read_log(path)
        assert len(log.records) == 1
        assert log.torn == {"run": 1}

    def test_malformed_line_raises_trace_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "hello"}\nnot json\n{"kind": "bye"}\n')
        with pytest.raises(EventLogError, match="bad.jsonl:2: malformed"):
            read_log(path)
        # A cut final line is torn; a malformed one that ends in a
        # newline was written whole, so it is damage, not a tear.
        path.write_text('{"kind": "hello"}\nnot json\n')
        with pytest.raises(EventLogError, match="bad.jsonl:2: malformed"):
            read_log(path)

    def test_record_without_type_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "hello"}\n{"name": "x"}\n', encoding="utf-8")
        with pytest.raises(EventLogError, match="bad.jsonl:2: .*no 'kind' or 'type'"):
            read_log(path)

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(EventLogError, match="no .*jsonl"):
            read_log(tmp_path)


class TestProfiler:
    def test_profiling_sections(self):
        assert active_profiler() is None
        with profiling() as profiler:
            assert active_profiler() is profiler
            with profiler.section("work"):
                sum(range(1000))
        rendered = profiler.render()
        assert "work" in rendered
        assert profiler.keys == ["work"]

    def test_empty_profiler_renders_placeholder(self):
        assert "(no profiled sections)" in SpanProfiler().render()


class TestCliRoundTrip:
    def test_run_trace_metrics_and_summarize(self, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        assert (
            main(
                [
                    "run",
                    "E10",
                    "--quick",
                    "--seed",
                    "0",
                    "--trace-dir",
                    str(trace_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        trace_file = trace_dir / "e10.jsonl"
        assert trace_file.is_file()

        # The summary's totals are the sums over the engine spans.
        records = read_log(trace_dir).records
        spans = [
            r for r in records
            if r["kind"] == "span" and r["name"].startswith("engine.")
        ]
        summary = summarize(records)
        assert summary.engine_spans == len(spans) > 0
        assert summary.total_steps == sum(s["steps"] for s in spans)
        changes = sum(s["opinion_changes"] for s in spans)
        blocks = sum(s["rng_blocks"] for s in spans)
        assert summary.total_opinion_changes == changes > 0
        assert summary.total_rng_blocks == blocks > 0
        assert summary.mean_engine_seconds == pytest.approx(
            summary.total_engine_seconds / summary.engine_spans
        )
        assert summary.stddev_engine_seconds >= 0.0

        assert main(["trace", "summarize", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert (
            f"{len(spans)} engine run(s), {summary.total_steps} steps, "
            f"{changes} opinion change(s), {blocks} RNG block(s), "
        ) in out
        assert "ms/run" in out
        assert "|support|" in out
        assert "campaign E10" in out

    def test_summarize_corrupt_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert main(["trace", "summarize", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("div-repro: error:")
        assert "bad.jsonl:1: malformed record" in err

    def test_summarize_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "nope")]) == 2
        assert "no such log file or directory" in capsys.readouterr().err
