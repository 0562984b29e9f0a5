"""Tests for the observability layer (`repro.obs`).

Covers the metrics monoid (merge associativity, empty identity),
phase tracing against a hand-built opinion trajectory with
exactly-known transitions, the per-span phase invariant on both
engines, the event-log reader's rules (today's logs, trace files in
the older ``type`` format, torn and malformed lines), the non-positive
observer-interval bugfix, and the CLI round-trip `run --trace-dir` ->
`trace summarize`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.montecarlo import run_trials
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
    EMPTY_SNAPSHOT,
    EventLog,
    MetricsRegistry,
    PhaseTraceObserver,
    SpanProfiler,
    active_log,
    active_metrics,
    active_profiler,
    collecting,
    merge_snapshots,
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


def _registry(counters=(), gauges=(), observations=()):
    registry = MetricsRegistry()
    for name, value in counters:
        registry.inc(name, value)
    for name, value in gauges:
        registry.gauge(name, value)
    for name, value in observations:
        registry.observe(name, value)
    return registry


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("runs")
        registry.inc("runs", 2)
        registry.gauge("workers", 4)
        registry.gauge("workers", 2)
        registry.observe("seconds", 1.0)
        registry.observe("seconds", 3.0)
        snapshot = registry.snapshot()
        assert snapshot.counters["runs"] == 3
        assert snapshot.gauges["workers"] == 2  # last write wins
        hist = snapshot.histograms["seconds"]
        assert hist.count == 2
        assert hist.total == pytest.approx(4.0)
        assert hist.minimum == pytest.approx(1.0)
        assert hist.maximum == pytest.approx(3.0)
        assert hist.mean == pytest.approx(2.0)

    def test_timer_observes_elapsed(self):
        registry = MetricsRegistry()
        with registry.timer("tick"):
            pass
        hist = registry.snapshot().histograms["tick"]
        assert hist.count == 1
        assert hist.total >= 0.0

    def test_inactive_by_default(self):
        assert active_metrics() is None
        with collecting() as registry:
            assert active_metrics() is registry
        assert active_metrics() is None


class TestSnapshotMerge:
    def test_empty_is_identity(self):
        snapshot = _registry(
            counters=[("a", 2)], gauges=[("g", 7)], observations=[("h", 0.5)]
        ).snapshot()
        left = merge_snapshots([EMPTY_SNAPSHOT, snapshot])
        right = merge_snapshots([snapshot, EMPTY_SNAPSHOT])
        assert left.to_dict() == snapshot.to_dict()
        assert right.to_dict() == snapshot.to_dict()

    def test_merge_is_associative(self):
        a = _registry(counters=[("x", 1)], observations=[("h", 1.0)]).snapshot()
        b = _registry(counters=[("x", 2), ("y", 5)], observations=[("h", 9.0)]).snapshot()
        c = _registry(gauges=[("g", 3)], observations=[("h", 4.0)]).snapshot()
        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        assert left.to_dict() == right.to_dict()
        assert left.counters["x"] == 3
        assert left.histograms["h"].count == 3
        assert left.histograms["h"].maximum == pytest.approx(9.0)

    def test_merge_skips_none(self):
        snapshot = _registry(counters=[("x", 1)]).snapshot()
        merged = merge_snapshots([None, snapshot, None])
        assert merged.counters == {"x": 1}

    def test_absorb_accumulates(self):
        parent = MetricsRegistry()
        parent.inc("x")
        parent.absorb(_registry(counters=[("x", 2)], gauges=[("g", 1)]).snapshot())
        snapshot = parent.snapshot()
        assert snapshot.counters["x"] == 3
        assert snapshot.gauges["g"] == 1


class TestHistogramStddev:
    def test_stddev_matches_numpy_population_stddev(self):
        values = [0.5, 1.25, 3.0, 3.0, 7.5, 0.125]
        registry = MetricsRegistry()
        for value in values:
            registry.observe("h", value)
        hist = registry.snapshot().histograms["h"]
        assert hist.stddev == pytest.approx(float(np.std(values)))

    def test_stddev_is_exact_under_merge(self):
        # The sum-of-squares moment is additive, so a merged histogram's
        # stddev equals the stddev of the pooled observations — not an
        # approximation from per-shard summaries.
        shards = [[1.0, 2.0], [10.0], [0.25, 0.5, 4.0]]
        snapshots = []
        for shard in shards:
            registry = MetricsRegistry()
            for value in shard:
                registry.observe("h", value)
            snapshots.append(registry.snapshot())
        merged = merge_snapshots(snapshots).histograms["h"]
        pooled = [value for shard in shards for value in shard]
        assert merged.stddev == pytest.approx(float(np.std(pooled)))

    def test_empty_and_singleton_stddev(self):
        registry = MetricsRegistry()
        registry.observe("h", 4.2)
        assert registry.snapshot().histograms["h"].stddev == pytest.approx(0.0)

    def test_to_dict_carries_stddev(self):
        registry = MetricsRegistry()
        registry.observe("h", 2.0)
        registry.observe("h", 4.0)
        payload = registry.snapshot().to_dict()
        assert payload["histograms"]["h"]["stddev"] == pytest.approx(1.0)


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


class TestParallelMetrics:
    @staticmethod
    def _trial(index, rng):
        result = run_div_complete(40, {1: 20, 5: 20}, stop="two_adjacent", rng=rng)
        return result.two_adjacent_step

    def test_serial_and_parallel_counters_identical(self):
        with collecting():
            serial = run_trials(8, self._trial, seed=11)
        with collecting():
            parallel = run_trials(8, self._trial, seed=11, workers=2)
        assert serial.outcomes == parallel.outcomes
        assert serial.metrics is not None and parallel.metrics is not None
        assert serial.metrics.counters == parallel.metrics.counters
        assert serial.metrics.counters["engine.runs"] == 8

    def test_no_registry_no_metrics(self):
        batch = run_trials(4, self._trial, seed=11)
        assert batch.metrics is None


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
2 engine run(s), 248 steps, 0.001s engine wall time (0.50±0.10ms/run), 18 phase transition(s)

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
        metrics_out = tmp_path / "metrics.json"
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
                    "--metrics-out",
                    str(metrics_out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        trace_file = trace_dir / "e10.jsonl"
        assert trace_file.is_file()

        # The metrics counters and the trace agree on total work done.
        summary = summarize(read_log(trace_dir).records)
        metrics = json.loads(metrics_out.read_text(encoding="utf-8"))
        assert metrics["counters"]["engine.steps"] == summary.total_steps
        assert metrics["counters"]["engine.runs"] == summary.engine_spans

        # Engine-span dispersion carries through both surfaces: the
        # summary's moments are internally consistent, and --metrics-out
        # now reports per-histogram stddev.
        assert summary.mean_engine_seconds == pytest.approx(
            summary.total_engine_seconds / summary.engine_spans
        )
        assert summary.stddev_engine_seconds >= 0.0
        run_hist = metrics["histograms"]["engine.run_seconds"]
        assert run_hist["stddev"] is not None and run_hist["stddev"] >= 0.0

        assert main(["trace", "summarize", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "engine run(s)" in out
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
