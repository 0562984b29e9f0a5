"""Tests for the event log as a campaign feed, the campaign timeline
folded from it, and the ``bench compare`` perf gate.

Covers the accounting rules (completed vs executed vs duplicates),
merge determinism over shuffled and torn logs, the telemetry-drop
fault, the zero-overhead contract when no log is installed, an aborted
and then resumed campaign reconciled against its journal, and the
bench-compare perf gate's edge cases. ``campaign status``, which
renders the timeline, is tested in ``tests/test_cli.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import re
import time
import warnings
from pathlib import Path

import pytest

from repro.analysis.montecarlo import run_trials, run_trials_over
from repro.checkpoint import CheckpointJournal, campaign
from repro.errors import BenchCompareError, EventLogError, ExperimentError
from repro.faults import FaultPlan, InjectedAbort
from repro.cli import main as cli_main
from repro.obs.bench import (
    BenchDelta,
    compare_snapshots,
    load_snapshot,
    snapshot_origin,
)
from repro.obs.log import (
    FEED_FORMAT,
    TELEMETRY_DIRNAME,
    EventLog,
    active_log,
    read_log,
    recording,
    suspended,
)
from repro.obs.views import campaign_timeline


def load_timeline(source):
    return campaign_timeline(read_log(source))


def probe_trial(index, rng):
    """Returns whether the worker saw an ambient log (it never should)."""
    return (index, active_log() is not None)


def journal_trial(index, rng):
    return (index, int(rng.integers(0, 1 << 30)))


def grid_trial(parameter, index, rng):
    return (parameter, index, int(rng.integers(0, 1 << 30)))


def _open_journal(directory):
    journal = CheckpointJournal(directory)
    journal.open(
        fingerprint="timeline-test",
        resume=True,
        experiment_id="E99",
        scale="quick",
        seed=0,
    )
    return journal


def write_feed(directory, name, records):
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return path


def hand_built_campaign(root, age=120.0):
    """Two hand-written launcher feeds: alpha finished, beta went silent.

    Batch ``b0`` has size 4; indices {0, 1, 2} are completed (beta ran
    index 1 a second time, a duplicate), so the campaign reads 3/4 done
    with one unclosed launcher. The hellos carry the ``heartbeat_interval``
    field older logs wrote; the reader ignores it.
    """
    now = time.time()
    old = now - age
    telemetry = root / TELEMETRY_DIRNAME
    write_feed(
        telemetry,
        "a-alpha.jsonl",
        [
            {
                "seq": 0, "t": old, "kind": "hello", "format": FEED_FORMAT,
                "version": 1, "launcher": "alpha", "host": "h", "pid": 1,
                "heartbeat_interval": 0.1,
            },
            {
                "seq": 1, "t": old + 0.1, "kind": "batch.begin",
                "batch": "b0", "batch_kind": "trials", "size": 4, "cached": 0,
            },
            {
                "seq": 2, "t": old + 0.2, "kind": "trial", "batch": "b0",
                "index": 0, "seconds": 0.05, "worker": "w0",
            },
            {
                "seq": 3, "t": old + 0.3, "kind": "trial", "batch": "b0",
                "index": 1, "seconds": 0.07, "worker": "w0",
            },
            {
                "seq": 4, "t": old + 0.4, "kind": "batch.end", "batch": "b0",
                "executor": "pool", "seconds": 0.4, "trials": 2,
            },
            {"seq": 5, "t": old + 0.5, "kind": "bye", "dropped": 0},
        ],
    )
    write_feed(
        telemetry,
        "b-beta.jsonl",
        [
            {
                "seq": 0, "t": old, "kind": "hello", "format": FEED_FORMAT,
                "version": 1, "launcher": "beta", "host": "h", "pid": 2,
                "heartbeat_interval": 0.1,
            },
            {
                "seq": 1, "t": old + 0.25, "kind": "trial", "batch": "b0",
                "index": 2, "seconds": 0.04, "worker": "w1",
            },
            {
                "seq": 2, "t": old + 0.3, "kind": "trial", "batch": "b0",
                "index": 1, "seconds": 0.06, "worker": "w1",
            },
        ],
    )
    return root


class TestFeed:
    def test_hello_first_bye_last_seq_monotonic(self, tmp_path):
        feed = EventLog(tmp_path / TELEMETRY_DIRNAME, experiment="E99")
        with feed.batch("b0", "trials", 2) as end:
            feed.trial(0, 0.01, "w")
            feed.trial(1, 0.02, "w")
            end["executor"] = "serial"
        feed.close()
        records, torn = read_log(feed.path)
        assert torn == {}
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert records[0]["kind"] == "hello"
        assert records[0]["format"] == FEED_FORMAT
        assert records[0]["experiment"] == "E99"
        assert records[-1]["kind"] == "bye"

    def test_close_is_idempotent(self, tmp_path):
        feed = EventLog(tmp_path / TELEMETRY_DIRNAME)
        feed.close()
        feed.close()
        records, _ = read_log(feed.path)
        assert [r["kind"] for r in records] == ["hello", "bye"]

    def test_anonymous_batch_key_is_deterministic(self, tmp_path):
        feed = EventLog(tmp_path / TELEMETRY_DIRNAME)
        with feed.batch(None, "trials", 8):
            feed.trial(0, 0.01, "w")
        feed.close()
        records, _ = read_log(feed.path)
        assert {r["batch"] for r in records if "batch" in r} == {
            "anon-0000-trials-8"
        }

    def test_drop_indices_suppress_trial_records(self, tmp_path):
        feed = EventLog(
            tmp_path / TELEMETRY_DIRNAME, drop_indices=(1, 3)
        )
        with feed.batch("b0", "trials", 4):
            for index in range(4):
                feed.trial(index, 0.01, "w")
        feed.close()
        records, _ = read_log(feed.path)
        trial_indices = [r["index"] for r in records if r["kind"] == "trial"]
        assert trial_indices == [0, 2]
        assert records[-1]["kind"] == "bye"
        assert records[-1]["dropped"] == 2

    def test_failing_filesystem_disables_feed_with_warning(self, tmp_path):
        class FullDisk:
            def write(self, data):
                raise OSError("disk full")

            def close(self):
                pass

        feed = EventLog(tmp_path / TELEMETRY_DIRNAME)
        handle, feed._file = feed._file, FullDisk()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            feed.trial(0, 0.01, "w")
            feed.trial(1, 0.01, "w")  # silent: feed already disabled
            feed.close()
        messages = [
            str(w.message)
            for w in caught
            if issubclass(w.category, RuntimeWarning)
        ]
        assert len(messages) == 1
        assert "stopped writing" in messages[0]
        # Only the hello made it to disk; no bye after the failure.
        handle.close()
        records, _ = read_log(feed.path)
        assert [r["kind"] for r in records] == ["hello"]

    def test_suspended_hides_ambient_feed(self, tmp_path):
        feed = EventLog(tmp_path / TELEMETRY_DIRNAME)
        with recording(feed):
            assert active_log() is feed
            with suspended():
                assert active_log() is None
            assert active_log() is feed
        assert active_log() is None


class TestMergeDeterminism:
    def test_shuffled_lines_and_directory_copies_merge_identically(
        self, tmp_path
    ):
        first = hand_built_campaign(tmp_path / "one")
        telemetry = first / TELEMETRY_DIRNAME
        # A copy whose feed lines are reversed on disk: same records,
        # maximally different physical order.
        second = tmp_path / "two" / TELEMETRY_DIRNAME
        second.mkdir(parents=True)
        for path in telemetry.glob("*.jsonl"):
            lines = path.read_text().splitlines()
            (second / path.name).write_text(
                "\n".join(reversed(lines)) + "\n"
            )
        assert read_log(first).records == read_log(tmp_path / "two").records
        one = load_timeline(first)
        two = load_timeline(tmp_path / "two")
        assert one.completed == two.completed == 3
        assert one.duplicates == two.duplicates == 1
        assert sorted(one.launchers) == sorted(two.launchers)
        for name in one.launchers:
            assert one.launchers[name].executed == two.launchers[name].executed

    def test_torn_tail_dropped_and_counted(self, tmp_path):
        root = hand_built_campaign(tmp_path / "campaign")
        telemetry = root / TELEMETRY_DIRNAME
        victim = telemetry / "b-beta.jsonl"
        with open(victim, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 4, "kind": "trial", "ind')  # killed mid-write
        timeline = load_timeline(root)
        assert timeline.torn_lines == 1
        assert timeline.launchers["beta"].torn_lines == 1
        assert timeline.completed == 3  # the tear costs nothing else

    def test_unknown_kinds_pass_and_malformed_lines_raise(self, tmp_path):
        telemetry = tmp_path / TELEMETRY_DIRNAME
        records = [
            {
                "seq": 0, "t": 1.0, "kind": "hello",
                "format": FEED_FORMAT, "launcher": "solo",
            },
            {"seq": 1, "t": 2.0, "kind": "sparkle", "payload": 7},
        ]
        path = write_feed(telemetry, "feed.jsonl", records)
        timeline = load_timeline(tmp_path)
        assert timeline.torn_lines == 0
        # Unknown kinds survive into the record stream (forward compat),
        # and the timeline fold skips them.
        assert [r["kind"] for r in read_log(tmp_path).records] == [
            "hello", "sparkle"
        ]
        assert list(timeline.launchers) == ["solo"]
        # Only a cut final line is debris; a whole malformed line is
        # damage, reported with its file and line.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        with pytest.raises(EventLogError, match="feed.jsonl:3: malformed"):
            load_timeline(tmp_path)
        write_feed(telemetry, "feed.jsonl", records + [{"t": 3.0, "no": "kind"}])
        with pytest.raises(EventLogError, match="feed.jsonl:3: not a log record"):
            load_timeline(tmp_path)

    def test_empty_telemetry_dir_is_empty_timeline(self, tmp_path):
        (tmp_path / TELEMETRY_DIRNAME).mkdir()
        timeline = load_timeline(tmp_path)
        assert timeline.launchers == {}
        assert timeline.total == 0

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(EventLogError, match="no such log file or directory"):
            load_timeline(tmp_path / "nope")

    def test_untelemetered_campaign_raises(self, tmp_path):
        with pytest.raises(EventLogError, match="has no telemetry/"):
            load_timeline(tmp_path)

    def test_foreign_format_feed_rejected(self, tmp_path):
        write_feed(
            tmp_path / TELEMETRY_DIRNAME,
            "feed.jsonl",
            [{"seq": 0, "t": 1.0, "kind": "hello", "format": "otherproduct"}],
        )
        with pytest.raises(EventLogError, match="not a div-repro event log"):
            load_timeline(tmp_path)

    def test_resolve_accepts_telemetry_dir_itself(self, tmp_path):
        hand_built_campaign(tmp_path)
        telemetry = tmp_path / TELEMETRY_DIRNAME
        assert read_log(telemetry) == read_log(tmp_path)
        assert len(read_log(telemetry).records) == 9


class TestTimelineAccounting:
    def test_completed_executed_and_duplicates(self, tmp_path):
        timeline = load_timeline(hand_built_campaign(tmp_path))
        assert timeline.total == 4
        assert timeline.completed == 3
        assert timeline.duplicates == 1
        assert timeline.executed == 4
        alpha = timeline.launchers["alpha"]
        beta = timeline.launchers["beta"]
        assert alpha.executed == 2 and beta.executed == 2
        assert alpha.closed and not beta.closed
        batch = timeline.batches["b0"]
        assert batch.completed_indices == {0, 1, 2}
        assert batch.remaining == 1 and not batch.done
        assert batch.finished_by == {"alpha": "pool"}

    def test_eta_is_zero_when_done_none_when_rateless(self, tmp_path):
        telemetry = tmp_path / TELEMETRY_DIRNAME
        write_feed(
            telemetry,
            "feed.jsonl",
            [
                {
                    "seq": 0, "t": 1.0, "kind": "hello",
                    "format": FEED_FORMAT, "launcher": "solo",
                },
                {
                    "seq": 1, "t": 1.1, "kind": "batch.begin", "batch": "b0",
                    "batch_kind": "trials", "size": 1, "cached": 0,
                },
                {
                    "seq": 2, "t": 1.2, "kind": "trial", "batch": "b0",
                    "index": 0, "seconds": 0.01, "worker": "w",
                },
            ],
        )
        assert load_timeline(tmp_path).eta_seconds(1.3) == pytest.approx(0.0)
        # A campaign with remaining work but no executed trial has no
        # execution rate to extrapolate from.
        write_feed(
            tmp_path / "stalled" / TELEMETRY_DIRNAME,
            "feed.jsonl",
            [
                {
                    "seq": 0, "t": 1.0, "kind": "hello",
                    "format": FEED_FORMAT, "launcher": "solo",
                },
                {
                    "seq": 1, "t": 1.1, "kind": "batch.begin", "batch": "b0",
                    "batch_kind": "trials", "size": 5, "cached": 0,
                },
            ],
        )
        assert load_timeline(tmp_path / "stalled").eta_seconds(1.3) is None
        # Two launchers, each at 10 trials/s: "first" runs 25 s and dies;
        # "second" resumes 5 s later and has run 2 s at ``now``. Only the
        # launcher now running counts, from its own start, so neither
        # the dead one's trials nor the gap dilute the rate.
        relaunched = tmp_path / "relaunched" / TELEMETRY_DIRNAME
        first_index = 0
        for name, started, count in (("first", 100.0, 250), ("second", 130.0, 20)):
            records = [
                {
                    "seq": 0, "t": started, "kind": "hello",
                    "format": FEED_FORMAT, "launcher": name,
                },
                {
                    "seq": 1, "t": started, "kind": "batch.begin", "batch": "b0",
                    "batch_kind": "trials", "size": 300, "cached": first_index,
                },
            ]
            for k in range(1, count + 1):
                records.append(
                    {
                        "seq": k + 1, "t": started + k / 10, "kind": "trial",
                        "batch": "b0", "index": first_index + k - 1,
                        "seconds": 0.1, "worker": "w",
                    }
                )
            write_feed(relaunched, f"{name}.jsonl", records)
            first_index += count
        timeline = load_timeline(tmp_path / "relaunched")
        assert timeline.recent_rate(132.0) == pytest.approx(10.0)
        assert timeline.eta_seconds(132.0) == pytest.approx(3.0)

    def test_cached_trials_count_toward_completion(self, tmp_path):
        write_feed(
            tmp_path / TELEMETRY_DIRNAME,
            "feed.jsonl",
            [
                {
                    "seq": 0, "t": 1.0, "kind": "hello",
                    "format": FEED_FORMAT, "launcher": "resumed",
                },
                {
                    "seq": 1, "t": 1.1, "kind": "batch.begin", "batch": "b0",
                    "batch_kind": "trials", "size": 10, "cached": 7,
                },
                {
                    "seq": 2, "t": 1.2, "kind": "trial", "batch": "b0",
                    "index": 7, "seconds": 0.01, "worker": "w",
                },
            ],
        )
        timeline = load_timeline(tmp_path)
        batch = timeline.batches["b0"]
        assert batch.completed == 8
        assert batch.remaining == 2

    def test_peer_cached_trials_never_double_count(self, tmp_path):
        # Launcher "late" opened the batch after "early" had journaled
        # trial 0, so it reports cached=1 — but early's feed also holds
        # the trial record, and both feeds hold trial 1. cached is a
        # floor, not an additive term: completion must never exceed the
        # batch size.
        write_feed(
            tmp_path / TELEMETRY_DIRNAME,
            "early.jsonl",
            [
                {
                    "seq": 0, "t": 1.0, "kind": "hello",
                    "format": FEED_FORMAT, "launcher": "early",
                },
                {
                    "seq": 1, "t": 1.1, "kind": "batch.begin", "batch": "b0",
                    "batch_kind": "trials", "size": 2, "cached": 0,
                },
                {
                    "seq": 2, "t": 1.2, "kind": "trial", "batch": "b0",
                    "index": 0, "seconds": 0.01, "worker": "w",
                },
                {
                    "seq": 3, "t": 1.6, "kind": "trial", "batch": "b0",
                    "index": 1, "seconds": 0.01, "worker": "w",
                },
            ],
        )
        write_feed(
            tmp_path / TELEMETRY_DIRNAME,
            "late.jsonl",
            [
                {
                    "seq": 0, "t": 1.3, "kind": "hello",
                    "format": FEED_FORMAT, "launcher": "late",
                },
                {
                    "seq": 1, "t": 1.4, "kind": "batch.begin", "batch": "b0",
                    "batch_kind": "trials", "size": 2, "cached": 1,
                },
                {
                    "seq": 2, "t": 1.7, "kind": "trial", "batch": "b0",
                    "index": 1, "seconds": 0.0, "worker": "w",
                },
            ],
        )
        timeline = load_timeline(tmp_path)
        batch = timeline.batches["b0"]
        assert batch.completed == 2
        assert batch.remaining == 0
        assert timeline.completed == timeline.total == 2

    def test_resumed_launcher_with_predecessor_feed_present(self, tmp_path):
        # A crash-resumed campaign where run 1's feed survives: run 2's
        # cached count covers exactly the trials run 1's feed records.
        write_feed(
            tmp_path / TELEMETRY_DIRNAME,
            "run1.jsonl",
            [
                {
                    "seq": 0, "t": 1.0, "kind": "hello",
                    "format": FEED_FORMAT, "launcher": "run1",
                },
                {
                    "seq": 1, "t": 1.1, "kind": "batch.begin", "batch": "b0",
                    "batch_kind": "trials", "size": 3, "cached": 0,
                },
                {
                    "seq": 2, "t": 1.2, "kind": "trial", "batch": "b0",
                    "index": 0, "seconds": 0.01, "worker": "w",
                },
            ],
        )
        write_feed(
            tmp_path / TELEMETRY_DIRNAME,
            "run2.jsonl",
            [
                {
                    "seq": 0, "t": 5.0, "kind": "hello",
                    "format": FEED_FORMAT, "launcher": "run2",
                },
                {
                    "seq": 1, "t": 5.1, "kind": "batch.begin", "batch": "b0",
                    "batch_kind": "trials", "size": 3, "cached": 1,
                },
                {
                    "seq": 2, "t": 5.2, "kind": "trial", "batch": "b0",
                    "index": 1, "seconds": 0.01, "worker": "w",
                },
            ],
        )
        timeline = load_timeline(tmp_path)
        batch = timeline.batches["b0"]
        # union {0, 1} and run2's floor 1 + |{1}| both say 2 of 3.
        assert batch.completed == 2
        assert batch.remaining == 1

    def test_cached_floor_survives_a_lost_predecessor_feed(self, tmp_path):
        # Same resume, but run 1's feed was deleted: the union alone
        # sees one trial, yet run 2's cached floor still proves two.
        write_feed(
            tmp_path / TELEMETRY_DIRNAME,
            "run2.jsonl",
            [
                {
                    "seq": 0, "t": 5.0, "kind": "hello",
                    "format": FEED_FORMAT, "launcher": "run2",
                },
                {
                    "seq": 1, "t": 5.1, "kind": "batch.begin", "batch": "b0",
                    "batch_kind": "trials", "size": 3, "cached": 1,
                },
                {
                    "seq": 2, "t": 5.2, "kind": "trial", "batch": "b0",
                    "index": 1, "seconds": 0.01, "worker": "w",
                },
            ],
        )
        timeline = load_timeline(tmp_path)
        assert timeline.batches["b0"].completed == 2


class TestAmbientIntegration:
    def test_off_means_off(self, tmp_path):
        assert active_log() is None
        batch = run_trials(6, probe_trial, seed=1)
        # No worker/trial ever observed a feed, and nothing hit the disk.
        assert all(saw is False for _, saw in batch.outcomes)
        assert list(tmp_path.iterdir()) == []

    def test_serial_run_trials_streams_batch(self, tmp_path):
        feed = EventLog(tmp_path / TELEMETRY_DIRNAME)
        with recording(feed):
            run_trials(8, journal_trial, seed=3)
        timeline = load_timeline(tmp_path)
        assert timeline.completed == 8
        assert timeline.executed == 8
        batch = timeline.batches["anon-0000-trials-8"]
        assert batch.size == 8 and batch.done
        assert batch.finished_by[feed.launcher] == "serial"

    def test_workers_do_not_double_report(self, tmp_path):
        feed = EventLog(tmp_path / TELEMETRY_DIRNAME)
        with recording(feed):
            batch = run_trials(8, probe_trial, seed=3, workers=2)
        assert all(saw is False for _, saw in batch.outcomes)
        timeline = load_timeline(tmp_path)
        assert timeline.completed == 8
        assert timeline.duplicates == 0

    def test_journal_campaign_reconciles_with_journal(self, tmp_path):
        journal = _open_journal(tmp_path / "camp")
        feed = EventLog(tmp_path / "camp" / TELEMETRY_DIRNAME)
        with recording(feed):
            with campaign(journal):
                run_trials(16, journal_trial, seed=7, workers=2, chunk_size=4)
        timeline = load_timeline(tmp_path / "camp")
        journaled = sum(1 for _ in journal.iter_records())
        assert journaled == 16
        assert timeline.completed == 16
        assert timeline.executed == 16
        batch = timeline.batches["b0000-trials-16"]
        assert batch.done
        assert batch.finished_by[feed.launcher] == "pool"
        kinds = {r["kind"] for r in read_log(tmp_path / "camp").records}
        assert "executor.resolved" in kinds

    def test_aborted_and_resumed_launchers_one_timeline(self, tmp_path):
        directory = tmp_path / "camp"
        first = EventLog(directory / TELEMETRY_DIRNAME)
        with pytest.raises(InjectedAbort):
            with recording(first):
                with campaign(
                    _open_journal(directory), FaultPlan.parse("abort@20")
                ):
                    run_trials(40, journal_trial, seed=5, workers=2)
        second = EventLog(directory / TELEMETRY_DIRNAME)
        with recording(second):
            with campaign(_open_journal(directory)):
                run_trials(40, journal_trial, seed=5, workers=2)
        timeline = load_timeline(directory)
        assert sorted(timeline.launchers) == sorted(
            [first.launcher, second.launcher]
        )
        # The aborted launcher never said goodbye; the resumer did.
        assert not timeline.launchers[first.launcher].closed
        assert timeline.launchers[second.launcher].closed
        journaled = sum(
            1 for _ in CheckpointJournal(directory).iter_records()
        )
        assert journaled == 40
        # Every journaled trial appears exactly once as progress. The
        # abort fires once trial 20 is both journaled and reported, so
        # the two launchers executed all 40 between them.
        assert timeline.completed == timeline.total == 40
        assert timeline.duplicates == 0
        assert timeline.executed == 40

    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "pool"])
    @pytest.mark.parametrize("grid", [False, True], ids=["trials", "grid"])
    def test_abort_leaves_feed_equal_to_journal(self, tmp_path, workers, grid):
        directory = tmp_path / "camp"
        feed = EventLog(directory / TELEMETRY_DIRNAME)
        with pytest.raises(InjectedAbort):
            with recording(feed):
                with campaign(
                    _open_journal(directory), FaultPlan.parse("abort@13")
                ):
                    if grid:
                        run_trials_over(
                            [0, 1], 10, grid_trial, seed=4, workers=workers
                        )
                    else:
                        run_trials(30, journal_trial, seed=4, workers=workers)
        journaled = sum(1 for _ in CheckpointJournal(directory).iter_records())
        assert journaled >= 14  # trials 0..13 at least
        assert load_timeline(directory).executed == journaled

    def test_registry_requires_checkpoint_dir(self):
        from repro.experiments.registry import get_experiment

        with pytest.raises(ExperimentError, match="telemetry feeds live"):
            get_experiment("E10").run_campaign("quick", seed=0, telemetry=True)

    def test_registry_campaign_with_telemetry(self, tmp_path):
        from repro.experiments.registry import get_experiment

        get_experiment("E10").run_campaign(
            "quick", seed=0, checkpoint_dir=tmp_path, telemetry=True
        )
        timeline = load_timeline(tmp_path / "e10")
        assert timeline.total > 0
        assert timeline.completed == timeline.total
        (launcher,) = timeline.launchers.values()
        assert launcher.closed
        hello = next(
            r for r in read_log(tmp_path / "e10").records if r["kind"] == "hello"
        )
        assert hello["experiment"] == "E10"
        assert hello["scale"] == "quick"


class TestTelemetryDropFault:
    def test_parse_and_indices(self):
        plan = FaultPlan.parse("telemetry-drop@5;telemetry-drop@2")
        assert plan.telemetry_drop_indices() == (2, 5)

    def test_drop_fault_starves_feed_not_journal(self, tmp_path):
        from repro.experiments.registry import get_experiment

        get_experiment("E10").run_campaign(
            "quick",
            seed=0,
            checkpoint_dir=tmp_path,
            telemetry=True,
            fault_plan=FaultPlan.parse("telemetry-drop@2;telemetry-drop@5"),
        )
        timeline = load_timeline(tmp_path / "e10")
        (launcher,) = timeline.launchers.values()
        assert launcher.self_dropped == 2
        # The feed lost two records; the journal lost none.
        journaled = sum(
            1 for _ in CheckpointJournal(tmp_path / "e10").iter_records()
        )
        assert timeline.completed == journaled - 2
        for batch in timeline.batches.values():
            assert {2, 5} & batch.completed_indices == set()


class TestWatchAndReportCLI:
    """``campaign status`` on campaigns that keep a telemetry/ log."""

    def test_watch_once_renders_progress_and_stale_launcher(
        self, tmp_path, capsys
    ):
        # Mid-batch: 3 of 4 trials done, beta never wrote its bye. Its
        # last record is ``age - 0.3`` s old: within RATE_WINDOW beta
        # is still running and gives an ETA; two minutes on it has none.
        for age, eta in ((2.0, r"\d+s"), (120.0, r"\?")):
            root = hand_built_campaign(tmp_path / f"mid-{age:.0f}", age=age)
            _open_journal(root)
            assert cli_main(["campaign", "status", str(root)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].endswith("— 0 journaled trial(s) in 0 batch(es)")
            assert re.fullmatch(
                r"  telemetry: 3/4 trial\(s\), [0-9.]+ trials/s recently, "
                rf"ETA {eta}",
                lines[1],
            ), lines[1]
            unclosed = re.fullmatch(
                r"  unclosed launcher beta: last record ([0-9.]+)s ago", lines[2]
            )
            assert unclosed, lines[2]
            assert age - 1.0 < float(unclosed.group(1)) < age + 60.0
            assert len(lines) == 3

    def test_watch_without_feeds_notes_missing_telemetry(
        self, tmp_path, capsys
    ):
        # An empty telemetry/ log adds nothing to the journal lines.
        _open_journal(tmp_path / "camp")
        (tmp_path / "camp" / TELEMETRY_DIRNAME).mkdir()
        assert cli_main(["campaign", "status", str(tmp_path / "camp")]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert line.endswith("— 0 journaled trial(s) in 0 batch(es)")

    def test_watch_on_noncampaign_dir_fails(self, tmp_path, capsys):
        # A telemetry/ log without a journal manifest is not a campaign.
        root = hand_built_campaign(tmp_path / "bare")
        assert cli_main(["campaign", "status", str(root)]) == 2
        assert "no campaign" in capsys.readouterr().err

    def test_status_appends_telemetry_summary(self, tmp_path, capsys):
        journal = _open_journal(tmp_path / "camp")
        with recording(EventLog(tmp_path / "camp" / TELEMETRY_DIRNAME)):
            with campaign(journal):
                run_trials(16, journal_trial, seed=7, chunk_size=4)
        assert cli_main(["campaign", "status", str(tmp_path / "camp")]) == 0
        lines = capsys.readouterr().out.splitlines()
        # The journal lines stay first; a finished, closed launcher adds
        # one progress line, with no running launcher and so no rate,
        # and no unclosed-launcher line.
        assert lines[0].endswith("E99 [quick] seed=0 — 16 journaled trial(s) "
                                 "in 1 batch(es)")
        assert lines[1] == "  b0000-trials-16: 16 trial(s)"
        assert lines[2] == (
            "  telemetry: 16/16 trial(s), 0.0 trials/s recently, ETA done"
        )
        assert len(lines) == 3


def make_snapshot(means):
    return {
        "format": "div-repro-bench-snapshot",
        "benchmarks": [
            {"name": name, "mean_seconds": mean}
            for name, mean in means.items()
        ],
    }


def write_snapshot(path, means):
    path.write_text(json.dumps(make_snapshot(means)), encoding="utf-8")
    return path


class TestBenchCompare:
    def test_within_threshold_ok(self):
        deltas = compare_snapshots(
            make_snapshot({"a": 1.0}), make_snapshot({"a": 1.2})
        )
        assert [d.status for d in deltas] == ["ok"]
        assert not any(d.failed for d in deltas)

    def test_regression_and_improvement(self):
        deltas = compare_snapshots(
            make_snapshot({"slow": 1.0, "fast": 1.0}),
            make_snapshot({"slow": 1.4, "fast": 0.5}),
        )
        by_name = {d.name: d for d in deltas}
        assert by_name["slow"].status == "regressed"
        assert by_name["slow"].failed
        assert by_name["slow"].ratio == pytest.approx(1.4)
        assert by_name["fast"].status == "improved"
        assert not by_name["fast"].failed

    def test_missing_fails_new_is_informational(self):
        deltas = compare_snapshots(
            make_snapshot({"gone": 1.0}), make_snapshot({"added": 1.0})
        )
        by_name = {d.name: d for d in deltas}
        assert by_name["gone"].status == "missing" and by_name["gone"].failed
        assert by_name["added"].status == "new" and not by_name["added"].failed

    def test_noise_floor_suppresses_wild_ratios(self):
        deltas = compare_snapshots(
            make_snapshot({"tiny": 1e-6}),
            make_snapshot({"tiny": 1e-3}),
            min_seconds=1e-4,
        )
        assert [d.status for d in deltas] == ["ok"]

    def test_custom_threshold(self):
        old, new = make_snapshot({"a": 1.0}), make_snapshot({"a": 1.4})
        assert compare_snapshots(old, new, threshold=0.5)[0].status == "ok"
        assert compare_snapshots(old, new, threshold=0.3)[0].status == "regressed"

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(BenchCompareError, match="threshold"):
            compare_snapshots(make_snapshot({}), make_snapshot({}), threshold=0.0)

    def test_load_snapshot_errors(self, tmp_path):
        with pytest.raises(BenchCompareError, match="cannot read"):
            load_snapshot(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(BenchCompareError, match="not valid JSON"):
            load_snapshot(bad)
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(BenchCompareError, match="not a div-repro-bench"):
            load_snapshot(foreign)

    def test_absent_side_ratio_is_neutral(self):
        delta = BenchDelta(name="x", status="missing", old_mean=2.0)
        assert delta.ratio == pytest.approx(1.0)

    def test_cli_ok_and_regressed_exit_codes(self, tmp_path, capsys):
        old = write_snapshot(tmp_path / "old.json", {"a": 1.0, "b": 2.0})
        good = write_snapshot(tmp_path / "good.json", {"a": 1.05, "b": 1.9})
        bad = write_snapshot(tmp_path / "bad.json", {"a": 1.5, "b": 2.0})
        assert cli_main(["bench", "compare", str(old), str(good)]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)/missing" in out
        assert cli_main(["bench", "compare", str(old), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "a" in out
        assert "1 regression(s)/missing" in out

    def test_cli_missing_benchmark_fails(self, tmp_path, capsys):
        old = write_snapshot(tmp_path / "old.json", {"a": 1.0, "b": 2.0})
        new = write_snapshot(tmp_path / "new.json", {"a": 1.0})
        assert cli_main(["bench", "compare", str(old), str(new)]) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_cli_threshold_flag(self, tmp_path, capsys):
        old = write_snapshot(tmp_path / "old.json", {"a": 1.0})
        new = write_snapshot(tmp_path / "new.json", {"a": 1.4})
        assert (
            cli_main(
                ["bench", "compare", str(old), str(new), "--threshold", "0.5"]
            )
            == 0
        )
        capsys.readouterr()

    def test_cli_prints_both_sides_sha_and_dirty_flag(self, tmp_path, capsys):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(
            json.dumps(dict(make_snapshot({"a": 1.0}), git_sha="abc1234", dirty=False))
        )
        new.write_text(
            json.dumps(dict(make_snapshot({"a": 1.0}), git_sha="def5678", dirty=True))
        )
        assert cli_main(["bench", "compare", str(old), str(new)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"old: abc1234 (clean)  {old}"
        assert lines[1] == f"new: def5678 (dirty)  {new}"
        assert snapshot_origin(make_snapshot({})) == "unknown sha (dirty unknown)"

    def test_consolidate_stamps_dirty_tree(self, tmp_path, monkeypatch):
        source = Path(__file__).resolve().parent.parent / "benchmarks" / "_emit.py"
        spec = importlib.util.spec_from_file_location("bench_emit", source)
        emit = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(emit)
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"name": "a", "mean_seconds": 1.0}) + "\n")
        for status, dirty in ((" M src/x.py\n", True), ("", False), (None, None)):
            monkeypatch.setattr(
                emit,
                "_git",
                lambda *args, status=status: "abc1234\n" if args[0] == "rev-parse" else status,
            )
            payload = emit.consolidate(records, tmp_path / "BENCH.json")
            assert payload["dirty"] is dirty
            assert load_snapshot(tmp_path / "BENCH.json")["dirty"] is dirty

    def test_consolidate_records_selection(self, tmp_path, monkeypatch):
        source = Path(__file__).resolve().parent.parent / "benchmarks" / "_emit.py"
        spec = importlib.util.spec_from_file_location("bench_emit", source)
        emit = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(emit)
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"name": "a", "mean_seconds": 1.0}) + "\n")
        monkeypatch.delenv("BENCH_SELECT", raising=False)
        assert emit.consolidate(records, tmp_path / "full.json")["select"] == "benchmarks"
        monkeypatch.setenv("BENCH_SELECT", "  benchmarks/bench_kernels.py\n benchmarks/x.py ")
        payload = emit.consolidate(records, tmp_path / "subset.json")
        assert payload["select"] == "benchmarks/bench_kernels.py benchmarks/x.py"

    def test_consolidate_stamps_source_digest(self, tmp_path, monkeypatch, capsys):
        # An exported tree: src/ files and no git. The digest covers the
        # bytes of src/**/*.py in sorted path order and nothing else.
        source = Path(__file__).resolve().parent.parent / "benchmarks" / "_emit.py"
        spec = importlib.util.spec_from_file_location("bench_emit", source)
        emit = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(emit)
        root = tmp_path / "tree"
        (root / "src" / "pkg").mkdir(parents=True)
        (root / "src" / "pkg" / "b.py").write_bytes(b"B = 2\n")
        (root / "src" / "a.py").write_bytes(b"A = 1\n")
        (root / "src" / "notes.txt").write_bytes(b"not code\n")
        monkeypatch.setattr(emit, "_REPO_ROOT", root)
        monkeypatch.setattr(emit, "_git", lambda *args: None)
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"name": "a", "mean_seconds": 1.0}) + "\n")
        payload = emit.consolidate(records, tmp_path / "old.json")
        digest = hashlib.sha256(b"A = 1\nB = 2\n").hexdigest()
        assert payload["source_sha256"] == digest
        assert payload["git_sha"] is None
        (root / "src" / "a.py").write_bytes(b"A = 3\n")
        assert emit.consolidate(records, tmp_path / "new.json")["source_sha256"] != digest
        assert cli_main(
            ["bench", "compare", str(tmp_path / "old.json"), str(tmp_path / "new.json")]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            f"old: unknown sha (dirty unknown) src {digest[:12]}  {tmp_path / 'old.json'}"
        )

    def test_different_selections_skip_absent_benchmarks(self, tmp_path, capsys):
        full = dict(make_snapshot({"a": 1.0, "b": 2.0}), select="benchmarks")
        subset = dict(make_snapshot({"a": 1.1, "c": 3.0}), select="benchmarks/bench_a.py")
        by_name = {d.name: d for d in compare_snapshots(full, subset)}
        assert [by_name[n].status for n in "abc"] == ["ok", "skipped", "new"]
        assert not any(d.failed for d in by_name.values())
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps(full))
        new.write_text(json.dumps(subset))
        assert cli_main(["bench", "compare", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "SKIPPED  b" in out and "0 regression(s)/missing" in out

    def test_same_selection_still_fails_a_dropped_benchmark(self, tmp_path, capsys):
        full = dict(make_snapshot({"a": 1.0, "b": 2.0}), select="benchmarks")
        dropped = dict(make_snapshot({"a": 1.0}), select="benchmarks")
        deltas = compare_snapshots(full, dropped)
        assert [(d.name, d.status, d.failed) for d in deltas] == [
            ("a", "ok", False),
            ("b", "missing", True),
        ]
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps(full))
        new.write_text(json.dumps(dropped))
        assert cli_main(["bench", "compare", str(old), str(new)]) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_cli_malformed_snapshot_is_usage_error(self, tmp_path, capsys):
        old = write_snapshot(tmp_path / "old.json", {"a": 1.0})
        assert cli_main(["bench", "compare", str(old), str(tmp_path / "x.json")]) == 2
        assert "div-repro: error" in capsys.readouterr().err
