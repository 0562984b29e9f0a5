"""Tests for the event log as a campaign feed, campaign progress read
from the checkpoint journal, and the ``bench compare`` perf gate.

Covers the log's records and merge determinism over shuffled and torn
logs, the launcher fold behind the unclosed-launcher lines, journal
progress (completed and total trials, rate and ETA, a begun batch with
no chunk yet, logs that are missing or torn), the zero-overhead
contract when no log is installed, aborted and resumed campaigns whose
logged trials equal their journal, and the bench-compare perf gate's
edge cases. More of ``campaign status`` is tested in
``tests/test_cli.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import re
import time
import warnings
from pathlib import Path

import pytest

from repro.analysis.montecarlo import run_trials, run_trials_over
from repro.checkpoint import Census, CheckpointJournal, campaign
from repro.cli import main as cli_main
from repro.errors import BenchCompareError, EventLogError, ExperimentError
from repro.faults import FaultPlan, InjectedAbort
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
from repro.obs.views import launcher_timelines


def load_launchers(source):
    return launcher_timelines(read_log(source))


def logged_trials(source):
    """The ``(batch, index)`` of every ``trial`` record in the logs."""
    return sorted(
        (r["batch"], r["index"])
        for r in read_log(source).records
        if r["kind"] == "trial"
    )


def journaled_trials(directory):
    """The ``(batch, index)`` of every trial the journal holds."""
    return sorted((b, i) for b, i, _ in CheckpointJournal(directory).iter_records())


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


def plant_records(journal, batch, times):
    """Journal one one-trial chunk per entry of ``times`` (index order),
    each with that write time."""
    for index, written in enumerate(times):
        path = journal.record(batch, {index: index})
        os.utime(path, (written, written))


def write_feed(directory, name, records):
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return path


def hand_built_campaign(root, age=120.0):
    """Two hand-written launcher feeds: alpha finished, beta went silent.

    Alpha ran trials 0 and 1 of batch ``b0`` and wrote its ``bye``;
    beta ran trials 2 and 1 and did not, so it is the one unclosed
    launcher. The hellos carry the ``heartbeat_interval`` field and the
    bye the ``dropped`` tally older logs wrote; the reader ignores both.
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
        one = load_launchers(first)
        assert one == load_launchers(tmp_path / "two")
        assert sorted(one) == ["alpha", "beta"]
        assert one["alpha"].closed and not one["beta"].closed
        assert one["beta"].last_seen - one["beta"].started == pytest.approx(0.3)

    def test_torn_tail_dropped_and_counted(self, tmp_path):
        root = hand_built_campaign(tmp_path / "campaign")
        telemetry = root / TELEMETRY_DIRNAME
        victim = telemetry / "b-beta.jsonl"
        intact = load_launchers(root)
        with open(victim, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 4, "kind": "trial", "ind')  # killed mid-write
        log = read_log(root)
        assert log.torn == {"beta": 1}
        assert load_launchers(root) == intact  # the tear costs nothing else

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
        assert read_log(tmp_path).torn == {}
        # Unknown kinds survive into the record stream (forward compat),
        # and the launcher fold reads only their time.
        assert [r["kind"] for r in read_log(tmp_path).records] == [
            "hello", "sparkle"
        ]
        (solo,) = load_launchers(tmp_path).values()
        assert (solo.name, solo.started, solo.last_seen) == ("solo", 1.0, 2.0)
        # Only a cut final line is debris; a whole malformed line is
        # damage, reported with its file and line.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        with pytest.raises(EventLogError, match="feed.jsonl:3: malformed"):
            load_launchers(tmp_path)
        write_feed(telemetry, "feed.jsonl", records + [{"t": 3.0, "no": "kind"}])
        with pytest.raises(EventLogError, match="feed.jsonl:3: not a log record"):
            load_launchers(tmp_path)

    def test_empty_telemetry_dir_is_empty_timeline(self, tmp_path):
        (tmp_path / TELEMETRY_DIRNAME).mkdir()
        assert load_launchers(tmp_path) == {}

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(EventLogError, match="no such log file or directory"):
            load_launchers(tmp_path / "nope")

    def test_untelemetered_campaign_raises(self, tmp_path):
        with pytest.raises(EventLogError, match="has no telemetry/"):
            load_launchers(tmp_path)

    def test_foreign_format_feed_rejected(self, tmp_path):
        write_feed(
            tmp_path / TELEMETRY_DIRNAME,
            "feed.jsonl",
            [{"seq": 0, "t": 1.0, "kind": "hello", "format": "otherproduct"}],
        )
        with pytest.raises(EventLogError, match="not a div-repro event log"):
            load_launchers(tmp_path)

    def test_resolve_accepts_telemetry_dir_itself(self, tmp_path):
        hand_built_campaign(tmp_path)
        telemetry = tmp_path / TELEMETRY_DIRNAME
        assert read_log(telemetry) == read_log(tmp_path)
        assert len(read_log(telemetry).records) == 9


class TestTimelineAccounting:
    """Campaign progress read from the journal alone."""

    def test_cached_trials_count_toward_completion(self, tmp_path):
        # An aborted campaign journaled trials 0..6 of 10; the resume
        # runs the other three, and the journaled seven count from the
        # start, with no event log anywhere.
        directory = tmp_path / "camp"
        with pytest.raises(InjectedAbort):
            with campaign(_open_journal(directory), FaultPlan.parse("abort@6")):
                run_trials(10, journal_trial, seed=5)
        census = CheckpointJournal(directory).census()
        assert census.per_batch == {"b0000-trials-10": 7}
        assert (census.completed, census.total) == (7, 10)
        with campaign(_open_journal(directory)):
            run_trials(10, journal_trial, seed=5)
        census = CheckpointJournal(directory).census()
        assert (census.completed, census.total) == (10, 10)
        assert len(census.writes) == 10
        assert census.eta_seconds(time.time()) == 0.0

    def test_begun_empty_batch_counts_toward_total(self, tmp_path):
        journal = _open_journal(tmp_path / "camp")
        with campaign(journal) as session:
            first = session.begin_batch("trials", 3)
            session.record(first, {0: "a", 1: "b", 2: "c"})
            second = session.begin_batch("grid", 40)
        assert second == "b0001-grid-40"
        census = journal.census()
        assert census.per_batch == {first: 3, second: 0}
        assert (census.completed, census.total) == (3, 43)
        # A begun batch is no record: a fresh run may still reuse the dir.
        empty = _open_journal(tmp_path / "empty")
        with campaign(empty) as session:
            session.begin_batch("trials", 5)
        assert not empty.has_records()
        assert (empty.census().completed, empty.census().total) == (0, 5)
        assert empty.census().eta_seconds(time.time()) is None

    def test_eta_is_zero_when_done_none_when_rateless(self, tmp_path):
        # The write times of record files set the rate.
        journal = _open_journal(tmp_path / "camp")
        times = [100.0 + k / 10 for k in range(1, 251)]
        plant_records(journal, "b0000-trials-300", times)
        census = journal.census()
        assert (census.completed, census.total) == (250, 300)
        assert census.recent_rate(125.0) == pytest.approx(10.0)
        assert census.eta_seconds(125.0) == pytest.approx(5.0)
        # Silent for longer than the window: no rate, no ETA.
        assert census.recent_rate(140.0) == 0.0
        assert census.eta_seconds(140.0) is None
        # Nothing left: done, whatever the rate.
        done = Census(per_batch={"b0000-trials-2": 2}, writes=[(1.0, 1), (1.1, 1)])
        assert done.eta_seconds(100.0) == 0.0
        # A resume after a long pause: the window's first write starts
        # the clock, so the pause does not dilute the rate.
        resumed = Census(
            per_batch={"b0000-trials-300": 270},
            writes=[(100.0 + k / 10, 1) for k in range(1, 251)]
            + [(1000.0 + k / 10, 1) for k in range(1, 21)],
        )
        assert resumed.recent_rate(1002.0) == pytest.approx(10.0)
        assert resumed.eta_seconds(1002.0) == pytest.approx(3.0)
        # One chunk of four in the window is no pace yet.
        single = Census(per_batch={"b0000-trials-8": 4}, writes=[(1.0, 4)])
        assert single.recent_rate(2.0) == 0.0
        assert single.eta_seconds(2.0) is None

    def test_resumed_launcher_with_predecessor_feed_present(self, tmp_path, capsys):
        # Run 1 is aborted after trial 4 and never writes its bye; run 2
        # resumes. Both logs are present, and status reads the progress
        # from the journal and names run 1 as the one unclosed launcher.
        directory = tmp_path / "camp"
        first = EventLog(directory / TELEMETRY_DIRNAME)
        with pytest.raises(InjectedAbort):
            with recording(first):
                with campaign(_open_journal(directory), FaultPlan.parse("abort@4")):
                    run_trials(12, journal_trial, seed=2)
        second = EventLog(directory / TELEMETRY_DIRNAME)
        with recording(second):
            with campaign(_open_journal(directory)):
                run_trials(12, journal_trial, seed=2)
        assert cli_main(["campaign", "status", str(directory)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].startswith("  progress: 12/12 trial(s), ")
        assert lines[2].endswith(" trials/s recently, ETA done")
        assert lines[3].startswith(f"  unclosed launcher {first.launcher}: ")
        assert len(lines) == 4

    def test_progress_exact_with_a_lost_or_torn_feed(self, tmp_path, capsys):
        directory = tmp_path / "camp"
        first = EventLog(directory / TELEMETRY_DIRNAME)
        with pytest.raises(InjectedAbort):
            with recording(first):
                with campaign(_open_journal(directory), FaultPlan.parse("abort@4")):
                    run_trials(12, journal_trial, seed=2)
        # Run 1's log is lost; run 2 is killed mid-write of its last line.
        first.path.unlink()
        second = EventLog(directory / TELEMETRY_DIRNAME)
        with pytest.raises(InjectedAbort):
            with recording(second):
                with campaign(_open_journal(directory), FaultPlan.parse("abort@8")):
                    run_trials(12, journal_trial, seed=2)
        with open(second.path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 99, "kind": "tri')
        assert logged_trials(directory) == [("b0000-trials-12", i) for i in range(5, 9)]
        assert cli_main(["campaign", "status", str(directory)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "  b0000-trials-12: 9 trial(s)"
        assert lines[2].startswith("  progress: 9/12 trial(s), ")
        assert lines[3].startswith(f"  unclosed launcher {second.launcher}: ")
        assert len(lines) == 4


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
        key = "anon-0000-trials-8"
        assert logged_trials(tmp_path) == [(key, i) for i in range(8)]
        (end,) = [r for r in read_log(tmp_path).records if r["kind"] == "batch.end"]
        assert (end["batch"], end["executor"], end["trials"]) == (key, "serial", 8)

    def test_workers_do_not_double_report(self, tmp_path):
        feed = EventLog(tmp_path / TELEMETRY_DIRNAME)
        with recording(feed):
            batch = run_trials(8, probe_trial, seed=3, workers=2)
        assert all(saw is False for _, saw in batch.outcomes)
        assert logged_trials(tmp_path) == [("anon-0000-trials-8", i) for i in range(8)]

    def test_journal_campaign_reconciles_with_journal(self, tmp_path):
        journal = _open_journal(tmp_path / "camp")
        feed = EventLog(tmp_path / "camp" / TELEMETRY_DIRNAME)
        with recording(feed):
            # One pool worker splits 16 trials into four chunks of four.
            with campaign(journal, executor="pool"):
                run_trials(16, journal_trial, seed=7, workers=1)
        journaled = journaled_trials(tmp_path / "camp")
        assert journaled == [("b0000-trials-16", i) for i in range(16)]
        assert logged_trials(tmp_path / "camp") == journaled
        census = journal.census()
        assert census.completed == census.total == 16
        assert len(census.writes) == 4  # one record file per chunk
        records = read_log(tmp_path / "camp").records
        (end,) = [r for r in records if r["kind"] == "batch.end"]
        assert end["executor"] == "pool"
        assert "executor.resolved" in {r["kind"] for r in records}

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
        launchers = load_launchers(directory)
        assert sorted(launchers) == sorted([first.launcher, second.launcher])
        # The aborted launcher never said goodbye; the resumer did.
        assert not launchers[first.launcher].closed
        assert launchers[second.launcher].closed
        # The abort fires once the chunk holding trial 20 is both
        # journaled and logged, so the two logs hold each journaled
        # trial exactly once.
        journaled = journaled_trials(directory)
        assert len(journaled) == 40
        assert logged_trials(directory) == journaled
        census = CheckpointJournal(directory).census()
        assert census.completed == census.total == 40

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
        journaled = journaled_trials(directory)
        assert len(journaled) >= 14  # trials 0..13 at least
        assert logged_trials(directory) == journaled

    def test_registry_requires_checkpoint_dir(self):
        from repro.experiments.registry import get_experiment

        with pytest.raises(ExperimentError, match="telemetry feeds live"):
            get_experiment("E10").run_campaign("quick", seed=0, telemetry=True)

    def test_registry_campaign_with_telemetry(self, tmp_path):
        from repro.experiments.registry import get_experiment

        get_experiment("E10").run_campaign(
            "quick", seed=0, checkpoint_dir=tmp_path, telemetry=True
        )
        census = CheckpointJournal(tmp_path / "e10").census()
        assert census.total > 0
        assert census.completed == census.total
        assert logged_trials(tmp_path / "e10") == journaled_trials(tmp_path / "e10")
        (launcher,) = load_launchers(tmp_path / "e10").values()
        assert launcher.closed
        hello = next(
            r for r in read_log(tmp_path / "e10").records if r["kind"] == "hello"
        )
        assert hello["experiment"] == "E10"
        assert hello["scale"] == "quick"


class TestWatchAndReportCLI:
    """``campaign status`` on campaigns that keep a telemetry/ log."""

    def test_watch_once_renders_progress_and_stale_launcher(
        self, tmp_path, capsys
    ):
        # Mid-batch: 3 of 4 trials journaled, beta never wrote its bye.
        # The last journal write is ``age`` s old: within the rate window
        # the campaign still has a pace and an ETA; two minutes on it
        # has none.
        for age, eta in ((2.0, r"\d+s"), (120.0, r"\?")):
            root = hand_built_campaign(tmp_path / f"mid-{age:.0f}", age=age)
            now = time.time()
            times = [now - age - 0.2 * k for k in (2, 1, 0)]
            plant_records(_open_journal(root), "b0000-trials-4", times)
            assert cli_main(["campaign", "status", str(root)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].endswith("— 3 journaled trial(s) in 1 batch(es)")
            assert lines[1] == "  b0000-trials-4: 3 trial(s)"
            assert re.fullmatch(
                r"  progress: 3/4 trial\(s\), [0-9.]+ trials/s recently, "
                rf"ETA {eta}",
                lines[2],
            ), lines[2]
            unclosed = re.fullmatch(
                r"  unclosed launcher beta: last record ([0-9.]+)s ago", lines[3]
            )
            assert unclosed, lines[3]
            assert age - 1.0 < float(unclosed.group(1)) < age + 60.0
            assert len(lines) == 4

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
                run_trials(16, journal_trial, seed=7)
        assert cli_main(["campaign", "status", str(tmp_path / "camp")]) == 0
        lines = capsys.readouterr().out.splitlines()
        # The journal lines stay first, then the progress line; a
        # finished, closed launcher adds no unclosed-launcher line.
        assert lines[0].endswith("E99 [quick] seed=0 — 16 journaled trial(s) "
                                 "in 1 batch(es)")
        assert lines[1] == "  b0000-trials-16: 16 trial(s)"
        assert re.fullmatch(
            r"  progress: 16/16 trial\(s\), [0-9.]+ trials/s recently, ETA done",
            lines[2],
        ), lines[2]
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
