"""Campaign directories written by older versions still resume and render.

Older versions could drain one campaign from several launcher processes
through a journal executor that claimed chunks of trials with lease
files. A campaign such a launcher abandoned holds a
``leases/<batch>/*.lease`` tree next to its trial journal, and a
telemetry feed with ``lease.*`` events and ``"peer"`` trial records.
Older feeds also carried ``heartbeat`` records and a ``bye`` with a
``metrics`` payload. Today's code ignores all of these: the campaign
resumes to the same report and journal, and ``campaign status`` renders
it.

Older versions also journaled every trial as its own ``t<i>.rec`` file,
whose header carried no ``index`` (the file name did). Today's journal
writes one file per finished chunk; it still reads those files, resumes
around them and diffs them trial by trial.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import shutil
import time

import pytest

from repro.checkpoint import CheckpointJournal
from repro.cli import main
from repro.faults import InjectedAbort
from repro.obs.log import FEED_FORMAT


def _shrink_e10(monkeypatch):
    from repro.experiments import e10_stage_evolution

    monkeypatch.setattr(
        e10_stage_evolution.Config,
        "quick",
        classmethod(lambda cls: cls(n=12, trials=6, sample_trajectories=1)),
    )


#: Two one-trial records exactly as the per-trial journal wrote them,
#: for the outcomes ``7`` (as ``t7.rec``) and ``(3, 0.25)`` (as ``t3.rec``).
_PER_TRIAL_RECORDS = {
    7: (
        7,
        b"div-repro-record v1 sha256=4ee5d22e9e44ec6480a2fc727c72c7886855f945"
        b"62e8549cfae9a33f7361574b bytes=5\n\x80\x04K\x07.",
    ),
    3: (
        (3, 0.25),
        b"div-repro-record v1 sha256=ade71339a3242dc23d9def5d363977792a242753"
        b"d4cbf755066310ab42bf2f3f bytes=25\n\x80\x04\x95\x0e\x00\x00\x00"
        b"\x00\x00\x00\x00K\x03G?\xd0\x00\x00\x00\x00\x00\x00\x86\x94.",
    ),
}


def _per_trial_record(outcome) -> bytes:
    """A frozen copy of the per-trial journal's record encoder."""
    payload = pickle.dumps(outcome, protocol=4)
    digest = hashlib.sha256(payload).hexdigest()
    header = f"div-repro-record v1 sha256={digest} bytes={len(payload)}\n"
    return header.encode("ascii") + payload


def _plant_lease(directory, chunk, owner="oldhost-pid99-L0"):
    """A stale chunk claim in the old lease format."""
    directory.mkdir(parents=True, exist_ok=True)
    now = time.time()
    record = {
        "format": "div-repro-lease",
        "version": 1,
        "owner": owner,
        "chunk": list(chunk),
        "claimed_at": now - 600.0,
        "heartbeat": now - 590.0,
        "ttl": 15.0,
    }
    path = directory / f"c{chunk[0]:08d}.lease"
    path.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
    return path


#: A heartbeat's or bye's metric delta as older feeds wrote it.
_METRICS = {
    "counters": {"engine.runs": 2},
    "gauges": {},
    "histograms": {"engine.run_seconds": [2, 0.02, 0.0002, 0.01, 0.01]},
}


def _write_feed(path, t, records):
    with open(path, "w", encoding="utf-8") as handle:
        for seq, record in enumerate(records):
            record = {"seq": seq, "t": t + 0.1 * seq, **record}
            handle.write(json.dumps(record) + "\n")


def _plant_feed(directory, batch, size):
    """The feeds of two journal-executor launchers: one that ran no
    trial and closed, and one that died mid-drain."""
    directory.mkdir(parents=True, exist_ok=True)
    t = time.time() - 600.0
    _write_feed(
        directory / "oldhost-pid98-F0-0.jsonl",
        t - 10.0,
        [
            {
                "kind": "hello", "format": FEED_FORMAT, "version": 1,
                "launcher": "oldhost-pid98-F0-0", "host": "oldhost", "pid": 98,
                "heartbeat_interval": 1.0, "executor": "journal",
            },
            {"kind": "heartbeat", "metrics": _METRICS},
            {"kind": "bye", "metrics": _METRICS, "dropped": 0},
        ],
    )
    records = [
        {
            "kind": "hello", "format": FEED_FORMAT, "version": 1,
            "launcher": "oldhost-pid99-F0-1", "host": "oldhost", "pid": 99,
            "heartbeat_interval": 1.0, "executor": "journal",
        },
        {
            "kind": "batch.begin", "batch": batch, "batch_kind": "trials",
            "size": size, "cached": 0,
        },
        {"kind": "lease.claim", "batch": batch, "chunk": 0, "size": 3},
        {"kind": "trial", "batch": batch, "index": 0, "seconds": 0.01, "worker": "pid-100"},
        {"kind": "trial", "batch": batch, "index": 2, "seconds": 0.01, "worker": "pid-100"},
        {"kind": "trial", "batch": batch, "index": 1, "seconds": 0.0, "worker": "peer"},
        {"kind": "lease.peer_done", "batch": batch, "chunk": 0},
        {"kind": "lease.claim", "batch": batch, "chunk": 3, "size": 3},
        {"kind": "heartbeat", "metrics": _METRICS},
    ]
    _write_feed(directory / "oldhost-pid99-F0-1.jsonl", t, records)


def test_abandoned_journal_executor_campaign_resumes_and_renders(
    tmp_path, capsys, monkeypatch
):
    _shrink_e10(monkeypatch)
    base = ["run", "E10", "--quick", "--seed", "5", "--checkpoint-dir"]
    reference = tmp_path / "ref"
    assert main(base + [str(reference), "--json", str(tmp_path / "ref-json")]) == 0

    # Journal trials 0..2, then die: the records an old drain left.
    legacy = tmp_path / "legacy"
    with pytest.raises(InjectedAbort):
        main(base + [str(legacy), "--inject-faults", "abort@2"])
    campaign_dir = legacy / "e10"
    (batch,) = CheckpointJournal(campaign_dir).batches()
    lease = _plant_lease(campaign_dir / "leases" / batch, [3, 4, 5])
    _plant_feed(campaign_dir / "telemetry", batch, size=6)
    capsys.readouterr()

    resume = base + [str(legacy), "--resume", "--telemetry"]
    assert main(resume + ["--json", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "e10.json").read_bytes() == (
        tmp_path / "ref-json" / "e10.json"
    ).read_bytes()
    assert lease.is_file()  # ignored, never consulted or cleaned up
    capsys.readouterr()

    assert main(["checkpoint", "diff", str(reference / "e10"), str(campaign_dir)]) == 0
    assert "identical" in capsys.readouterr().out

    assert main(["campaign", "status", str(legacy)]) == 0
    out = capsys.readouterr().out
    assert "6 journaled trial(s) in 1 batch(es)" in out
    assert f"  {batch}: 6 trial(s)" in out
    assert "  progress: 6/6 trial(s), " in out
    unclosed = [line for line in out.splitlines() if "unclosed launcher" in line]
    assert len(unclosed) == 1
    assert unclosed[0].startswith("  unclosed launcher oldhost-pid99-F0-1: ")


def test_per_trial_record_files_read_back(tmp_path):
    journal = CheckpointJournal(tmp_path / "c")
    journal.open(fingerprint="fp")
    batch_dir = tmp_path / "c" / "trials" / "b0"
    batch_dir.mkdir(parents=True)
    for index, (outcome, blob) in _PER_TRIAL_RECORDS.items():
        assert _per_trial_record(outcome) == blob
        (batch_dir / f"t{index}.rec").write_bytes(blob)
    assert journal.completed("b0") == {3: (3, 0.25), 7: 7}
    assert [(b, i) for b, i, _ in journal.iter_records()] == [("b0", 3), ("b0", 7)]


def test_per_trial_journal_resumes_and_diffs_equal(tmp_path, capsys, monkeypatch):
    _shrink_e10(monkeypatch)
    base = ["run", "E10", "--quick", "--seed", "5", "--checkpoint-dir"]
    reference = tmp_path / "ref"
    assert main(base + [str(reference), "--json", str(tmp_path / "ref-json")]) == 0

    # What the per-trial journal left after finishing the even trials.
    fresh = CheckpointJournal(reference / "e10")
    legacy = tmp_path / "legacy" / "e10"
    legacy.mkdir(parents=True)
    shutil.copy(fresh.manifest_path, legacy)
    planted = []
    for batch in fresh.batches():
        (legacy / "trials" / batch).mkdir(parents=True)
        for index, outcome in fresh.completed(batch).items():
            if index % 2 == 0:
                path = legacy / "trials" / batch / f"t{index}.rec"
                path.write_bytes(_per_trial_record(outcome))
                planted.append((path, path.read_bytes()))
    assert planted
    capsys.readouterr()

    resume = base + [str(tmp_path / "legacy"), "--resume"]
    assert main(resume + ["--json", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "e10.json").read_bytes() == (
        tmp_path / "ref-json" / "e10.json"
    ).read_bytes()
    assert all(path.read_bytes() == blob for path, blob in planted)
    capsys.readouterr()

    assert main(["checkpoint", "diff", str(reference / "e10"), str(legacy)]) == 0
    assert "identical" in capsys.readouterr().out
