"""Tests for the crash-safe checkpoint journal (repro.checkpoint).

Trial functions live at module level so the parallel resume tests can
pickle them, mirroring the requirement production callers have.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.montecarlo import run_trials, run_trials_over
from repro.checkpoint import (
    CampaignSession,
    CheckpointJournal,
    campaign,
    config_fingerprint,
    current_session,
    diff_journals,
)
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
)
from repro.faults import FaultPlan, InjectedAbort


def draw_trial(index, rng):
    return int(rng.integers(0, 1 << 30))


def parameter_trial(parameter, index, rng):
    return (parameter, index, int(rng.integers(0, 1 << 30)))


def _open(tmp_path, name="c", fingerprint="fp", resume=False, **kwargs):
    journal = CheckpointJournal(tmp_path / name, **kwargs)
    journal.open(fingerprint=fingerprint, resume=resume)
    return journal


class TestJournal:
    def test_record_round_trip(self, tmp_path):
        journal = _open(tmp_path)
        journal.record("b0", {3: {"winner": 4, "steps": 17}})
        assert journal.completed("b0") == {3: {"winner": 4, "steps": 17}}

    def test_completed_of_unknown_batch_is_empty(self, tmp_path):
        assert _open(tmp_path).completed("nope") == {}

    def test_no_temp_files_left_behind(self, tmp_path):
        journal = _open(tmp_path)
        for index in range(5):
            journal.record("b0", {index: index})
        leftovers = [p for p in journal.directory.rglob("*.tmp")]
        assert leftovers == []

    def test_iter_records_and_batches(self, tmp_path):
        journal = _open(tmp_path)
        journal.record("b1", {0: "x"})
        journal.record("b0", {2: "y"})
        assert [(b, i) for b, i, _ in journal.iter_records()] == [
            ("b0", 2),
            ("b1", 0),
        ]
        assert journal.batches() == ["b0", "b1"]
        assert journal.has_records()

    def test_unpicklable_outcome_raises_checkpoint_error(self, tmp_path):
        journal = _open(tmp_path)
        with pytest.raises(CheckpointError, match="not picklable"):
            journal.record("b0", {0: lambda: None})

    def test_on_corrupt_must_be_valid(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointJournal(tmp_path, on_corrupt="explode")


class TestManifest:
    def test_open_twice_same_fingerprint(self, tmp_path):
        _open(tmp_path)
        journal = _open(tmp_path, resume=True)
        assert journal.read_manifest()["fingerprint"] == "fp"

    def test_mismatched_fingerprint_refused(self, tmp_path):
        _open(tmp_path)
        with pytest.raises(CheckpointMismatchError, match="different"):
            _open(tmp_path, fingerprint="other")

    def test_existing_records_require_resume(self, tmp_path):
        journal = _open(tmp_path)
        journal.record("b0", {0: 1})
        with pytest.raises(CheckpointError, match="--resume"):
            _open(tmp_path)
        _open(tmp_path, resume=True)  # with resume: accepted

    def test_not_a_campaign_dir(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            CheckpointJournal(tmp_path / "empty").read_manifest()

    def test_foreign_manifest_rejected(self, tmp_path):
        target = tmp_path / "c"
        target.mkdir()
        (target / "manifest.json").write_text(json.dumps({"hello": 1}))
        with pytest.raises(CheckpointError, match="not a div-repro"):
            CheckpointJournal(target).read_manifest()

    def test_config_fingerprint_sensitivity(self):
        base = config_fingerprint("E1", "full", 0, "Config(n=1)")
        assert base == config_fingerprint("E1", "full", 0, "Config(n=1)")
        assert base != config_fingerprint("E1", "full", 1, "Config(n=1)")
        assert base != config_fingerprint("E1", "quick", 0, "Config(n=1)")
        assert base != config_fingerprint("E2", "full", 0, "Config(n=1)")
        assert base != config_fingerprint("E1", "full", 0, "Config(n=2)")


class TestCorruption:
    def _journal_with_damage(self, tmp_path, damage, **kwargs):
        journal = _open(tmp_path, **kwargs)
        for index in range(3):
            journal.record("b0", {index: index * 11})
        path = journal._record_path("b0", 1)
        damage(path)
        return journal

    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: p.write_bytes(b"garbage"),
            lambda p: p.write_bytes(p.read_bytes()[: len(p.read_bytes()) // 2]),
            lambda p: p.write_bytes(b""),
        ],
        ids=["overwritten", "truncated", "emptied"],
    )
    def test_damage_detected(self, tmp_path, damage):
        journal = self._journal_with_damage(tmp_path, damage)
        with pytest.raises(CheckpointCorruptError):
            journal.completed("b0")

    def test_discard_mode_drops_damaged_record(self, tmp_path):
        journal = self._journal_with_damage(
            tmp_path, lambda p: p.write_bytes(b"junk"), on_corrupt="discard"
        )
        assert journal.completed("b0") == {0: 0, 2: 22}
        assert not journal._record_path("b0", 1).exists()

    def test_bad_payload_checksum_detected(self, tmp_path):
        journal = _open(tmp_path)
        path = journal.record("b0", {0: "payload"})
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload bit, keep the header
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            journal.completed("b0")


class TestChunkRecords:
    def test_chunk_is_one_file_with_a_frame_per_trial(self, tmp_path):
        journal = _open(tmp_path)
        path = journal.record("b0", {6: "c", 4: "a", 5: "b"})
        assert path.name == "t4.rec"
        assert [p.name for p in path.parent.iterdir()] == ["t4.rec"]
        assert list(journal.iter_records()) == [
            ("b0", 4, path),
            ("b0", 5, path),
            ("b0", 6, path),
        ]
        assert journal.completed("b0") == {4: "a", 5: "b", 6: "c"}

    def test_truncation_at_a_frame_boundary_detected(self, tmp_path):
        journal = _open(tmp_path)
        path = journal.record("b0", {0: "same", 1: "same"})
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # exactly one whole frame
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            journal.completed("b0")

    def test_stray_bytes_detected(self, tmp_path):
        journal = _open(tmp_path)
        path = journal.record("b0", {0: 1, 1: 2})
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CheckpointCorruptError, match="stray"):
            journal.completed("b0")

    def test_pool_chunks_diff_equal_to_serial_trials(self, tmp_path):
        serial = _open(tmp_path, name="serial")
        with campaign(serial):
            run_trials(16, draw_trial, seed=11)
        pool = _open(tmp_path, name="pool")
        # One pool worker splits 16 trials into four chunks of four.
        with campaign(pool, executor="pool"):
            run_trials(16, draw_trial, seed=11, workers=1)
        assert len(list(serial.directory.rglob("*.rec"))) == 16
        assert sorted(p.name for p in pool.directory.rglob("*.rec")) == [
            "t0.rec",
            "t12.rec",
            "t4.rec",
            "t8.rec",
        ]
        assert diff_journals(serial, pool) == []

    @pytest.mark.parametrize("kind", ["corrupt", "truncate"])
    def test_damaged_pool_chunk_discarded_and_rerun(self, tmp_path, kind):
        # One pool worker splits 16 trials into four chunks of four.
        reference = run_trials(16, draw_trial, seed=8).outcomes
        plan = FaultPlan.parse(f"{kind}@5")
        with campaign(_open(tmp_path), plan, executor="pool"):
            first = run_trials(16, draw_trial, seed=8, workers=1)
        assert first.outcomes == reference
        with pytest.raises(CheckpointCorruptError):
            with campaign(_open(tmp_path, resume=True), executor="pool"):
                run_trials(16, draw_trial, seed=8, workers=1)
        lenient = _open(tmp_path, resume=True, on_corrupt="discard")
        # Trial 5's chunk (4..7) goes as a whole; the others stay cached.
        assert sorted(lenient.completed("b0000-trials-16")) == [
            0, 1, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15,
        ]
        with campaign(lenient, executor="pool"):
            resumed = run_trials(16, draw_trial, seed=8, workers=1)
        assert resumed.outcomes == reference
        serial = _open(tmp_path, name="serial")
        with campaign(serial):
            run_trials(16, draw_trial, seed=8)
        assert diff_journals(serial, _open(tmp_path, resume=True)) == []

    def test_abort_fires_after_its_whole_chunk(self, tmp_path):
        journal = _open(tmp_path)
        with pytest.raises(InjectedAbort, match="after trial 5"):
            with campaign(journal, FaultPlan.parse("abort@5"), executor="pool"):
                run_trials(16, draw_trial, seed=8, workers=1)
        # Chunks are handed on in submission order: 0..3, then 4..7.
        assert [i for _, i, _ in journal.iter_records()] == list(range(8))


class TestCampaignSession:
    def test_no_session_by_default(self):
        assert current_session() is None

    def test_nesting_restores_previous(self, tmp_path):
        with campaign() as outer:
            assert current_session() is outer
            with campaign() as inner:
                assert current_session() is inner
            assert current_session() is outer
        assert current_session() is None

    def test_batch_keys_deterministic(self):
        first = CampaignSession()
        second = CampaignSession()
        keys = [first.begin_batch("trials", 8), first.begin_batch("grid", 20)]
        assert keys == [
            second.begin_batch("trials", 8),
            second.begin_batch("grid", 20),
        ]
        assert keys[0] != keys[1]


class TestResume:
    def test_serial_resume_identical(self, tmp_path):
        reference = run_trials(10, draw_trial, seed=42).outcomes
        journal = _open(tmp_path)
        with campaign(journal):
            first = run_trials(10, draw_trial, seed=42)
        assert first.outcomes == reference
        # Drop some records to simulate an interrupted campaign.
        for _, index, path in list(journal.iter_records()):
            if index % 3 == 0:
                path.unlink()
        with campaign(_open(tmp_path, resume=True)):
            resumed = run_trials(10, draw_trial, seed=42)
        assert resumed.outcomes == reference

    def test_parallel_resume_of_serial_campaign(self, tmp_path):
        """A campaign interrupted serially resumes under any worker count."""
        reference = run_trials(8, draw_trial, seed=7).outcomes
        journal = _open(tmp_path)
        plan = FaultPlan.parse("abort@4")
        with pytest.raises(InjectedAbort):
            with campaign(journal, plan):
                run_trials(8, draw_trial, seed=7)
        journaled = len(list(journal.iter_records()))
        assert 0 < journaled < 8
        with campaign(_open(tmp_path, resume=True)):
            resumed = run_trials(8, draw_trial, seed=7, workers=2)
        assert resumed.outcomes == reference

    def test_fully_cached_resume_runs_nothing(self, tmp_path):
        journal = _open(tmp_path)
        with campaign(journal):
            run_trials(6, draw_trial, seed=3)

        def exploding_trial(index, rng):  # pragma: no cover - must not run
            raise AssertionError("resume re-executed a journaled trial")

        with campaign(_open(tmp_path, resume=True)):
            resumed = run_trials(6, exploding_trial, seed=3)
        assert resumed.outcomes == run_trials(6, draw_trial, seed=3).outcomes

    def test_grid_resume_identical(self, tmp_path):
        reference = run_trials_over(["a", "b"], 4, parameter_trial, seed=5)
        journal = _open(tmp_path)
        plan = FaultPlan.parse("abort@5")
        with pytest.raises(InjectedAbort):
            with campaign(journal, plan):
                run_trials_over(["a", "b"], 4, parameter_trial, seed=5)
        with campaign(_open(tmp_path, resume=True)):
            resumed = run_trials_over(
                ["a", "b"], 4, parameter_trial, seed=5, workers=2
            )
        assert [(p, ts.outcomes) for p, ts in resumed] == [
            (p, ts.outcomes) for p, ts in reference
        ]

    def test_journals_bitwise_identical_across_paths(self, tmp_path):
        serial = _open(tmp_path, name="serial")
        with campaign(serial):
            run_trials(8, draw_trial, seed=11)
        parallel = _open(tmp_path, name="parallel")
        with campaign(parallel):
            run_trials(8, draw_trial, seed=11, workers=2)
        assert diff_journals(serial, parallel) == []

    def test_diff_reports_differences(self, tmp_path):
        left = _open(tmp_path, name="left")
        right = _open(tmp_path, name="right")
        left.record("b0", {0: "same"})
        right.record("b0", {0: "same"})
        left.record("b0", {1: "only-left"})
        right.record("b0", {2: "differs"})
        left.record("b0", {2: "differs!"})
        differences = diff_journals(left, right)
        assert len(differences) == 2
        assert any("only in" in line for line in differences)
        assert any("differs" in line for line in differences)


class TestRegistryCampaigns:
    def _quick_spec(self, monkeypatch):
        from repro.experiments import e10_stage_evolution
        from repro.experiments.registry import REGISTRY

        monkeypatch.setattr(
            e10_stage_evolution.Config,
            "quick",
            classmethod(lambda cls: cls(n=12, trials=6, sample_trajectories=1)),
        )
        return REGISTRY["E10"]

    def test_run_quick_with_checkpoint_then_resume(self, tmp_path, monkeypatch):
        spec = self._quick_spec(monkeypatch)
        reference = spec.run_quick(seed=2)
        first = spec.run_quick(seed=2, checkpoint_dir=tmp_path)
        assert first.render() == reference.render()
        resumed = spec.run_quick(seed=2, checkpoint_dir=tmp_path, resume=True)
        assert resumed.render() == reference.render()

    def test_rerun_without_resume_refused(self, tmp_path, monkeypatch):
        spec = self._quick_spec(monkeypatch)
        spec.run_quick(seed=2, checkpoint_dir=tmp_path)
        with pytest.raises(CheckpointError, match="--resume"):
            spec.run_quick(seed=2, checkpoint_dir=tmp_path)

    def test_mismatched_seed_refused(self, tmp_path, monkeypatch):
        spec = self._quick_spec(monkeypatch)
        spec.run_quick(seed=2, checkpoint_dir=tmp_path)
        with pytest.raises(CheckpointMismatchError):
            spec.run_quick(seed=3, checkpoint_dir=tmp_path, resume=True)

    def test_scale_mismatch_refused(self, tmp_path, monkeypatch):
        spec = self._quick_spec(monkeypatch)
        spec.run_quick(seed=2, checkpoint_dir=tmp_path)
        with pytest.raises(CheckpointMismatchError):
            spec.run_full(seed=2, checkpoint_dir=tmp_path, resume=True)

    def test_unknown_scale_rejected(self, monkeypatch):
        from repro.errors import ExperimentError

        spec = self._quick_spec(monkeypatch)
        with pytest.raises(ExperimentError, match="scale"):
            spec.run_campaign("medium")


class TestScenarioCampaignResume:
    """The scenario experiments (zealots / churn / adversarial) go
    through the same campaign machinery as everything else: a serially
    started checkpoint must resume bit-identically under parallel
    workers, because per-trial seeds derive from the manifest — not
    from execution order."""

    @staticmethod
    def _stable_lines(report):
        """Report lines minus the wall-clock telemetry notes, which
        legitimately differ between serial and parallel execution."""
        return [
            line
            for line in report.render().splitlines()
            if "trial execution" not in line and "finished in" not in line
        ]

    def _scenario_spec(self, monkeypatch, experiment_id, **quick_config):
        from repro.experiments import (
            e17_zealots,
            e18_churn,
            e19_adversarial,
        )
        from repro.experiments.registry import REGISTRY

        module = {
            "E17": e17_zealots,
            "E18": e18_churn,
            "E19": e19_adversarial,
        }[experiment_id]
        monkeypatch.setattr(
            module.Config,
            "quick",
            classmethod(lambda cls: cls(**quick_config)),
        )
        return REGISTRY[experiment_id]

    def test_zealot_campaign_parallel_resume(self, tmp_path, monkeypatch):
        spec = self._scenario_spec(
            monkeypatch,
            "E17",
            n=20,
            degree=4,
            k=4,
            fractions=(0.0, 0.2),
            trials=4,
            max_steps=60_000,
        )
        reference = spec.run_quick(seed=5)
        serial = spec.run_quick(seed=5, checkpoint_dir=tmp_path)
        assert serial.render() == reference.render()
        resumed = spec.run_quick(
            seed=5, checkpoint_dir=tmp_path, resume=True, workers=2
        )
        assert self._stable_lines(resumed) == self._stable_lines(reference)

    def test_adversarial_campaign_parallel_resume(
        self, tmp_path, monkeypatch
    ):
        spec = self._scenario_spec(
            monkeypatch,
            "E19",
            n=20,
            degree=4,
            k=4,
            trials=3,
            max_steps=60_000,
        )
        reference = spec.run_quick(seed=9)
        serial = spec.run_quick(seed=9, checkpoint_dir=tmp_path)
        assert serial.render() == reference.render()
        resumed = spec.run_quick(
            seed=9, checkpoint_dir=tmp_path, resume=True, workers=2
        )
        assert self._stable_lines(resumed) == self._stable_lines(reference)

    def test_churn_campaign_aborted_serially_resumes_on_pool(
        self, tmp_path, monkeypatch
    ):
        spec = self._scenario_spec(
            monkeypatch,
            "E18",
            n=20,
            degree=4,
            k=4,
            period=40,
            swap_levels=(0, 8),
            horizon=400,
            trials=4,
            consensus_trials=3,
            max_steps=60_000,
        )
        reference = spec.run_quick(seed=3)
        with pytest.raises(InjectedAbort):
            spec.run_quick(
                seed=3,
                checkpoint_dir=tmp_path,
                fault_plan=FaultPlan.parse("abort@2"),
            )
        resumed = spec.run_quick(
            seed=3,
            checkpoint_dir=tmp_path,
            resume=True,
            executor="pool",
            workers=2,
        )
        assert self._stable_lines(resumed) == self._stable_lines(reference)
