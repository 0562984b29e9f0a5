"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import time

import pytest

from repro.cli import _build_parser, main
from repro.obs.log import FEED_FORMAT, TELEMETRY_DIRNAME
from tests.test_timeline import _open_journal, plant_records, write_feed


def command_paths(parser, prefix=()):
    """Every subcommand path of ``parser``, nested ones included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield (*prefix, name)
                yield from command_paths(sub, (*prefix, name))


class TestHelp:
    @pytest.mark.parametrize(
        "path", list(command_paths(_build_parser())), ids=" ".join
    )
    def test_every_command_has_working_help(self, path, capsys):
        with pytest.raises(SystemExit) as exited:
            main([*path, "--help"])
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: div-repro")


class TestList:
    def test_lists_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 13):
            assert f"E{i}" in out


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "stage evolution" in out
        assert "winner" in out


class TestRun:
    def test_run_quick_experiment(self, capsys, monkeypatch):
        # Shrink E10 further so the CLI test stays fast.
        from repro.experiments import e10_stage_evolution

        monkeypatch.setattr(
            e10_stage_evolution.Config,
            "quick",
            classmethod(lambda cls: cls(n=12, trials=5, sample_trajectories=1)),
        )
        assert main(["run", "E10", "--quick", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "E10" in out
        assert "finished in" in out

    def test_run_unknown_experiment_exits_2(self, capsys):
        # Expected failures print one line to stderr instead of a
        # traceback (see the main() error wrapper).
        assert main(["run", "E77"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("div-repro: error:")
        assert "E77" in err
        assert "Traceback" not in err

    def test_unexpected_exceptions_keep_their_traceback(self, monkeypatch):
        import repro.cli as cli

        def boom(args):
            raise ValueError("a genuine bug")

        monkeypatch.setattr(cli, "_cmd_run", boom)
        with pytest.raises(ValueError, match="genuine bug"):
            main(["run", "E1"])

    def test_resume_without_checkpoint_dir_exits_2(self, capsys):
        assert main(["run", "E1", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_trace_dir_with_telemetry_exits_2(self, tmp_path, capsys):
        argv = ["run", "E10", "--quick", "--checkpoint-dir", str(tmp_path / "c"),
                "--telemetry", "--trace-dir", str(tmp_path / "t")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("div-repro: error: --trace-dir and --telemetry")
        assert err.count("\n") == 1
        assert not (tmp_path / "c").exists() and not (tmp_path / "t").exists()

    def test_bad_fault_spec_exits_2(self, capsys):
        assert main(["run", "E1", "--inject-faults", "explode@1"]) == 2
        assert "explode" in capsys.readouterr().err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


def _shrink_e10(monkeypatch):
    from repro.experiments import e10_stage_evolution

    monkeypatch.setattr(
        e10_stage_evolution.Config,
        "quick",
        classmethod(lambda cls: cls(n=12, trials=6, sample_trajectories=1)),
    )


class TestCheckpointCommands:
    def test_run_checkpoint_resume_round_trip(self, tmp_path, capsys, monkeypatch):
        _shrink_e10(monkeypatch)
        ckpt = str(tmp_path / "ckpt")
        base = ["run", "E10", "--quick", "--seed", "5", "--checkpoint-dir", ckpt]
        assert main(base) == 0
        first = capsys.readouterr().out
        # A second run without --resume must refuse...
        assert main(base) == 2
        capsys.readouterr()
        # ...and with --resume reproduce the report exactly.
        assert main(base + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        strip = lambda text: [
            line for line in text.splitlines() if "finished in" not in line
        ]
        assert strip(resumed) == strip(first)

    def test_campaign_status_and_checkpoint_diff(self, tmp_path, capsys, monkeypatch):
        _shrink_e10(monkeypatch)
        for name in ("a", "b"):
            assert (
                main(
                    [
                        "run",
                        "E10",
                        "--quick",
                        "--seed",
                        "5",
                        "--checkpoint-dir",
                        str(tmp_path / name),
                    ]
                )
                == 0
            )
        capsys.readouterr()
        assert main(["campaign", "status", str(tmp_path / "a")]) == 0
        out = capsys.readouterr().out
        assert "E10" in out
        assert "journaled trial(s)" in out
        assert (
            main(
                [
                    "checkpoint",
                    "diff",
                    str(tmp_path / "a" / "e10"),
                    str(tmp_path / "b" / "e10"),
                ]
            )
            == 0
        )
        assert "identical" in capsys.readouterr().out

    def test_checkpoint_show_not_a_campaign(self, tmp_path, capsys):
        # A path that does not exist holds no campaign either.
        assert main(["campaign", "status", str(tmp_path / "missing")]) == 2
        assert "no campaign" in capsys.readouterr().err

    def test_checkpoint_diff_detects_divergence(self, tmp_path, capsys, monkeypatch):
        _shrink_e10(monkeypatch)
        for seed in ("5", "6"):
            assert (
                main(
                    [
                        "run",
                        "E10",
                        "--quick",
                        "--seed",
                        seed,
                        "--checkpoint-dir",
                        str(tmp_path / seed),
                    ]
                )
                == 0
            )
        capsys.readouterr()
        assert (
            main(
                [
                    "checkpoint",
                    "diff",
                    str(tmp_path / "5" / "e10"),
                    str(tmp_path / "6" / "e10"),
                ]
            )
            == 1
        )
        assert "difference" in capsys.readouterr().out


class TestExecutorFlags:
    def test_unknown_executor_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "E1", "--executor", "warp"])

    def test_pool_executor_run_matches_serial(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import e01_winning_distribution

        monkeypatch.setattr(
            e01_winning_distribution.Config,
            "quick",
            classmethod(lambda cls: cls(n=30, fractions=(0.25, 0.75), trials=6)),
        )
        base = ["run", "E1", "--quick", "--seed", "5", "--checkpoint-dir"]
        assert main(base + [str(tmp_path / "ckpt")]) == 0
        reference = capsys.readouterr().out
        pool_args = base + [str(tmp_path / "pool"), "--executor", "pool"]
        assert main(pool_args + ["--workers", "2"]) == 0
        pooled = capsys.readouterr().out
        strip = lambda text: [
            line
            for line in text.splitlines()
            if "finished in" not in line and "trial execution" not in line
        ]
        assert strip(pooled) == strip(reference)
        assert (
            main(
                [
                    "checkpoint",
                    "diff",
                    str(tmp_path / "ckpt" / "e1"),
                    str(tmp_path / "pool" / "e1"),
                ]
            )
            == 0
        )
        assert "identical" in capsys.readouterr().out

    def test_pool_executor_without_worker_support_runs_serially(
        self, tmp_path, capsys
    ):
        # E10's trials are closures; an explicit pool executor must not
        # try to ship them to worker processes.
        base = ["run", "E10", "--quick", "--seed", "2", "--checkpoint-dir"]
        assert main(base + [str(tmp_path / "serial")]) == 0
        reference = capsys.readouterr().out
        pool_args = base + [str(tmp_path / "pool"), "--executor", "pool"]
        assert main(pool_args + ["--workers", "2"]) == 0
        pooled = capsys.readouterr().out
        assert "[E10 has no parallel trial support; running serially]" in pooled
        strip = lambda text: [
            line
            for line in text.splitlines()
            if "finished in" not in line and "parallel trial support" not in line
        ]
        assert strip(pooled) == strip(reference)
        diff = ["checkpoint", "diff", str(tmp_path / "serial" / "e10"),
                str(tmp_path / "pool" / "e10")]
        assert main(diff) == 0
        assert "identical" in capsys.readouterr().out


class TestCampaignStatus:
    def test_status_reports_batches(self, tmp_path, capsys, monkeypatch):
        _shrink_e10(monkeypatch)
        ckpt = tmp_path / "ckpt"
        assert (
            main(
                ["run", "E10", "--quick", "--seed", "5", "--checkpoint-dir", str(ckpt)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["campaign", "status", str(ckpt)]) == 0
        # Without a telemetry/ log, status prints the journal lines and
        # the progress read from the journal, but no launcher lines.
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            f"{ckpt / 'e10'}: E10 [quick] seed=5 — 6 journaled trial(s) in "
            "1 batch(es)",
            "  b0000-trials-6: 6 trial(s)",
        ]
        assert lines[2].startswith("  progress: 6/6 trial(s), ")
        assert lines[2].endswith(" trials/s recently, ETA done")
        assert len(lines) == 3

    def test_status_without_a_rate_has_no_eta(self, tmp_path, capsys):
        # Stalled: a batch began, no chunk landed, so no rate to project.
        stalled = tmp_path / "stalled"
        _open_journal(stalled).begin("b0000-trials-5")
        write_feed(
            stalled / TELEMETRY_DIRNAME,
            "solo.jsonl",
            [
                {
                    "seq": 0, "t": 1.0, "kind": "hello",
                    "format": FEED_FORMAT, "launcher": "solo",
                },
            ],
        )
        assert main(["campaign", "status", str(stalled)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "  b0000-trials-5: 0 trial(s)"
        assert lines[2] == "  progress: 0/5 trial(s), 0.0 trials/s recently, ETA ?"
        assert lines[3].startswith("  unclosed launcher solo: last record ")
        # Dead: three trials were journaled and the campaign fell silent
        # 15 s ago, longer than the rate window, so it projects no ETA.
        dead = tmp_path / "dead"
        last = time.time() - 15.0
        plant_records(
            _open_journal(dead), "b0000-trials-5", [last - 0.5 * k for k in (2, 1, 0)]
        )
        write_feed(
            dead / TELEMETRY_DIRNAME,
            "solo.jsonl",
            [
                {
                    "seq": 0, "t": last - 1.0, "kind": "hello",
                    "format": FEED_FORMAT, "launcher": "solo",
                },
                {
                    "seq": 1, "t": last, "kind": "trial", "batch": "b0000-trials-5",
                    "index": 2, "seconds": 0.5, "worker": "w",
                },
            ],
        )
        assert main(["campaign", "status", str(dead)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "  progress: 3/5 trial(s), 0.0 trials/s recently, ETA ?"
        age = lines[3].removeprefix("  unclosed launcher solo: last record ")
        assert 15.0 <= float(age.removesuffix("s ago")) < 75.0

    def test_damaged_record_listed_beside_intact_counts(
        self, tmp_path, capsys, monkeypatch
    ):
        _shrink_e10(monkeypatch)
        # The same damage with and without a telemetry/ log beside it.
        for name, extra in (("ckpt", []), ("logged", ["--telemetry"])):
            ckpt = tmp_path / name
            base = ["run", "E10", "--quick", "--seed", "5", "--checkpoint-dir"]
            assert main([*base, str(ckpt), *extra]) == 0
            victim = ckpt / "e10" / "trials" / "b0000-trials-6" / "t1.rec"
            victim.write_bytes(b"garbage")
            capsys.readouterr()
            assert main(["campaign", "status", str(ckpt)]) == 1
            out = capsys.readouterr().out
            assert "— 5 journaled trial(s) in 1 batch(es)" in out
            assert "  b0000-trials-6: 5 trial(s)" in out
            assert (
                f"  damaged: {victim} (--discard-corrupt deletes it and reruns "
                "its trials)" in out
            )
            # The damaged trial is not completed: a resume reruns it.
            assert "  progress: 5/6 trial(s)" in out
            assert victim.read_bytes() == b"garbage"  # inspection never deletes

    def test_status_of_non_campaign_exits_2(self, tmp_path, capsys):
        assert main(["campaign", "status", str(tmp_path)]) == 2
        assert "no campaign" in capsys.readouterr().err


class TestReport:
    def test_combined_report(self, tmp_path, capsys, monkeypatch):
        # Limit the registry to one cheap experiment for the test.
        import repro.cli as cli
        from repro.experiments import e10_stage_evolution
        from repro.experiments.registry import REGISTRY

        monkeypatch.setattr(
            e10_stage_evolution.Config,
            "quick",
            classmethod(lambda cls: cls(n=12, trials=5, sample_trajectories=1)),
        )
        monkeypatch.setattr(
            cli, "all_experiments", lambda: [REGISTRY["E10"]]
        )
        target = tmp_path / "report.md"
        assert main(["report", str(target), "--quick", "--seed", "2"]) == 0
        text = target.read_text()
        assert text.startswith("# DIV reproduction")
        assert "E10" in text
