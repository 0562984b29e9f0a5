"""Tiny-scale tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from hostinfo import HostClock
from run import ROOT, run_benchmark
from repro.experiments import e01_winning_distribution

TINY = workloads.Scale(
    expander_n=100,
    expander_d=4,
    expander_trials=1,
    star_n=11,
    lollipop_clique=5,
    lollipop_tail=6,
    star_trials=2,
    lollipop_trials=1,
    scenario_n=300,
    scenario_d=4,
    scenario_steps=20_000,
    churn_period=2_000,
    churn_swaps=4,
    loop_prefix=5_000,
    max_steps=5_000_000,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def tiny_campaign(monkeypatch):
    """Shrink E1 quick so the campaign workload runs in a second."""
    tiny = e01_winning_distribution.Config(n=30, k=5, fractions=(0.25, 0.75), trials=4)
    monkeypatch.setattr(
        e01_winning_distribution.Config, "quick", classmethod(lambda cls: tiny)
    )


def _inputs_digest(inputs) -> bytes:
    return pickle.dumps(inputs)


def test_benchmark_json_lists_the_workloads():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_same_work_other_seed_other_inputs(name, tmp_path):
    workload = workloads.make_workload(name, TINY, tmp_path)
    first, _ = workload.setup(7)
    again, _ = workload.setup(7)
    other, _ = workload.setup(8)
    assert _inputs_digest(first) == _inputs_digest(again)
    assert _inputs_digest(first) != _inputs_digest(other)
    clock = HostClock()
    assert (
        workload.run_round(first, clock)["key"]
        == workload.run_round(again, clock)["key"]
    )


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_end_to_end_metric_printed_with_its_unit(name, tmp_path):
    header, result = run_benchmark(name, 3, 0.01, False, scale=TINY, work_dir=tmp_path)
    assert result["correct"], header["failed_checks"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert header["host"]["nproc"] >= 1
    assert header["calibration"]["python_s"] > 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_prints_every_layer_and_matches_untraced(name, tmp_path):
    header, result = run_benchmark(name, 3, 0.01, True, scale=TINY, work_dir=tmp_path)
    assert result["correct"], header["failed_checks"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["trace.overhead"]["value"] > 0
    assert (tmp_path / "trace" / f"{name}-seed3.json").is_file()


def test_seeded_wrong_output_is_counted(monkeypatch, tmp_path):
    real = workloads.div.run_div

    def wrong_winner(*args, **kwargs):
        result = real(*args, **kwargs)
        if kwargs.get("kernel") == "auto":
            result.winner = 99
        return result

    monkeypatch.setattr(workloads.div, "run_div", wrong_winner)
    header, result = run_benchmark(
        "div-engine.hub", 3, 0.01, False, scale=TINY, work_dir=tmp_path
    )
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["passed_frac"]["value"] < 1.0
    assert "winner_in_final_support" in header["failed_checks"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kn-campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
