"""Public API surface checks: exports resolve and carry documentation."""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.graphs",
    "repro.core",
    "repro.baselines",
    "repro.analysis",
    "repro.experiments",
]


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_all_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists {name!r}"


@pytest.mark.parametrize("module_name", SUBPACKAGES + ["repro"])
def test_public_items_are_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        item = getattr(module, name)
        if inspect.isfunction(item) or inspect.isclass(item):
            if not inspect.getdoc(item):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: missing docstrings on {undocumented}"


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_experiment_modules_follow_contract():
    from repro.experiments.registry import all_experiments

    for spec in all_experiments():
        module = importlib.import_module(spec.run.__module__)
        assert module.EXPERIMENT_ID == spec.experiment_id
        assert module.TITLE
        signature = inspect.signature(module.run)
        parameters = list(signature.parameters)
        assert parameters in (["config", "seed"], ["config", "seed", "workers"])
        if "workers" in signature.parameters:
            # Parallelism is opt-in: the serial default must stay intact.
            assert signature.parameters["workers"].default is None
        assert inspect.getdoc(module.run)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone used to cost `import repro` about a second, and
    # scipy.sparse about a quarter of one; no scipy module loads until a
    # function that needs it runs.
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    assert loaded == "[]"
