"""Project contracts, checked over the real tree.

The paper's estimates are only as good as two guarantees of the
harness: every trial draws from a generator derived from the campaign
seed, and a trial sees no stale ambient state from the process that
launched it. A third keeps the execution kernels swappable under the
drivers. The three contracts:

1. **Determinism** — no global-state randomness and no unseeded
   generator anywhere in the tree; literal seeds are reproducible.
2. **Worker ambient state** — every trial runs under the parent's
   kernel choice. An in-process trial also runs under the launcher's
   event log and profiler; a pool worker hides the copies it inherits.
3. **Kernel-agnostic drivers** — experiment drivers and baselines never
   import a kernel module or hard-code a backend.

Each has a check, a test that the tree passes it, and a seeded
violation the check must catch.
"""

from __future__ import annotations

import ast
import contextlib
from pathlib import Path
from typing import List, Optional

import numpy as np
import pytest

import repro.parallel.base
from repro.analysis.montecarlo import run_trials
from repro.checkpoint import campaign
from repro.core.kernels import active_kernel, use_kernel
from repro.obs.log import EventLog, active_log, recording
from repro.obs.profile import active_profiler, profiling

ROOT = Path(__file__).resolve().parents[1]

# -- 1. Determinism ---------------------------------------------------------

#: Trees scanned for randomness; ``repro/rng.py`` is the one exempt module.
SCANNED = ("src", "tests", "benchmarks", "examples", "scripts")
RNG_MODULE = ROOT / "src" / "repro" / "rng.py"

#: Constructors that draw fresh OS entropy when given no seed.
SEEDABLE = frozenset(
    {"make_rng", "default_rng", "SeedSequence", "PCG64", "PCG64DXSM",
     "Philox", "SFC64", "MT19937"}
)
#: ``numpy.random`` names that hold no global state: seed plumbing and
#: generator classes.
NP_RANDOM_SAFE = (SEEDABLE - {"make_rng"}) | {"Generator", "BitGenerator"}


def dotted(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; ``None`` for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def randomness_violations(source: str, name: str = "<source>") -> List[str]:
    """Global-state or unseeded randomness in ``source``."""
    tree = ast.parse(source)
    found = []
    numpy, np_random = {"numpy"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    found.append(f"{name}:{node.lineno}: imports stdlib random")
                elif alias.name == "numpy":
                    numpy.add(alias.asname or "numpy")
                elif alias.name == "numpy.random" and alias.asname:
                    np_random.add(alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "random":
                found.append(f"{name}:{node.lineno}: imports stdlib random")
            elif node.module == "numpy":
                np_random.update(
                    a.asname or a.name for a in node.names if a.name == "random"
                )
            elif node.module == "numpy.random":
                bad = sorted(a.name for a in node.names if a.name not in NP_RANDOM_SAFE)
                if bad:
                    found.append(f"{name}:{node.lineno}: imports numpy.random {bad}")
    for node in ast.walk(tree):
        chain = dotted(node.func) if isinstance(node, ast.Call) else None
        if chain is None:
            continue
        if chain[0] in numpy and chain[1:2] == ["random"]:
            fn = chain[2:]
        else:
            fn = chain[1:] if chain[0] in np_random else []
        if len(fn) == 1 and fn[0] not in NP_RANDOM_SAFE:
            found.append(f"{name}:{node.lineno}: global-state np.random.{fn[0]}()")
        seeds = [*node.args, *(k.value for k in node.keywords)]
        if chain[-1] in SEEDABLE and all(
            isinstance(s, ast.Constant) and s.value is None for s in seeds
        ):
            found.append(f"{name}:{node.lineno}: unseeded {chain[-1]}()")
    return found


def scanned_files() -> List[Path]:
    """Every Python file the determinism contract covers."""
    return [
        path
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        if path != RNG_MODULE
    ]


def scan(check, files: List[Path]) -> List[str]:
    """Run a source ``check`` over ``files``; every problem it reports."""
    return [
        problem
        for path in files
        for problem in check(path.read_text(), str(path.relative_to(ROOT)))
    ]


class TestDeterminism:
    def test_tree_has_no_global_or_unseeded_randomness(self):
        files = scanned_files()
        assert len(files) > 100
        assert scan(randomness_violations, files) == []

    @pytest.mark.parametrize(
        "source",
        [
            "import numpy as np\nx = np.random.rand(3)\n",
            "import numpy\nnumpy.random.shuffle(a)\n",
            "from numpy import random as npr\nnpr.normal()\n",
            "import numpy.random as nr\nnr.seed(1)\n",
            "from numpy.random import rand\n",
            "import random\n",
            "from random import choice\n",
            "import numpy as np\nnp.random.default_rng()\n",
            "make_rng()\n",
            "make_rng(None)\n",
            "rng_module.make_rng(seed=None)\n",
            "np.random.SeedSequence()\n",
        ],
    )
    def test_seeded_violation_is_caught(self, source):
        assert randomness_violations(source)

    @pytest.mark.parametrize(
        "source",
        [
            "make_rng(3)\n",
            "make_rng(seed)\n",
            "import numpy as np\nnp.random.default_rng(3)\n",
            "import numpy as np\nnp.random.Generator(np.random.PCG64(7))\n",
            "rng.random(4)\n",
        ],
    )
    def test_seeded_randomness_passes(self, source):
        assert randomness_violations(source) == []


# -- 2. Worker ambient state ------------------------------------------------

def ambient_probe(index: int, rng: np.random.Generator) -> List[str]:
    """A trial naming every piece of the parent's ambient state it sees."""
    ambient = {"log": active_log(), "profiler": active_profiler()}
    leaked = [name for name, live in ambient.items() if live is not None]
    if active_kernel() != "loop":
        leaked.append(f"kernel {active_kernel()!r}")
    return leaked


def probe_under_parent_state(
    tmp_path: Path, workers: Optional[int] = None, executor: Optional[str] = None
) -> List[List[str]]:
    """Run the probe while the parent holds every ambient stack at once."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(use_kernel("loop"))
        stack.enter_context(recording(EventLog(tmp_path / "telemetry")))
        stack.enter_context(profiling())
        stack.enter_context(campaign(executor=executor))
        return run_trials(4, ambient_probe, seed=0, workers=workers).outcomes


class TestWorkerAmbientState:
    @pytest.mark.parametrize(
        "dispatch",
        [{"workers": 2}],
        ids=["pool"],
    )
    def test_trials_see_only_the_kernel_choice(self, tmp_path, dispatch):
        assert probe_under_parent_state(tmp_path, **dispatch) == [[]] * 4

    @pytest.mark.parametrize(
        "dispatch",
        [{}, {"workers": 1}, {"executor": "serial"}],
        ids=["default", "one-worker", "serial"],
    )
    def test_in_process_trials_see_the_launchers_log_and_profiler(
        self, tmp_path, dispatch
    ):
        outcomes = probe_under_parent_state(tmp_path, **dispatch)
        assert outcomes == [["log", "profiler"]] * 4

    @pytest.mark.parametrize(
        "suspension, leak",
        [
            ("log_suspended", "log"),
            ("profiling_suspended", "profiler"),
        ],
    )
    def test_seeded_violation_is_caught(self, tmp_path, monkeypatch, suspension, leak):
        # Patched before the pool forks, so the workers inherit the leak.
        monkeypatch.setattr(repro.parallel.base, suspension, contextlib.nullcontext)
        outcomes = probe_under_parent_state(tmp_path, workers=2)
        assert all(leak in seen for seen in outcomes)


# -- 3. Kernel-agnostic drivers ---------------------------------------------

KERNELS = "repro.core.kernels"


def kernel_coupling(source: str, name: str = "<source>") -> List[str]:
    """Kernel-module imports and hard-coded backends in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base, *(f"{base}.{alias.name}" for alias in node.names)]
        else:
            modules = []
        if any(m == KERNELS or m.startswith(KERNELS + ".") for m in modules):
            found.append(f"{name}:{node.lineno}: imports {KERNELS}")
        for keyword in node.keywords if isinstance(node, ast.Call) else ():
            value = keyword.value
            if (
                keyword.arg == "kernel"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
                and value.value != "auto"
            ):
                found.append(f"{name}:{node.lineno}: kernel={value.value!r}")
    return found


def driver_files() -> List[Path]:
    """Experiment drivers and baselines: the files held kernel-agnostic."""
    src = ROOT / "src" / "repro"
    return sorted(src.glob("experiments/e*.py")) + sorted(src.glob("baselines/*.py"))


class TestKernelAgnosticDrivers:
    def test_drivers_and_baselines_stay_kernel_agnostic(self):
        files = driver_files()
        assert len(files) > 19
        assert scan(kernel_coupling, files) == []

    @pytest.mark.parametrize(
        "source",
        [
            "from repro.core.kernels import use_kernel\n",
            "from repro.core.kernels.block import BlockKernel\n",
            "from repro.core import kernels\n",
            "import repro.core.kernels.loop\n",
            "run_div(g, x, kernel='block')\n",
        ],
    )
    def test_seeded_violation_is_caught(self, source):
        assert kernel_coupling(source)

    def test_threaded_or_auto_kernel_passes(self):
        assert kernel_coupling("run_div(g, x, kernel=kernel)\nrun(kernel='auto')\n") == []
