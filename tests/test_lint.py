"""Per-rule cases for the determinism and kernel-agnostic contracts.

``tests/test_contracts.py`` checks the real tree; these cases pin what
its source checks report on small fixtures, one rule at a time:
global-state randomness (RNG001), unseeded construction (RNG002) and
hard-coded kernels in drivers and baselines (KER001).
"""

from __future__ import annotations

import textwrap
from typing import List

from tests.test_contracts import (
    RNG_MODULE,
    ROOT,
    driver_files,
    kernel_coupling,
    randomness_violations,
    scanned_files,
)


def randomness(source: str) -> List[str]:
    return randomness_violations(textwrap.dedent(source))


def coupling(source: str) -> List[str]:
    return kernel_coupling(textwrap.dedent(source))


def lines(problems: List[str]) -> List[int]:
    return [int(problem.split(":")[1]) for problem in problems]


class TestRNG001:
    def test_np_random_module_function_flagged(self):
        problems = randomness(
            """\
            import numpy as np

            def sample(n):
                return np.random.rand(n)
            """
        )
        assert lines(problems) == [4]
        assert "np.random.rand" in problems[0]

    def test_stdlib_random_call_flagged(self):
        problems = randomness(
            """\
            import random

            def pick(items):
                return random.choice(items)
            """
        )
        assert lines(problems) == [1]
        assert "stdlib random" in problems[0]

    def test_stdlib_random_from_import_flagged(self):
        problems = randomness("from random import shuffle\n")
        assert lines(problems) == [1]

    def test_numpy_random_alias_flagged(self):
        problems = randomness(
            """\
            from numpy import random as npr
            x = npr.normal(0.0, 1.0)
            """
        )
        assert lines(problems) == [2]
        assert "np.random.normal" in problems[0]

    def test_seed_plumbing_classes_allowed(self):
        problems = randomness(
            """\
            import numpy as np
            from repro.rng import make_rng

            def stream(seed):
                ss = np.random.SeedSequence(seed)
                return make_rng(ss)
            """
        )
        assert problems == []

    def test_rng_module_itself_exempt(self):
        files = scanned_files()
        assert RNG_MODULE.is_file()
        assert RNG_MODULE not in files
        top_level = sorted((ROOT / "src" / "repro").glob("*.py"))
        assert [path for path in top_level if path not in files] == [RNG_MODULE]

    def test_generator_method_calls_allowed(self):
        problems = randomness(
            """\
            from repro.rng import make_rng

            def sample(n, rng=None):
                return make_rng(rng).integers(0, 10, size=n)
            """
        )
        assert problems == []


class TestRNG002:
    def test_no_arg_make_rng_flagged(self):
        problems = randomness(
            """\
            from repro.rng import make_rng

            def simulate(n):
                gen = make_rng()
                return gen.integers(0, n)
            """
        )
        assert lines(problems) == [4]
        assert "unseeded make_rng()" in problems[0]

    def test_threaded_rng_parameter_ok(self):
        problems = randomness(
            """\
            from repro.rng import make_rng

            def simulate(n, rng=None):
                gen = make_rng(rng)
                return gen.integers(0, n)
            """
        )
        assert problems == []

    def test_seed_attribute_threading_ok(self):
        problems = randomness(
            """\
            from repro.rng import make_rng

            def simulate(config, seed=None):
                gen = make_rng(config.seed if seed is None else seed)
                return gen.integers(0, 10)
            """
        )
        assert problems == []

    def test_nested_closure_sees_enclosing_seed(self):
        problems = randomness(
            """\
            from repro.rng import make_rng

            def driver(trials, seed=0):
                def one(i):
                    return make_rng(seed + i).integers(0, 10)
                return [one(i) for i in range(trials)]
            """
        )
        assert problems == []


class TestKER001:
    def test_hard_coded_kernel_in_experiment_flagged(self):
        problems = coupling(
            """\
            def run(config, seed=0):
                return run_dynamics(graph, opinions, dynamics, kernel="block")
            """
        )
        assert lines(problems) == [2]
        assert "kernel='block'" in problems[0]

    def test_hard_coded_loop_kernel_in_baseline_flagged(self):
        problems = coupling(
            """\
            def run_pull_voting(graph, opinions):
                return run_baseline(graph, opinions, kernel="loop")
            """
        )
        assert lines(problems) == [2]
        assert "kernel='loop'" in problems[0]

    def test_auto_kernel_allowed(self):
        problems = coupling(
            """\
            def run(config, seed=0):
                return run_dynamics(graph, opinions, dynamics, kernel="auto")
            """
        )
        assert problems == []

    def test_threaded_kernel_parameter_allowed(self):
        problems = coupling(
            """\
            def run(config, seed=0, kernel="auto"):
                return run_dynamics(graph, opinions, dynamics, kernel=kernel)
            """
        )
        assert problems == []

    def test_other_layers_exempt(self):
        src = ROOT / "src" / "repro"
        layers = {path.relative_to(src).parts[0] for path in driver_files()}
        assert layers == {"experiments", "baselines"}
        assert src / "experiments" / "e01_winning_distribution.py" in driver_files()
        assert src / "experiments" / "__init__.py" not in driver_files()

    def test_test_files_exempt(self):
        assert driver_files()
        assert not any(path.name.startswith("test_") for path in driver_files())
        assert not any("tests" in path.relative_to(ROOT).parts for path in driver_files())
