"""Per-rule cases for the determinism, dispatch and kernel contracts.

``tests/test_contracts.py`` checks the real tree; these cases pin the
checks on small fixtures: unseeded generator construction (DET001),
trials that cannot cross to worker processes (PAR003, enforced at
dispatch time), and kernel imports and literal backends in drivers
(KER004).
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import run_trials
from repro.errors import AnalysisError
from tests.test_contracts import kernel_coupling, randomness_violations


def constant_trial(index, rng):
    return 0.0


class TestPAR003UnpicklableTrialArgument:
    def test_lambda_trial_with_workers_flagged(self):
        with pytest.raises(AnalysisError, match="lambdas cannot be pickled"):
            run_trials(8, lambda i, rng: 0.0, seed=0, workers=2)

    def test_serial_lambda_is_fine(self):
        result = run_trials(8, lambda i, rng: 0.0, seed=0, workers=None)
        assert result.outcomes == [0.0] * 8

    def test_local_closure_forwarded_workers_flagged(self):
        def main(workers):
            def trial(i, rng):
                return 0.0

            return run_trials(8, trial, seed=0, workers=workers)

        with pytest.raises(AnalysisError, match="trial function .*trial.* is not picklable"):
            main(2)

    def test_module_level_trial_is_fine(self):
        result = run_trials(8, constant_trial, seed=0, workers=2)
        assert result.outcomes == [0.0] * 8


class TestDET001RngProvenance:
    def test_unseeded_default_rng_flagged(self):
        problems = randomness_violations(
            textwrap.dedent(
                """\
                import numpy as np


                def sample():
                    rng = np.random.default_rng()
                    return rng.random()
                """
            )
        )
        assert problems == ["<source>:5: unseeded default_rng()"]

    def test_unseeded_bit_generator_flagged_even_in_tests(self):
        source = textwrap.dedent(
            """\
            from numpy.random import PCG64


            def test_draw():
                assert PCG64() is not None
            """
        )
        problems = randomness_violations(source, "tests/test_stats.py")
        assert problems == ["tests/test_stats.py:5: unseeded PCG64()"]

    def test_seeded_construction_is_fine(self):
        problems = randomness_violations(
            textwrap.dedent(
                """\
                import numpy as np


                def sample(seed):
                    rng = np.random.default_rng(seed)
                    return rng.random()
                """
            )
        )
        assert problems == []


class TestKER004KernelAgnosticExperiments:
    def test_backend_import_in_experiment_flagged(self):
        problems = kernel_coupling(
            textwrap.dedent(
                """\
                from repro.core.kernels.block import apply_block


                def run():
                    return apply_block
                """
            ),
            "src/repro/experiments/e9.py",
        )
        assert problems == ["src/repro/experiments/e9.py:1: imports repro.core.kernels"]

    def test_literal_backend_selection_flagged(self):
        problems = kernel_coupling(
            textwrap.dedent(
                """\
                def run(graph, opinions):
                    return run_baseline(graph, opinions, kernel="block")
                """
            )
        )
        assert problems == ["<source>:2: kernel='block'"]
