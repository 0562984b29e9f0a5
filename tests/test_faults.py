"""Tests for deterministic fault injection (repro.faults).

These exercise the failure paths *in anger*: scripted worker
crashes and chunk timeouts drive retry, retry exhaustion and the
in-process fallback, and every scenario asserts the outcomes stay
bit-for-bit identical to the plain serial run.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import replace

import pytest

from repro.analysis.montecarlo import run_trials, run_trials_over
from repro.checkpoint import campaign
from repro.errors import FaultSpecError
from repro.faults import (
    CRASH_EXIT_CODE,
    FaultClause,
    FaultPlan,
    InjectedAbort,
)


def draw_trial(index, rng):
    return int(rng.integers(0, 1 << 30))


def parameter_trial(parameter, index, rng):
    return (parameter, index, int(rng.integers(0, 1 << 30)))


def _hang_quickly(plan: FaultPlan) -> FaultPlan:
    """Shrink hang duration so fallback-path tests don't idle for 8s."""
    return replace(plan, hang_seconds=2.0)


class TestSpecParsing:
    def test_round_trip(self):
        spec = "crash@3:1;hang@5;slow@7:0.5;corrupt@2;truncate@9;abort@4"
        assert FaultPlan.parse(spec).render() == spec

    def test_whitespace_and_empty_clauses_tolerated(self):
        plan = FaultPlan.parse(" crash@1 ; ; hang@2 ")
        assert plan.render() == "crash@1;hang@2"

    def test_worker_fault_indices(self):
        plan = FaultPlan.parse("crash@3;hang@1;corrupt@2")
        assert plan.worker_fault_indices() == (1, 3)

    def test_summary_counts(self):
        plan = FaultPlan.parse("crash@1;crash@2;corrupt@3")
        assert plan.summary() == {"crash": 2, "corrupt": 1}

    @pytest.mark.parametrize(
        "bad_spec",
        [
            "",
            ";",
            "explode@1",
            "crash@x",
            "crash@-1",
            "crash@1:zero",
            "crash@1:0",
            "corrupt@1:2",
            "abort@1:1",
            "crash",
            "telemetry@1",
            "telemetry-drop@x",
            "telemetry-drop@1:2",
            "crash@1;crash@1",
            "telemetry-drop@3;telemetry-drop@3",
        ],
    )
    def test_bad_specs_rejected(self, bad_spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(bad_spec)

    def test_rejection_messages_name_the_offender(self):
        with pytest.raises(FaultSpecError, match="unknown fault kind 'explode'"):
            FaultPlan.parse("explode@1")
        with pytest.raises(FaultSpecError, match="duplicate clause 'crash@1'"):
            FaultPlan.parse("crash@1;crash@1")
        with pytest.raises(FaultSpecError, match="abort takes no argument"):
            FaultPlan.parse("abort@1:2")

    def test_telemetry_drop_is_no_fault_kind(self):
        # Campaign progress is read from the journal, so there is no
        # gap in an event log left to drill.
        with pytest.raises(
            FaultSpecError, match="unknown fault kind 'telemetry-drop'"
        ):
            FaultPlan.parse("telemetry-drop@1")

    def test_same_index_different_kinds_allowed(self):
        plan = FaultPlan.parse("crash@1:1;corrupt@1;abort@1")
        assert plan.summary() == {"crash": 1, "corrupt": 1, "abort": 1}

    def test_bounded_clause_allocates_scratch(self, tmp_path):
        assert FaultPlan.parse("crash@1").scratch is None
        assert FaultPlan.parse("crash@1:1").scratch is not None
        explicit = FaultPlan.parse("crash@1:1", scratch=str(tmp_path))
        assert explicit.scratch == str(tmp_path)


class TestWorkerFaultsAreParentSafe:
    def test_no_fault_in_parent_process(self):
        plan = FaultPlan.parse("crash@0;hang@1;slow@2")
        assert plan.main_pid == os.getpid()
        for index in range(3):
            plan.worker_fault(index)  # must be a no-op in the parent

    def test_crash_exit_code_reserved(self):
        # Anything but 0/1 so a scripted crash is distinguishable from a
        # clean exit or a Python traceback in worker post-mortems.
        assert CRASH_EXIT_CODE not in (0, 1)

    def test_clause_render_formats_integral_args(self):
        assert FaultClause("crash", 3, 1.0).render() == "crash@3:1"
        assert FaultClause("slow", 3, 0.5).render() == "slow@3:0.5"


class TestCrashRecovery:
    def test_bounded_crash_retry_succeeds(self):
        """Worker crash -> fresh pool retry -> identical outcomes."""
        serial = run_trials(8, draw_trial, seed=9)
        plan = FaultPlan.parse("crash@2:1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with campaign(fault_plan=plan, max_retries=2):
                faulted = run_trials(8, draw_trial, seed=9, workers=2)
        assert faulted.outcomes == serial.outcomes
        assert faulted.timings.mode == "parallel"  # retry recovered fully
        assert faulted.timings.retries >= 1
        assert not caught

    def test_unbounded_crash_exhausts_retries_then_falls_back(self):
        serial = run_trials(8, draw_trial, seed=9)
        plan = FaultPlan.parse("crash@2")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with campaign(fault_plan=plan, max_retries=1):
                faulted = run_trials(8, draw_trial, seed=9, workers=2)
        assert faulted.outcomes == serial.outcomes
        assert faulted.timings.mode == "fallback"
        assert faulted.timings.fallback_trials > 0
        assert any(
            issubclass(w.category, RuntimeWarning)
            and "falling back to in-process" in str(w.message)
            for w in caught
        )

    def test_pool_broken_during_submit_retries(self, monkeypatch):
        """A worker that dies before the round is fully submitted makes
        ``submit`` itself raise; the chunks not yet submitted retry on a
        fresh pool like the ones the break lost."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.parallel import dispatch

        class BreaksAtThirdSubmit:
            """Runs chunks in process; the first pool breaks at submit 3."""

            pools = 0

            def __init__(self, max_workers, initializer):
                type(self).pools += 1
                self.breaks = type(self).pools == 1
                self.submitted = 0

            def submit(self, fn, *args):
                if self.breaks and self.submitted == 2:
                    raise BrokenProcessPool("A child process terminated abruptly")
                self.submitted += 1
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait, cancel_futures):
                pass

        serial = run_trials(8, draw_trial, seed=9)
        monkeypatch.setattr(dispatch, "ProcessPoolExecutor", BreaksAtThirdSubmit)
        # The default split gives eight one-trial chunks on two workers.
        with campaign(max_retries=1):
            faulted = run_trials(8, draw_trial, seed=9, workers=2)
        assert faulted.outcomes == serial.outcomes
        assert faulted.timings.mode == "parallel"
        assert faulted.timings.retries == 1
        assert BreaksAtThirdSubmit.pools == 2

    def test_multiple_crashes_still_identical(self):
        serial = run_trials(10, draw_trial, seed=31)
        plan = FaultPlan.parse("crash@1:1;crash@7:1")
        with campaign(fault_plan=plan, max_retries=3):
            faulted = run_trials(10, draw_trial, seed=31, workers=2)
        assert faulted.outcomes == serial.outcomes


class TestTimeoutRecovery:
    def test_hang_retry_succeeds(self):
        """Chunk timeout -> retry on a fresh pool -> identical outcomes."""
        serial = run_trials(6, draw_trial, seed=13)
        plan = _hang_quickly(FaultPlan.parse("hang@3:1"))
        with campaign(fault_plan=plan, timeout=0.5, max_retries=2):
            faulted = run_trials(6, draw_trial, seed=13, workers=2)
        assert faulted.outcomes == serial.outcomes
        assert faulted.timings.retries >= 1

    def test_hang_retry_exhaustion_falls_back(self):
        """Timeout -> retry exhaustion -> in-process fallback, identical."""
        serial = run_trials(6, draw_trial, seed=13)
        plan = _hang_quickly(FaultPlan.parse("hang@1"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with campaign(fault_plan=plan, timeout=0.3, max_retries=0):
                faulted = run_trials(6, draw_trial, seed=13, workers=2)
        assert faulted.outcomes == serial.outcomes
        assert faulted.timings.mode == "fallback"
        assert caught

    def test_slow_worker_changes_nothing(self):
        serial = run_trials(6, draw_trial, seed=13)
        plan = FaultPlan.parse("slow@0:0.05;slow@5:0.05")
        with campaign(fault_plan=plan):
            faulted = run_trials(6, draw_trial, seed=13, workers=2)
        assert faulted.outcomes == serial.outcomes
        assert faulted.timings.mode == "parallel"


class TestGridFaults:
    def test_crash_and_timeout_on_grid_identical(self):
        serial = run_trials_over(["a", "b"], 4, parameter_trial, seed=3)
        plan = _hang_quickly(FaultPlan.parse("crash@1:1;hang@6:1"))
        with campaign(fault_plan=plan, timeout=0.5, max_retries=3):
            faulted = run_trials_over(
                ["a", "b"], 4, parameter_trial, seed=3, workers=2
            )
        assert [(p, ts.outcomes) for p, ts in faulted] == [
            (p, ts.outcomes) for p, ts in serial
        ]


class TestAbort:
    def test_abort_fires_inside_campaign(self):
        plan = FaultPlan.parse("abort@2")
        with pytest.raises(InjectedAbort, match="after trial 2"):
            with campaign(fault_plan=plan):
                run_trials(6, draw_trial, seed=1)

    def test_abort_is_not_a_repro_error(self):
        # It stands in for process death, so the CLI's ReproError
        # one-liner path must NOT swallow it.
        from repro.errors import ReproError

        assert not issubclass(InjectedAbort, ReproError)


class TestRecordDamage:
    def test_corrupt_and_truncate_damage_records(self, tmp_path):
        from repro.checkpoint import CheckpointJournal
        from repro.errors import CheckpointCorruptError

        journal = CheckpointJournal(tmp_path / "c")
        journal.open(fingerprint="fp")
        plan = FaultPlan.parse("corrupt@0;truncate@1")
        journal.record("b0", {0: "alpha"}, fault_plan=plan)
        journal.record("b0", {1: "beta"}, fault_plan=plan)
        journal.record("b0", {2: "gamma"}, fault_plan=plan)
        with pytest.raises(CheckpointCorruptError):
            journal.completed("b0")
        lenient = CheckpointJournal(tmp_path / "c", on_corrupt="discard")
        assert lenient.completed("b0") == {2: "gamma"}

    def test_damage_record_reports_kind(self, tmp_path):
        plan = FaultPlan.parse("corrupt@3")
        target = tmp_path / "t3.rec"
        target.write_bytes(b"x" * 64)
        assert plan.damage_record(3, target) == "corrupt"
        assert plan.damage_record(4, target) is None
