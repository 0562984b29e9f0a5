"""Unit tests for the count-based K_n engine (repro.core.fast_complete)."""

from __future__ import annotations

import hashlib
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.gof import chi_square_gof
from repro.analysis.montecarlo import run_trials
from repro.core.fast_complete import run_div_complete
from repro.errors import ProcessError
from repro.obs import EventLog, read_log, recording
from tests.complete_reference import reference_run_div_complete


class TestValidation:
    def test_counts_must_sum_to_n(self):
        with pytest.raises(ProcessError):
            run_div_complete(10, {1: 3, 2: 3})

    def test_negative_counts_rejected(self):
        with pytest.raises(ProcessError):
            run_div_complete(2, {1: 3, 2: -1})

    def test_n_too_small(self):
        with pytest.raises(ProcessError):
            run_div_complete(1, {1: 1})

    def test_unknown_stop(self):
        with pytest.raises(ProcessError):
            run_div_complete(4, {1: 4}, stop="quorum")

    def test_empty_counts(self):
        with pytest.raises(ProcessError):
            run_div_complete(4, {1: 0, 2: 0})

    @pytest.mark.parametrize("interval", [0, -3])
    def test_non_positive_weight_interval(self, interval):
        with pytest.raises(ProcessError, match="non-positive sample interval"):
            run_div_complete(10, {1: 5, 4: 5}, rng=0, weight_interval=interval)

    def test_negative_max_steps(self):
        with pytest.raises(ProcessError, match="max_steps must be >= 0"):
            run_div_complete(10, {1: 5, 4: 5}, rng=0, max_steps=-5)

    def test_zero_max_steps_is_valid(self):
        result = run_div_complete(10, {1: 5, 4: 5}, rng=0, max_steps=0)
        assert (result.steps, result.stop_reason) == (0, "max_steps")


class TestBasicRuns:
    def test_consensus_from_consensus(self):
        result = run_div_complete(10, {4: 10}, rng=0)
        assert result.steps == 0
        assert result.winner == 4
        assert result.stop_reason == "consensus"
        assert result.two_adjacent_step == 0

    def test_two_adjacent_start_detected(self):
        result = run_div_complete(10, {4: 5, 5: 5}, stop="two_adjacent", rng=0)
        assert result.steps == 0
        assert result.stop_reason == "two_adjacent"
        assert result.support == [4, 5]

    def test_reaches_consensus(self):
        result = run_div_complete(50, {1: 20, 2: 10, 5: 20}, rng=1)
        assert result.stop_reason == "consensus"
        assert result.winner in (1, 2, 3, 4, 5)
        assert result.two_adjacent_step is not None
        assert result.two_adjacent_step <= result.steps

    def test_max_steps(self):
        result = run_div_complete(50, {1: 25, 9: 25}, max_steps=10, rng=1)
        assert result.steps == 10
        assert result.stop_reason == "max_steps"
        assert result.winner is None

    def test_negative_and_sparse_opinions(self):
        result = run_div_complete(30, {-2: 15, 3: 15}, rng=2)
        assert result.stop_reason == "consensus"
        assert -2 <= result.winner <= 3

    def test_weight_trace(self):
        result = run_div_complete(
            40, {1: 20, 5: 20}, rng=3, weight_interval=100, stop="two_adjacent"
        )
        assert result.weight_steps[0] == 0
        assert result.weights[0] == 20 * 1 + 20 * 5
        # Weights move by at most 1 per step.
        diffs = np.abs(np.diff(result.weights))
        gaps = np.diff(result.weight_steps)
        assert np.all(diffs <= gaps)

    def test_deterministic_given_seed(self):
        a = run_div_complete(60, {1: 30, 4: 30}, rng=7)
        b = run_div_complete(60, {1: 30, 4: 30}, rng=7)
        assert (a.winner, a.steps) == (b.winner, b.steps)


class TestSingleStepLaw:
    def test_one_step_transition_probabilities(self):
        # From {1: 1, 3: n-1} on K_n, one step moves the lone 1-holder up
        # (to counts {2:1, 3:n-1}) iff it is selected: probability 1/n.
        # A 3-holder moves down (to {1:1, 2:1, 3:n-2}) iff a 3-holder is
        # selected AND observes the 1-holder: (n-1)/n * 1/(n-1) = 1/n.
        n, trials = 12, 4000
        up = down = unchanged = 0
        for seed in range(trials):
            result = run_div_complete(
                n, {1: 1, 3: n - 1}, max_steps=1, rng=seed
            )
            if result.counts == {2: 1, 3: n - 1}:
                up += 1
            elif result.counts == {1: 1, 2: 1, 3: n - 2}:
                down += 1
            elif result.counts == {1: 1, 3: n - 1}:
                unchanged += 1
        assert up + down + unchanged == trials
        assert up / trials == pytest.approx(1 / n, abs=0.02)
        assert down / trials == pytest.approx(1 / n, abs=0.02)
        assert unchanged / trials == pytest.approx(1 - 2 / n, abs=0.03)


class TestAgainstTheory:
    def test_two_opinion_winning_probability(self):
        # With only {0,1} the process is two-opinion pull voting:
        # P(1 wins) = N_1/n exactly (eq. (3)).
        n, ones = 30, 9

        def trial(i, rng):
            return run_div_complete(n, {0: n - ones, 1: ones}, rng=rng).winner

        outcomes = run_trials(600, trial, seed=5)
        share = outcomes.frequency(lambda w: w == 1)
        assert share == pytest.approx(ones / n, abs=0.06)

    def test_matches_generic_engine_distribution(self):
        # The count chain must agree in law with the generic engine on K_n.
        from repro.core.div import run_div
        from repro.graphs import complete_graph

        n = 40
        counts = {1: 16, 2: 12, 3: 12}  # c = 1.9
        graph = complete_graph(n)

        def fast_trial(i, rng):
            return run_div_complete(n, counts, rng=rng).winner

        def generic_trial(i, rng):
            opinions = [1] * 16 + [2] * 12 + [3] * 12
            return run_div(graph, opinions, rng=rng).winner

        fast = run_trials(300, fast_trial, seed=11)
        generic = run_trials(300, generic_trial, seed=12)
        p_fast = fast.frequency(lambda w: w == 2)
        p_generic = generic.frequency(lambda w: w == 2)
        assert p_fast == pytest.approx(p_generic, abs=0.12)

    def test_winner_law_matches_generic_engine_under_gof(self):
        # Chi-square GoF of the count engine's winners against the
        # generic engine's winner frequencies on K_n, pooled over every
        # cell. The generic sample is 2x larger, so its frequencies
        # serve as the predicted law.
        from repro.core.div import run_div
        from repro.graphs import complete_graph

        n = 20
        counts = {1: 8, 2: 6, 3: 6}  # c = 1.9
        opinions = [o for o, c in sorted(counts.items()) for _ in range(c)]
        graph = complete_graph(n)

        def fast_trial(i, rng):
            return run_div_complete(n, counts, rng=rng).winner

        def generic_trial(i, rng):
            return run_div(graph, opinions, rng=rng).winner

        generic = run_trials(1600, generic_trial, seed=21).outcomes
        fast = run_trials(800, fast_trial, seed=22).outcomes
        predicted = {w: generic.count(w) / len(generic) for w in set(generic)}
        result = chi_square_gof(fast, predicted, min_expected=5.0)
        assert result.dof >= 2
        assert not result.rejects(alpha=0.01), result


class TestWeightTraceClosesAtStop:
    def test_final_weight_recorded_at_stopping_step(self):
        # Regression: the S(t) trace only sampled steps divisible by
        # weight_interval, silently dropping the stopping step (the
        # generic engine always samples the final step).
        for seed in range(6):
            result = run_div_complete(
                30, {1: 15, 4: 15}, rng=seed, weight_interval=7
            )
            assert result.weight_steps[0] == 0
            assert result.weight_steps[-1] == result.steps
            final_weight = sum(o * c for o, c in result.counts.items())
            assert result.weights[-1] == final_weight

    def test_trace_steps_strictly_increasing(self):
        # No duplicate sample when the stopping step is itself divisible.
        for seed in range(5):
            result = run_div_complete(
                20, {2: 10, 3: 10}, rng=seed, weight_interval=1
            )
            steps = result.weight_steps
            assert steps == sorted(set(steps))
            assert steps[-1] == result.steps


def _trace_digest(result):
    trace = repr((result.weight_steps, result.weights)).encode()
    return hashlib.sha256(trace).hexdigest()[:16]


# (n, counts, stop, max_steps, weight_interval, seed) ->
# (steps, stop_reason, counts, two_adjacent_step, S(t) trace digest).
# Pinned from the float-scan engine; any change to the draws or to the
# chain's transition rule moves these.
GOLDEN = [
    ((2, {0: 1, 1: 1}, "consensus", None, None, 0),
     (1, "consensus", {0: 2}, 0, "1391876e63685b7d")),
    ((10, {4: 10}, "consensus", None, 1, 1),
     (0, "consensus", {4: 10}, 0, "7a9c6c50083f4b52")),
    ((12, {1: 4, 2: 4, 5: 4}, "consensus", None, 1, 2),
     (169, "consensus", {3: 12}, 65, "553fe8564dc52e9c")),
    ((30, {-2: 15, 3: 15}, "consensus", None, 7, 3),
     (644, "consensus", {1: 30}, 473, "1ad6f25bc128ae7a")),
    ((40, {-5: 10, -1: 10, 0: 10, 6: 10}, "two_adjacent", None, None, 4),
     (475, "two_adjacent", {-2: 4, -1: 36}, 475, "1391876e63685b7d")),
    ((50, {1: 25, 9: 25}, "consensus", 0, 7, 5),
     (0, "max_steps", {1: 25, 9: 25}, None, "be3dc80838b3a989")),
    ((50, {1: 25, 9: 25}, "consensus", 1, 1, 6),
     (1, "max_steps", {1: 25, 8: 1, 9: 24}, None, "33e211f10029cdc1")),
    ((50, {1: 20, 2: 10, 5: 20}, "consensus", 37, None, 7),
     (37, "max_steps", {1: 12, 2: 16, 3: 5, 4: 4, 5: 13}, None, "1391876e63685b7d")),
    ((64, {0: 1, 7: 63}, "two_adjacent", None, 1000, 8),
     (695, "two_adjacent", {6: 6, 7: 58}, 695, "6133b4f3ef036036")),
    ((100, {0: 30, 1: 40, 2: 30}, "consensus", None, 1000, 9),
     (6688, "consensus", {1: 100}, 1472, "6fb1e1038f288438")),
    ((300, {0: 150, 1: 150}, "consensus", None, 1000, 10),
     (25716, "consensus", {0: 300}, 0, "e2432ed768e86693")),
    ((300, {-3: 100, 0: 100, 4: 100}, "consensus", 20000, 7, 11),
     (13783, "consensus", {0: 300}, 5564, "5f25888020919172")),
    ((257, {1: 100, 3: 57, 10: 100}, "consensus", 16384, 16384, 12),
     (12118, "consensus", {5: 257}, 4904, "13ec2099cc99be64")),
    ((2000, {1: 1000, 5: 1000}, "two_adjacent", 40000, None, 13),
     (40000, "max_steps", {2: 20, 3: 1725, 4: 255}, None, "1391876e63685b7d")),
    ((500, {0: 250, 1: 250}, "consensus", None, 7, 14),
     (137938, "consensus", {1: 500}, 0, "d62f19def83637b5")),
    ((1000, {2: 400, 6: 600}, "consensus", 16385, 16384, 15),
     (16385, "max_steps", {4: 751, 5: 249}, 15925, "b3c637a29d7b5c1c")),
]


class TestGoldenDigests:
    @pytest.mark.parametrize("case, expected", GOLDEN, ids=lambda v: None)
    def test_pinned_outcome(self, case, expected):
        n, counts, stop, max_steps, weight_interval, seed = case
        result = run_div_complete(
            n,
            counts,
            stop=stop,
            max_steps=max_steps,
            weight_interval=weight_interval,
            rng=seed,
        )
        observed = (
            result.steps,
            result.stop_reason,
            result.counts,
            result.two_adjacent_step,
            _trace_digest(result),
        )
        assert observed == expected


@st.composite
def count_runs(draw):
    """Arguments for one count-engine run, inputs valid by construction."""
    n = draw(st.integers(min_value=2, max_value=200))
    k = draw(st.integers(min_value=1, max_value=min(6, n)))
    opinions = draw(
        st.lists(
            st.integers(min_value=-20, max_value=20),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=n - 1),
                min_size=k - 1,
                max_size=k - 1,
                unique=True,
            )
        )
    )
    bounds = [0] + cuts + [n]
    counts = {o: bounds[i + 1] - bounds[i] for i, o in enumerate(opinions)}
    return dict(
        n=n,
        initial_counts=counts,
        stop=draw(st.sampled_from(["consensus", "two_adjacent"])),
        max_steps=draw(
            st.one_of(
                st.none(),
                st.sampled_from([0, 1, 16384, 16385]),
                st.integers(min_value=2, max_value=40000),
            )
        ),
        weight_interval=draw(st.sampled_from([None, 1, 7, 1000])),
        rng=draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )


def _outcome(result):
    return (
        result.steps,
        result.stop_reason,
        result.counts,
        result.two_adjacent_step,
        result.weight_steps,
        result.weights,
    )


class TestDifferentialAgainstReference:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(count_runs())
    def test_engine_matches_float_scan_model(self, kwargs):
        expected = reference_run_div_complete(**kwargs)
        assert _outcome(run_div_complete(**kwargs)) == _outcome(expected)


def _traced(engine, kwargs):
    """Run under an event log; return the outcome and what the log saw."""
    with tempfile.TemporaryDirectory() as scratch:
        with recording(EventLog(scratch)) as log:
            result = engine(**kwargs)
        records = read_log(log.path).records
    (span,) = [r for r in records if r.get("name") == "engine.run_complete"]
    fields = {
        key: span[key]
        for key in (
            "steps",
            "stop_reason",
            "opinion_changes",
            "rng_blocks",
            "initial_support",
            "phase_transitions",
        )
    }
    fields["phases"] = [(p["support"], p["steps"]) for p in span["phases"]]
    events = [tuple(transition) for transition in span["transitions"]]
    return _outcome(result), fields, events


class TestTracingParity:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=12, initial_counts={1: 4, 2: 4, 5: 4}, rng=0),
            dict(n=40, initial_counts={-5: 10, -1: 10, 0: 10, 6: 10}, rng=3),
            dict(n=40, initial_counts={1: 20, 5: 20}, stop="two_adjacent", rng=11),
            dict(n=300, initial_counts={0: 150, 1: 150}, rng=10, weight_interval=7),
            dict(n=257, initial_counts={1: 100, 3: 57, 10: 100}, rng=12),
            dict(n=2000, initial_counts={1: 1000, 5: 1000}, max_steps=20000, rng=1),
            dict(n=50, initial_counts={1: 25, 9: 25}, max_steps=0, rng=5),
            dict(n=10, initial_counts={4: 10}, rng=1),
        ],
        ids=lambda kw: f"n{kw['n']}",
    )
    def test_span_events_and_counters_match_reference(self, kwargs):
        assert _traced(run_div_complete, kwargs) == _traced(
            reference_run_div_complete, kwargs
        )
