"""Scenario-engine throughput: substrate churn, zealots, biased draws.

The substrate contract refactor must not tax the static hot path and
must keep the fast kernels engaged on dynamic substrates: epoch-window
clipping only pays when a churn boundary is actually due, and the
frozen-vertex mask rides the existing commit paths.  The fixed-step
rounds below put numbers on each scenario's overhead relative to the
plain block-kernel workload in ``bench_kernels.py``; the experiment
rounds track the three scenario drivers (E17/E18/E19) end to end the
same way the other ``bench_e*`` files track theirs.
"""

import numpy as np

from repro.analysis import uniform_random_opinions
from repro.core import (
    AdversarialScheduler,
    BiasedScheduler,
    ChurnPlan,
    IncrementalVoting,
    OpinionState,
    Substrate,
    VertexScheduler,
    run_dynamics,
)
from repro.experiments import e17_zealots, e18_churn, e19_adversarial
from repro.graphs import random_regular_graph
from repro.rng import make_rng

_N = 10_000
_D = 10
_STEPS = 500_000


def _state(graph, frozen=None):
    opinions = uniform_random_opinions(graph.n, 5, rng=0)
    return OpinionState(graph, opinions, frozen=frozen)


def _bench_engine(benchmark, scenario, build, expected_kernel="block"):
    graph = random_regular_graph(_N, _D, rng=0)
    benchmark.extra_info.update(
        engine="scenario",
        scenario=scenario,
        kernel=expected_kernel,
        n=_N,
        d=_D,
        steps=_STEPS,
    )

    def run():
        state, scheduler = build(graph)
        result = run_dynamics(
            state,
            scheduler,
            IncrementalVoting(),
            stop="never",
            rng=1,
            max_steps=_STEPS,
            kernel="block",
        )
        assert result.kernel == expected_kernel
        return result

    benchmark.pedantic(run, rounds=10, iterations=1)


def test_static_baseline_throughput(benchmark):
    """The reference point: same workload, no scenario machinery."""
    _bench_engine(
        benchmark,
        "static",
        lambda graph: (_state(graph), VertexScheduler(graph)),
    )


def test_churn_throughput(benchmark):
    """Epoch boundaries every 10k steps: a 500k-step round crosses 49 of
    them (10k … 490k), each a rewiring event that rebuilds the scheduler
    cache and rebinds the state."""

    def build(graph):
        substrate = Substrate(
            graph, ChurnPlan(period=10_000, swaps=32, seed=7)
        )
        return _state(graph), VertexScheduler(substrate)

    _bench_engine(benchmark, "churn", build)


def test_zealot_throughput(benchmark):
    """A 5% frozen mask through the batched commit path."""

    def build(graph):
        frozen = make_rng(3).choice(graph.n, size=graph.n // 20, replace=False)
        return _state(graph, frozen=frozen), VertexScheduler(graph)

    _bench_engine(benchmark, "zealots", build)


def test_biased_scheduler_throughput(benchmark):
    """State-reactive weighted draws: the scenario scheduler's price."""

    def build(graph):
        state = _state(graph)
        return state, BiasedScheduler(graph, state, bias=1.0)

    _bench_engine(benchmark, "biased", build)


def test_adversarial_scheduler_throughput(benchmark):
    """Per-pair redirects at strength 0.3, the E19 operating point."""

    def build(graph):
        state = _state(graph)
        return state, AdversarialScheduler(graph, state, strength=0.3)

    _bench_engine(benchmark, "adversarial", build)


def test_e17_zealots(benchmark):
    benchmark.extra_info.update(experiment="E17", scale="quick", seed=0)
    report = benchmark.pedantic(
        lambda: e17_zealots.run(e17_zealots.Config.quick(), seed=0),
        rounds=1,
        iterations=1,
    )
    print()
    print(report.render())
    one_sided = report.tables[0].rows
    # Pinning a single opinion everywhere it freezes must still reach
    # the frozen floor; with no zealots the run is plain consensus.
    assert all(row[1] >= 0.5 for row in one_sided), one_sided


def test_e18_churn(benchmark):
    benchmark.extra_info.update(experiment="E18", scale="quick", seed=0)
    report = benchmark.pedantic(
        lambda: e18_churn.run(e18_churn.Config.quick(), seed=0),
        rounds=1,
        iterations=1,
    )
    print()
    print(report.render())
    drift = report.tables[0].rows
    # Degree-preserving churn keeps Z a martingale: normalized drift
    # (|mean - Z0| / stderr) stays within a few standard errors at
    # every churn rate.
    assert all(abs(row[3]) <= 4.0 for row in drift), drift


def test_e19_adversarial(benchmark):
    benchmark.extra_info.update(experiment="E19", scale="quick", seed=0)
    report = benchmark.pedantic(
        lambda: e19_adversarial.run(e19_adversarial.Config.quick(), seed=0),
        rounds=1,
        iterations=1,
    )
    print()
    print(report.render())
    rows = report.tables[0].rows
    div_neutral = [row for row in rows if row[0] == "neutral" and row[1] == "div"]
    assert div_neutral and div_neutral[0][2] >= 0.5, rows
