"""Execution-kernel equivalence and unit tests (loop / block / compiled).

Every kernel's contract is *bit-for-bit* equivalence with the
sequential reference loop: same final opinions, same step count, same
stop reason, same observer sequences, for any seed.  The sweep below
exercises that contract across graphs × dynamics × schedulers × stop
conditions × observers for both the block and the compiled backend
(the latter through its interpreted core, so the sweep runs without
numba); the unit tests pin down the block solver and the batched state
operations the kernels rely on.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    AdversarialScheduler,
    BestOfThree,
    BestOfTwo,
    BiasedScheduler,
    ChurnPlan,
    EdgeScheduler,
    IncrementalVoting,
    MedianVoting,
    NoisyDynamics,
    OpinionState,
    PullVoting,
    PushVoting,
    Substrate,
    VertexScheduler,
    frozen_consensus,
    make_scheduler,
    run_dynamics,
)
from repro.core.div import run_div
from repro.core.kernels import (
    BlockKernel,
    CompiledKernel,
    KERNEL_NAMES,
    LoopKernel,
    NUMBA_AVAILABLE,
    active_kernel,
    compiled_runtime_available,
    interpreted_compiled,
    make_kernel,
    resolve_kernel,
    solve_block,
    supports_block,
    supports_compiled,
    use_kernel,
)
from repro.core.kernels.block import FIRST_PREFIX, next_prefix
from repro.core.observers import (
    ChangeLog,
    FirstTimeTracker,
    SupportTrace,
    TraceBuffer,
    WeightTrace,
)
from repro.core.stopping import (
    StopTerm,
    first_of,
    never,
    range_at_most,
    support_at_most,
    two_adjacent,
)
from repro.errors import ProcessError
from repro.graphs import (
    complete_graph,
    cycle_graph,
    lollipop_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)
from repro.obs import EventLog, read_log, recording
from repro.rng import make_rng


#: The degradation reasons of runs the fast kernels cannot take.
NOT_TIMELINE = "change observer is not a timeline observer"
NEEDS_BLOCK = "change observers need the block kernel"
NO_STOP_TERM = "stop publishes no StopTerm"
NOT_CANONICAL = "stop has no canonical thresholds"


def initial_state(graph, seed, k=6):
    opinions = make_rng(seed).integers(0, k, size=graph.n)
    return OpinionState(graph, opinions)


#: Non-reference kernels the sweep compares against "loop".  The
#: compiled kernel runs through :func:`interpreted_compiled`, so its
#: control flow is covered bit-for-bit even without numba (with numba
#: installed the jitted core is the same function, machine-compiled).
SWEEP_KERNELS = ("loop", "block", "compiled")


def run_pair(
    graph, dynamics, scheduler_cls, *, stop, seed, observers=(), frozen=None, **kw
):
    """Run the same configuration under every kernel; return all results
    plus the observer sets for sequence comparison. ``frozen`` lists
    zealot vertices of the initial state."""
    results, observer_sets = [], []
    with interpreted_compiled():
        for kernel in SWEEP_KERNELS:
            state = initial_state(graph, seed)
            if frozen is not None:
                state = OpinionState(graph, state.values, frozen=frozen)
            obs = [factory() for factory in observers]
            result = run_dynamics(
                state,
                scheduler_cls(graph),
                dynamics,
                stop=stop,
                rng=seed + 1,
                observers=obs,
                kernel=kernel,
                **kw,
            )
            results.append(result)
            observer_sets.append(obs)
    return results, observer_sets


def _observable_state(observer):
    return {
        key: val
        for key, val in vars(observer).items()
        if isinstance(val, (list, TraceBuffer))
    }


def assert_equivalent(results, observer_sets):
    loop = results[0]
    for other in results[1:]:
        assert other.steps == loop.steps
        assert other.stop_reason == loop.stop_reason
        np.testing.assert_array_equal(other.state.values, loop.state.values)
        other.state.check_consistency()
    for observers in zip(*observer_sets):
        reference = _observable_state(observers[0])
        for other in observers[1:]:
            assert _observable_state(other) == reference


GRAPHS = [
    pytest.param(lambda: complete_graph(17), id="complete17"),
    pytest.param(lambda: random_regular_graph(26, 5, rng=3), id="regular26"),
]
DYNAMICS = [
    pytest.param(IncrementalVoting, id="div"),
    pytest.param(PullVoting, id="pull"),
    pytest.param(PushVoting, id="push"),
    pytest.param(MedianVoting, id="median"),
]
SCHEDULERS = [
    pytest.param(VertexScheduler, id="vertex"),
    pytest.param(EdgeScheduler, id="edge"),
]


class TestEquivalenceSweep:
    @pytest.mark.parametrize("graph_factory", GRAPHS)
    @pytest.mark.parametrize("dynamics_cls", DYNAMICS)
    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_consensus_runs_bit_identical(
        self, graph_factory, dynamics_cls, scheduler_cls, seed
    ):
        results, observers = run_pair(
            graph_factory(),
            dynamics_cls(),
            scheduler_cls,
            stop="consensus",
            seed=seed,
        )
        assert_equivalent(results, observers)

    @pytest.mark.parametrize(
        "stop",
        [
            pytest.param(two_adjacent, id="two_adjacent"),
            pytest.param(support_at_most(2), id="support_at_most2"),
            pytest.param(range_at_most(1), id="range_at_most1"),
            pytest.param(
                first_of(support_at_most(3), range_at_most(2)), id="first_of"
            ),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_stop_conditions_fire_at_same_step(self, stop, seed):
        results, observers = run_pair(
            complete_graph(19),
            IncrementalVoting(),
            VertexScheduler,
            stop=stop,
            seed=seed,
        )
        assert_equivalent(results, observers)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_never_with_max_steps(self, seed):
        results, observers = run_pair(
            complete_graph(15),
            IncrementalVoting(),
            VertexScheduler,
            stop=never,
            seed=seed,
            max_steps=173,
        )
        assert_equivalent(results, observers)
        assert results[0].steps == 173
        assert not results[1].reached_stop

    @pytest.mark.parametrize("seed", [0, 3])
    def test_sampled_observers_identical(self, seed):
        results, observers = run_pair(
            complete_graph(21),
            IncrementalVoting(),
            EdgeScheduler,
            stop="consensus",
            seed=seed,
            observers=(
                lambda: WeightTrace("vertex", interval=7),
                lambda: SupportTrace(interval=13),
            ),
        )
        assert_equivalent(results, observers)
        assert observers[0][0].steps  # the trace actually sampled

    @pytest.mark.parametrize("seed", [0, 9])
    def test_change_observers_force_exact_replay(self, seed):
        """ChangeLog sees every (step, v, w, values) tuple identically.
        It needs the live state after every change, so every kernel
        request resolves to the loop before the run starts."""
        results, observers = run_pair(
            complete_graph(14),
            PullVoting(),
            VertexScheduler,
            stop="consensus",
            seed=seed,
            observers=(ChangeLog, lambda: WeightTrace("edge", interval=11)),
        )
        assert_equivalent(results, observers)
        assert observers[0][0].entries == observers[1][0].entries
        assert [(r.kernel, r.kernel_reason) for r in results] == [
            ("loop", "kernel='loop'"),
            ("loop", f"kernel='block'; {NOT_TIMELINE}"),
            ("loop", f"kernel='compiled'; {NEEDS_BLOCK}; {NOT_TIMELINE}"),
        ]

    def test_small_block_size_hits_segment_boundaries(self):
        results, observers = run_pair(
            complete_graph(13),
            IncrementalVoting(),
            VertexScheduler,
            stop="consensus",
            seed=4,
            block_size=3,
        )
        assert_equivalent(results, observers)


#: Scenario matrix for the substrate-contract sweep: every scenario is
#: run under every kernel and must either match the loop reference
#: bit-for-bit or record an explicit degradation on ``RunResult.kernel``.
SCENARIOS = (
    "churn",
    "zealots",
    "churn_zealots",
    "bias",
    "adversarial",
    "noise",
)


def run_scenario(scenario, kernel, seed):
    """Build a fresh substrate/state/scheduler (substrates mutate in
    place, scenario schedulers bind to a live state) and run one
    scenario under ``kernel``.  Returns (result, substrate, observers)."""
    graph = random_regular_graph(26, 5, rng=3)
    opinions = make_rng(seed).integers(0, 6, size=graph.n)
    plan = None
    if scenario in ("churn", "churn_zealots"):
        plan = ChurnPlan(period=150, swaps=8, seed=seed + 11)
    substrate = Substrate(graph, plan)
    frozen = [0, 13] if scenario in ("zealots", "churn_zealots") else None
    state = OpinionState(graph, opinions, frozen=frozen)
    stop = frozen_consensus(state) if frozen else "consensus"
    if scenario == "bias":
        scheduler = BiasedScheduler(substrate, state, bias=1.5)
    elif scenario == "adversarial":
        scheduler = AdversarialScheduler(substrate, state, strength=0.4)
    else:
        scheduler = VertexScheduler(substrate)
    dynamics = IncrementalVoting()
    if scenario == "noise":
        dynamics = NoisyDynamics(dynamics, drop=0.2, misread=0.15)
    observers = [SupportTrace(interval=13)]
    result = run_dynamics(
        state,
        scheduler,
        dynamics,
        stop=stop,
        rng=seed + 1,
        max_steps=300_000,
        observers=observers,
        kernel=kernel,
    )
    return result, substrate, observers


class TestScenarioEquivalenceSweep:
    """{churn, zealots, bias, noise} × {loop, block, compiled}: the
    kernel contract extends to non-static substrates.  Identical
    outcomes everywhere — and :class:`NoisyDynamics`, which has no fast
    path, must *record* its degradation to the loop kernel rather than
    silently diverge."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("seed", [0, 4])
    def test_scenarios_bit_identical_across_kernels(self, scenario, seed):
        results, observer_sets = [], []
        with interpreted_compiled():
            for kernel in SWEEP_KERNELS:
                result, substrate, observers = run_scenario(
                    scenario, kernel, seed
                )
                results.append(result)
                observer_sets.append([observers[0]])
                if scenario in ("churn", "churn_zealots"):
                    # The run really crossed epoch boundaries; the
                    # caches were rebuilt, not just never invalidated.
                    assert substrate.epoch > 0
        assert_equivalent(results, observer_sets)
        if scenario == "noise":
            # NoisyDynamics offers no fast path: every kernel request
            # degrades to the sequential loop — and says so on the
            # result.
            assert {r.kernel for r in results} == {"loop"}
        else:
            # The fast backends stay engaged even with zealots and a
            # rewiring substrate.
            assert [r.kernel for r in results] == list(SWEEP_KERNELS)

    @pytest.mark.parametrize("scenario", ["zealots", "churn_zealots"])
    def test_zealot_runs_stop_at_frozen_floor(self, scenario):
        with interpreted_compiled():
            result, _, _ = run_scenario(scenario, "block", seed=2)
        assert result.reached_stop
        support = result.state.frozen_support()
        assert result.state.support_size == len(set(support))
        for vertex in (0, 13):
            assert result.state.is_frozen(vertex)

    @pytest.mark.parametrize("seed", [0, 4])
    def test_scenario_scheduler_at_zero_matches_vertex_process(self, seed):
        """bias=0 / strength=0 consume the engine stream exactly like
        the plain vertex process — the equivalence anchor that lets the
        scenario sweep piggyback on the main sweep's guarantees."""
        graph = random_regular_graph(26, 5, rng=3)
        outcomes = []
        with interpreted_compiled():
            for build in (
                lambda st: VertexScheduler(graph),
                lambda st: BiasedScheduler(graph, st, bias=0.0),
                lambda st: AdversarialScheduler(graph, st, strength=0.0),
            ):
                state = initial_state(graph, seed)
                result = run_dynamics(
                    state,
                    build(state),
                    IncrementalVoting(),
                    rng=seed + 1,
                    kernel="compiled",
                )
                outcomes.append(result)
        reference = outcomes[0]
        for other in outcomes[1:]:
            assert other.steps == reference.steps
            np.testing.assert_array_equal(
                other.state.values, reference.state.values
            )


#: Topologies of the mark sweep: an expander, a hub (windows of about
#: one pair), a clique-plus-path and a slow-mixing cycle.
MARK_GRAPHS = [
    pytest.param(lambda: random_regular_graph(40, 4, rng=2), id="regular40"),
    pytest.param(lambda: star_graph(25), id="star25"),
    pytest.param(lambda: lollipop_graph(7, 9), id="lollipop7_9"),
    pytest.param(lambda: cycle_graph(18), id="cycle18"),
]


def _mark_case(case, graph, seed):
    """``(graph, opinions, run_div kwargs, extra observer factories)``."""
    opinions = make_rng(seed).integers(0, 6, size=graph.n)
    kwargs, extra = {}, ()
    if case == "adjacent_at_start":
        opinions = 3 + (opinions % 2)
    elif case == "stop_two_adjacent":
        # The mark fires at the very change that stops the run.
        kwargs["stop"] = "two_adjacent"
    elif case == "max_steps_cut":
        opinions = np.where(np.arange(graph.n) % 2 == 0, 0, 8)
        kwargs["max_steps"] = 7
    elif case == "zealots":
        opinions[[0, graph.n - 1]] = [2, 3]
        kwargs.update(frozen=[0, graph.n - 1], stop="frozen_consensus")
    elif case == "churn":
        graph = Substrate(graph, ChurnPlan(period=60, swaps=4, seed=seed + 5))
    elif case == "never":
        kwargs.update(stop="never", max_steps=3_000)
    elif case == "change_log":
        extra = (ChangeLog,)
    return graph, opinions, kwargs, extra


def run_div_all_kernels(graph_factory, process, case, seed):
    """One ``run_div`` configuration under every kernel: the outcomes
    plus each run's extra observers."""
    outcomes, observer_sets = [], []
    with interpreted_compiled():
        for kernel in SWEEP_KERNELS:
            graph, opinions, kwargs, extra = _mark_case(case, graph_factory(), seed)
            observers = [factory() for factory in extra]
            result = run_div(
                graph,
                opinions,
                process=process,
                rng=seed + 1,
                observers=observers,
                kernel=kernel,
                **kwargs,
            )
            outcomes.append(
                (
                    result.steps,
                    result.stop_reason,
                    result.winner,
                    result.two_adjacent_step,
                    result.state.values.tolist(),
                )
            )
            observer_sets.append(observers)
    return outcomes, observer_sets


class TestMarkEquivalence:
    """``run_div``'s two-adjacent tracker is a timeline observer: the
    block kernel reconstructs its first firing step from committed
    windows, and must agree with the loop's change-by-change record."""

    @pytest.mark.parametrize("graph_factory", MARK_GRAPHS)
    @pytest.mark.parametrize("process", ["vertex", "edge"])
    @pytest.mark.parametrize(
        "case",
        [
            "consensus",
            "adjacent_at_start",
            "stop_two_adjacent",
            "max_steps_cut",
            "zealots",
            "churn",
            "never",
            "change_log",
        ],
    )
    def test_run_div_bit_identical_across_kernels(self, graph_factory, process, case):
        outcomes, observer_sets = run_div_all_kernels(graph_factory, process, case, seed=3)
        assert outcomes[1:] == outcomes[:1] * (len(outcomes) - 1)
        steps, reason, _, two_adjacent_step, _ = outcomes[0]
        if case == "adjacent_at_start":
            assert two_adjacent_step == 0
        elif case == "max_steps_cut":
            assert (reason, two_adjacent_step) == ("max_steps", None)
        elif case == "stop_two_adjacent":
            assert two_adjacent_step == steps
        elif reason != "max_steps":
            assert two_adjacent_step is not None
            assert two_adjacent_step <= steps
        if case == "change_log":
            logs = [observers[0].entries for observers in observer_sets]
            assert logs[0] and logs[1:] == logs[:1] * (len(logs) - 1)

    def test_mark_in_same_window_as_consensus(self, monkeypatch):
        # Lone holders of 1 and 3 among 2s: the first to step inward
        # fires the mark, the other consensus; neither reads the other,
        # so both changes can commit in one window.
        timelines = []
        timeline = OpinionState.support_range_timeline

        def recording(self, old_values, new_values):
            sizes, widths = timeline(self, old_values, new_values)
            timelines.append(sizes.tolist())
            return sizes, widths

        monkeypatch.setattr(OpinionState, "support_range_timeline", recording)
        graph = complete_graph(30)
        opinions = [1] + [2] * 28 + [3]
        loop = run_div(graph, opinions, rng=0, kernel="loop")
        block = run_div(graph, opinions, rng=0, kernel="block")
        assert timelines == [[2, 1]]
        assert 0 < loop.two_adjacent_step < loop.steps
        assert (block.steps, block.two_adjacent_step, block.winner) == (
            loop.steps,
            loop.two_adjacent_step,
            loop.winner,
        )

    @pytest.mark.parametrize("process", ["vertex", "edge"])
    def test_plain_run_div_never_replays(self, monkeypatch, process):
        # Replay commits change by change through OpinionState.apply; a
        # plain run_div commits every block through apply_block alone.
        def forbidden(*args, **kwargs):
            raise AssertionError("run_div fell back to per-change replay")

        commits = []
        apply_block = OpinionState.apply_block

        def counting(self, vertices, new_values, defer_weights=False):
            commits.append(len(vertices))
            return apply_block(self, vertices, new_values, defer_weights)

        monkeypatch.setattr(OpinionState, "apply", forbidden)
        monkeypatch.setattr(OpinionState, "apply_block", counting)
        graph = random_regular_graph(40, 4, rng=2)
        opinions = make_rng(1).integers(0, 6, size=graph.n)
        result = run_div(graph, opinions, process=process, rng=4, kernel="block")
        assert result.stop_reason == "consensus"
        assert result.two_adjacent_step is not None
        # One commit per block with changes, holding the last write of
        # each vertex: a 40-vertex graph commits at most 40 at once.
        assert commits and max(commits) <= graph.n


    @pytest.mark.parametrize(
        "graph_factory, case",
        [
            (MARK_GRAPHS[0], "consensus"),
            (MARK_GRAPHS[1], "consensus"),
            (MARK_GRAPHS[2], "consensus"),
            (MARK_GRAPHS[3], "consensus"),
            (MARK_GRAPHS[0], "zealots"),
            (MARK_GRAPHS[0], "churn"),
        ],
        ids=["regular40", "star25", "lollipop7_9", "cycle18", "zealots", "churn"],
    )
    def test_traced_run_div_never_replays(self, monkeypatch, tmp_path, graph_factory, case):
        # A logged run carries a PhaseTraceObserver, a timeline observer
        # too: it stays on block, commits through apply_block alone and
        # traces the same transitions and phases as the loop.
        def forbidden(*args, **kwargs):
            raise AssertionError("a traced run fell back to per-change commits")

        spans = {}
        for kernel in ("block", "loop"):
            graph, opinions, kwargs, _ = _mark_case(case, graph_factory.values[0](), 3)
            with monkeypatch.context() as patch, recording(EventLog(tmp_path, kernel)) as log:
                if kernel == "block":
                    patch.setattr(OpinionState, "apply", forbidden)
                run_div(graph, opinions, rng=4, kernel=kernel, **kwargs)
            (spans[kernel],) = [
                r for r in read_log(log.path).records if r.get("name") == "engine.run"
            ]
        block, loop = spans["block"], spans["loop"]
        assert block["kernel"] == "block"
        for key in ("steps", "stop_reason", "opinion_changes", "transitions"):
            assert block[key] == loop[key]
        assert loop["transitions"]
        assert [(p["support"], p["steps"]) for p in block["phases"]] == [
            (p["support"], p["steps"]) for p in loop["phases"]
        ]


def solve_sizes(monkeypatch, passes=None):
    """Record the pair count of every :func:`solve_block` call, and its
    pass count in ``passes`` when given."""
    sizes = []

    def spy(rule, writes_v, values, v_block, w_block, frozen=None):
        solved = solve_block(rule, writes_v, values, v_block, w_block, frozen)
        sizes.append(int(v_block.size))
        if passes is not None:
            passes.append(solved[-1])
        return solved

    monkeypatch.setattr("repro.core.kernels.block.solve_block", spy)
    return sizes


def chain_scheduler(links):
    """A scheduler whose every block is a chain of ``links`` links,
    repeated: pair t writes vertex ``1 + t % links`` from its
    predecessor, so on a path with one extreme end each pair reads the
    previous pair's write."""

    class Chain:
        graph = path_graph(links + 1)

        def draw_block(self, rng, size):
            w = np.arange(size, dtype=np.int64) % links
            return w + 1, w

    return Chain()


class TestGrowingPrefixes:
    """The block kernel solves a run's first :data:`FIRST_PREFIX` (256)
    pairs, then sizes each prefix from the passes of the last
    (:func:`next_prefix`). On K_28 with six opinions the first solve
    takes 13-20 passes, so the second prefix is 256 pairs (boundary at
    512) or 512 pairs (boundary at 768) by seed; the K_10 runs end
    inside the first prefix. Every case must match the loop bit for
    bit."""

    @pytest.mark.parametrize(
        "n, seed, steps",
        [
            (10, 14, 30),
            (10, 13, 64),
            (10, 39, 65),
            (10, 634, 192),
            (10, 1255, 193),
            (28, 791, 256),
            (28, 1243, 257),
            (28, 782, 512),
            (28, 3200, 513),
            (28, 3449, 768),
            (28, 872, 769),
        ],
        ids=[
            "inside_first",
            "at_64",
            "after_64",
            "at_192",
            "after_192",
            "at_256",
            "after_256",
            "at_512",
            "after_512",
            "at_768",
            "after_768",
        ],
    )
    def test_consensus_around_prefix_boundaries(self, n, seed, steps):
        results, observers = run_pair(
            complete_graph(n),
            IncrementalVoting(),
            VertexScheduler,
            stop="consensus",
            seed=seed,
        )
        assert_equivalent(results, observers)
        assert (results[0].steps, results[0].stop_reason) == (steps, "consensus")

    @pytest.mark.parametrize("interval", [64, 192, 256])
    def test_sampled_observer_due_on_boundary(self, interval):
        results, observers = run_pair(
            complete_graph(21),
            IncrementalVoting(),
            EdgeScheduler,
            stop="consensus",
            seed=3,
            observers=(lambda: SupportTrace(interval=interval),),
        )
        assert_equivalent(results, observers)
        assert results[0].steps > 2 * interval

    @pytest.mark.parametrize("max_steps", [1, 63, 65, 255, 256, 257])
    def test_max_steps_around_first_prefix(self, max_steps):
        results, observers = run_pair(
            random_regular_graph(64, 4, rng=1),
            IncrementalVoting(),
            VertexScheduler,
            stop="consensus",
            seed=2,
            max_steps=max_steps,
        )
        assert_equivalent(results, observers)
        assert (results[0].steps, results[0].stop_reason) == (max_steps, "max_steps")

    def test_churn_epochs_shorter_than_prefix(self):
        plan = ChurnPlan(period=40, swaps=3, seed=7)
        results, observers = run_pair(
            random_regular_graph(26, 5, rng=3),
            IncrementalVoting(),
            lambda graph: VertexScheduler(Substrate(graph, plan)),
            stop="consensus",
            seed=1,
            observers=(lambda: SupportTrace(interval=50),),
        )
        assert_equivalent(results, observers)
        assert results[0].steps > 4 * plan.period

    def test_frozen_targets(self):
        # Every third vertex a zealot: the stop is near from the start,
        # so the first prefixes are solved with frozen targets in them.
        graph = random_regular_graph(26, 5, rng=3)
        frozen = list(range(0, graph.n, 3))
        zealots = OpinionState(graph, initial_state(graph, 4).values, frozen=frozen)
        results, observers = run_pair(
            graph,
            IncrementalVoting(),
            VertexScheduler,
            stop=frozen_consensus(zealots),
            seed=4,
            frozen=frozen,
        )
        assert_equivalent(results, observers)
        assert (results[0].steps, results[0].stop_reason) == (235, "frozen_consensus")

    def test_push_writes_the_observed_endpoint(self):
        assert PushVoting.writes == "w"
        results, observers = run_pair(
            star_graph(25),
            PushVoting(),
            VertexScheduler,
            stop="consensus",
            seed=6,
        )
        assert_equivalent(results, observers)
        assert results[0].stop_reason == "consensus"

    def test_opaque_stop_resolves_to_loop(self):
        def two_left(state):
            return "two_left" if state.support_size <= 2 else None

        results, _ = run_pair(
            complete_graph(10),
            IncrementalVoting(),
            VertexScheduler,
            stop=two_left,
            seed=634,
        )
        assert results[0].stop_reason == "two_left"
        assert [(r.kernel, r.kernel_reason) for r in results] == [
            ("loop", "kernel='loop'"),
            ("loop", f"kernel='block'; {NO_STOP_TERM}"),
            ("loop", f"kernel='compiled'; {NOT_CANONICAL}; {NO_STOP_TERM}"),
        ]

    @pytest.mark.parametrize("seed", [13, 39, 634, 1255, 7])
    def test_solved_pairs_track_steps_on_k10(self, monkeypatch, seed):
        passes = []
        sizes = solve_sizes(monkeypatch, passes)
        graph = complete_graph(10)
        result = run_dynamics(
            initial_state(graph, seed),
            VertexScheduler(graph),
            IncrementalVoting(),
            rng=seed + 1,
            kernel="block",
        )
        assert result.stop_reason == "consensus"
        # Each of these runs ends inside the first prefix: one solve.
        assert sizes == [FIRST_PREFIX]
        assert 16 <= passes[0] <= 48
        assert next_prefix(FIRST_PREFIX, passes[0], 8192) == FIRST_PREFIX
        assert result.steps <= sum(sizes) <= result.steps + FIRST_PREFIX

    def test_next_prefix_follows_the_pass_count(self):
        grown = [next_prefix(256, passes, 8192) for passes in (1, 7, 8, 15, 16, 48, 49)]
        assert grown == [1024, 1024, 512, 512, 256, 256, 128]
        assert next_prefix(16, 100, 8192) == 16  # the floor
        assert next_prefix(4096, 1, 8192) == 8192  # the block size caps it
        assert next_prefix(16, 100, 7) == 7

    def test_chain_takes_one_pass_per_link_and_halves_the_prefix(self, monkeypatch):
        # Vertex 0 holds 5 and the rest 1, so every link of the chain
        # moves its target: a solve of p pairs takes p passes.
        passes = []
        sizes = solve_sizes(monkeypatch, passes)
        values = np.ones(FIRST_PREFIX + 1, dtype=np.int64)
        values[0] = 5
        results = [
            run_dynamics(
                OpinionState(path_graph(values.size), values),
                chain_scheduler(FIRST_PREFIX),
                IncrementalVoting(),
                rng=0,
                max_steps=448,
                kernel=kernel,
            )
            for kernel in ("loop", "block")
        ]
        assert sizes == [256, 128, 64]
        assert passes == sizes
        loop, block = results
        assert block.steps == loop.steps == 448
        np.testing.assert_array_equal(block.state.values, loop.state.values)

    @pytest.mark.parametrize("process", ["vertex", "edge"])
    def test_lollipop_evaluates_each_step_a_bounded_number_of_times(
        self, monkeypatch, process
    ):
        # Passes follow chains of changes through the clique's hub; a
        # block-sized solve there re-evaluated each pair about 80 times.
        evaluated = [0]
        rule = IncrementalVoting.step_block

        def counting(self, xv, xw):
            evaluated[0] += len(xv)
            return rule(self, xv, xw)

        graph = lollipop_graph(12, 24)
        opinions = np.ones(graph.n, dtype=np.int64)
        opinions[:12] = 5
        steps = 0
        for seed in range(4):
            loop = run_div(graph, opinions, process=process, rng=seed, kernel="loop")
            with monkeypatch.context() as patch:
                patch.setattr(IncrementalVoting, "step_block", counting)
                block = run_div(graph, opinions, process=process, rng=seed, kernel="block")
            assert block.stop_reason == "consensus"
            assert (block.steps, block.winner, block.two_adjacent_step) == (
                loop.steps,
                loop.winner,
                loop.two_adjacent_step,
            )
            np.testing.assert_array_equal(block.state.values, loop.state.values)
            steps += block.steps
        assert steps <= evaluated[0] <= 30 * steps

    def test_never_run_solves_each_block_whole(self, monkeypatch):
        sizes = solve_sizes(monkeypatch)
        graph = random_regular_graph(64, 4, rng=1)
        result = run_dynamics(
            initial_state(graph, 1),
            VertexScheduler(graph),
            IncrementalVoting(),
            stop="never",
            rng=2,
            max_steps=3 * 256 + 5,
            block_size=256,
            kernel="block",
        )
        assert result.steps == 3 * 256 + 5
        assert sizes == [256, 256, 256, 5]


def sequential_block(dynamics, values, v_block, w_block, frozen=()):
    """:func:`solve_block`'s result, from ``dynamics.step`` pair by pair.

    A step reads and writes opinions only, so any graph on the vertex
    set will do; a path keeps long value vectors cheap."""
    state = OpinionState(path_graph(len(values)), values, frozen=list(frozen) or None)
    targets, before, after = [], [], []
    for v, w in zip(v_block, w_block):
        target = v if dynamics.writes == "v" else w
        targets.append(target)
        before.append(state.value(target))
        dynamics.step(state, v, w, None)
        after.append(state.value(target))
    next_write = [
        next(
            (u for u in range(t + 1, len(targets)) if targets[u] == targets[t]),
            len(targets),
        )
        for t in range(len(targets))
    ]
    return targets, before, after, next_write


def assert_solves(dynamics, values, v_block, w_block, frozen=()):
    """Solve one block and compare it with the sequential reference."""
    values = np.asarray(values, dtype=np.int64)
    mask = None
    if frozen:
        mask = np.zeros(values.size, dtype=np.bool_)
        mask[list(frozen)] = True
    v_block = np.asarray(v_block, dtype=np.int64)
    w_block = np.asarray(w_block, dtype=np.int64)
    writes_v = dynamics.writes == "v"
    *solved, passes = solve_block(
        dynamics.step_block, writes_v, values, v_block, w_block, mask
    )
    expected = sequential_block(
        dynamics, values.tolist(), v_block.tolist(), w_block.tolist(), frozen
    )
    assert [np.asarray(part).tolist() for part in solved] == list(expected)
    assert 1 <= passes <= max(len(v_block), 1)
    return expected


class TestSolveBlock:
    """The fixed-point solve equals the pair-by-pair run of the block."""

    def test_disjoint_pairs_read_the_block_start(self):
        _, before, after, next_write = assert_solves(
            IncrementalVoting(), [0, 4, 2, 2, 1, 3, 0, 4], [0, 1, 2, 3], [4, 5, 6, 7]
        )
        assert before == [0, 4, 2, 2]
        assert after == [1, 3, 1, 3]
        assert next_write == [4, 4, 4, 4]

    def test_repeated_writer_reads_its_own_last_write(self):
        # Vertex 0 steps toward 4 three times in a row: 0 -> 1 -> 2 -> 3.
        _, before, after, next_write = assert_solves(
            IncrementalVoting(), [0, 4], [0, 0, 0], [1, 1, 1]
        )
        assert (before, after, next_write) == ([0, 1, 2], [1, 2, 3], [1, 2, 3])

    def test_reader_sees_earlier_write(self):
        # Pair 1 reads vertex 1 after pair 0 rewrote it (pull: 1 adopts 0).
        _, before, after, _ = assert_solves(
            PullVoting(), [5, 1, 3], [1, 2], [0, 1]
        )
        assert (before, after) == ([1, 3], [5, 5])

    def test_self_pair_changes_nothing(self):
        for dynamics in (IncrementalVoting(), PullVoting(), PushVoting()):
            _, before, after, _ = assert_solves(dynamics, [2, 7], [1], [1])
            assert before == after == [7]

    def test_repeated_self_pairs_change_nothing(self):
        _, before, after, next_write = assert_solves(
            IncrementalVoting(), [2, 7], [1, 1, 1], [1, 1, 1]
        )
        assert before == after == [7, 7, 7]
        assert next_write == [1, 2, 3]

    def test_fully_chained_block_matches_sequential(self):
        # Every pair reads the previous pair's write: a chain of length B.
        pairs = 50
        values = [0] * pairs + [9]
        v_block = list(range(pairs - 1, -1, -1))
        w_block = [pairs] + v_block[:-1]
        _, before, after, _ = assert_solves(PullVoting(), values, v_block, w_block)
        assert after == [9] * pairs

    def test_single_pair_block(self):
        for dynamics, expected in (
            (IncrementalVoting(), 4),
            (PullVoting(), 5),
            (PushVoting(), 3),
        ):
            _, before, after, next_write = assert_solves(dynamics, [3, 5], [0], [1])
            assert after == [expected] and next_write == [1]

    def test_random_blocks_match_sequential_reference(self):
        rng = make_rng(11)
        for dynamics in (IncrementalVoting(), PullVoting(), PushVoting()):
            for _ in range(20):
                values = rng.integers(0, 6, size=12)
                v_block = rng.integers(0, 12, size=200)
                w_block = rng.integers(0, 12, size=200)
                frozen = set(rng.choice(12, size=2, replace=False).tolist())
                assert_solves(dynamics, values, v_block, w_block)
                assert_solves(dynamics, values, v_block, w_block, frozen)


class TestKeyWidths:
    """Event keys ``vertex << shift | 2t | is_write`` are int32 while
    ``n << shift < 2**31`` and int64 from there on: at 8192 pairs
    (shift 15) the switch is at n = 2**16."""

    @pytest.mark.parametrize("n", [2**16 - 1, 2**16])
    @pytest.mark.parametrize("dynamics", [IncrementalVoting(), PushVoting()])
    def test_full_block_on_either_side_of_the_switch(self, n, dynamics):
        rng = make_rng(5)
        values = rng.integers(0, 6, size=n)
        # A few hundred vertices, so most pairs link to an earlier write,
        # and the largest vertex, whose keys are the widest.
        v_block = rng.integers(n - 300, n, size=8192)
        w_block = rng.integers(n - 300, n, size=8192)
        v_block[0] = w_block[-1] = n - 1
        assert_solves(dynamics, values, v_block, w_block)

    @pytest.mark.parametrize(
        "dynamics, scheduler_cls",
        [(IncrementalVoting(), VertexScheduler), (PullVoting(), EdgeScheduler)],
    )
    def test_block_matches_loop_with_int64_keys(self, monkeypatch, dynamics, scheduler_cls):
        sizes = solve_sizes(monkeypatch)
        graph = random_regular_graph(2**16 + 4, 3, rng=0)
        results = [
            run_dynamics(
                initial_state(graph, 3),
                scheduler_cls(graph),
                dynamics,
                stop="never",
                rng=4,
                max_steps=2 * 8192 + 5,
                kernel=kernel,
            )
            for kernel in ("loop", "block")
        ]
        assert sizes == [8192, 8192, 5]
        assert graph.n << (2 * 8192).bit_length() >= 2**31
        loop, block = results
        assert block.steps == loop.steps == 2 * 8192 + 5
        np.testing.assert_array_equal(block.state.values, loop.state.values)
        assert not np.array_equal(block.state.values, initial_state(graph, 3).values)


class TestBatchedStateOps:
    def _random_batch(self, state, size, seed):
        rng = make_rng(seed)
        vertices = rng.permutation(state.graph.n)[:size]
        new_values = state.values[vertices] + rng.integers(-1, 2, size=size)
        lo, hi = state.values.min(), state.values.max()
        new_values = np.clip(new_values, lo, hi)
        changed = new_values != state.values[vertices]
        return vertices[changed], new_values[changed]

    def test_apply_block_matches_scalar_apply(self):
        graph = random_regular_graph(30, 4, rng=2)
        scalar = initial_state(graph, 8)
        batched = initial_state(graph, 8)
        vertices, new_values = self._random_batch(scalar, 12, seed=21)
        for vertex, value in zip(vertices, new_values):
            scalar.apply(int(vertex), int(value))
        old = batched.apply_block(vertices, new_values)
        np.testing.assert_array_equal(batched.values, scalar.values)
        np.testing.assert_array_equal(
            old, initial_state(graph, 8).values[vertices]
        )
        batched.check_consistency()
        assert batched.support_size == scalar.support_size

    def test_support_range_timeline_matches_replay(self):
        graph = complete_graph(25)
        state = initial_state(graph, 13)
        vertices, new_values = self._random_batch(state, 10, seed=5)
        old_values = state.values[vertices]
        supports, widths = state.support_range_timeline(old_values, new_values)
        replay = state  # timeline must not have mutated the state
        for i, (vertex, value) in enumerate(zip(vertices, new_values)):
            replay.apply(int(vertex), int(value))
            assert supports[i] == replay.support_size
            assert widths[i] == replay.max_opinion - replay.min_opinion


class TestKernelSelection:
    def test_kernel_names(self):
        assert KERNEL_NAMES == ("auto", "block", "compiled", "loop")

    def test_make_kernel(self):
        assert isinstance(make_kernel("loop"), LoopKernel)
        assert isinstance(make_kernel("block"), BlockKernel)
        assert isinstance(make_kernel("compiled"), CompiledKernel)
        with pytest.raises(ProcessError):
            make_kernel("vectorised")

    def test_supports_block(self):
        assert supports_block(IncrementalVoting())
        assert not supports_block(MedianVoting())

    def test_supports_compiled(self):
        assert supports_compiled(IncrementalVoting())
        assert supports_compiled(PullVoting())
        assert supports_compiled(PushVoting())
        assert not supports_compiled(MedianVoting())

    def test_auto_resolves_by_dynamics(self):
        assert resolve_kernel("auto", IncrementalVoting()).name == "block"
        assert resolve_kernel("auto", MedianVoting()).name == "loop"

    def test_block_falls_back_without_step_block(self):
        assert resolve_kernel("block", MedianVoting()).name == "loop"

    def test_compiled_falls_back_without_numba(self, monkeypatch):
        # Without an importable numba the compiled backend must degrade
        # to the block kernel (then the loop, for non-block dynamics)
        # so dependency-free environments keep working.
        monkeypatch.setattr(
            "repro.core.kernels.compiled.NUMBA_AVAILABLE", False
        )
        assert not compiled_runtime_available()
        assert resolve_kernel("compiled", IncrementalVoting()).name == "block"
        assert resolve_kernel("compiled", MedianVoting()).name == "loop"

    def test_interpreted_compiled_forces_backend(self):
        with interpreted_compiled():
            assert compiled_runtime_available()
            assert (
                resolve_kernel("compiled", IncrementalVoting()).name
                == "compiled"
            )
        assert compiled_runtime_available() == NUMBA_AVAILABLE

    def test_compiled_falls_back_without_compiled_id(self):
        with interpreted_compiled():
            assert resolve_kernel("compiled", MedianVoting()).name == "loop"

    def test_explicit_loop_wins_over_heuristic(self):
        assert resolve_kernel("loop", IncrementalVoting()).name == "loop"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ProcessError):
            resolve_kernel("simd", IncrementalVoting())

    def test_use_kernel_overrides_auto(self):
        assert active_kernel() is None
        with use_kernel("loop"):
            assert active_kernel() == "loop"
            assert resolve_kernel("auto", IncrementalVoting()).name == "loop"
            with use_kernel("block"):
                assert active_kernel() == "block"
            assert active_kernel() == "loop"
        assert active_kernel() is None

    def test_use_kernel_none_is_passthrough(self):
        with use_kernel(None):
            assert active_kernel() is None

    def test_use_kernel_rejects_unknown(self):
        with pytest.raises(ProcessError):
            with use_kernel("simd"):
                pass  # pragma: no cover

    def test_result_records_resolved_kernel(self):
        # "auto" runs DIV on the block kernel whatever the graph; an
        # explicit kernel is recorded as given.
        expander = random_regular_graph(2000, 10, rng=1)
        for graph, kernel, expected in (
            (complete_graph(10), "auto", "block"),
            (complete_graph(10), "loop", "loop"),
            (expander, "auto", "block"),
        ):
            result = run_dynamics(
                initial_state(graph, 1),
                VertexScheduler(graph),
                IncrementalVoting(),
                rng=2,
                max_steps=2000,
                kernel=kernel,
            )
            assert result.kernel == expected

    def test_fallback_recorded_on_result(self):
        graph = complete_graph(10)
        result = run_dynamics(
            initial_state(graph, 1),
            VertexScheduler(graph),
            MedianVoting(),
            rng=2,
            kernel="block",
        )
        assert result.kernel == "loop"

    def test_compiled_fallback_recorded_on_result(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.kernels.compiled.NUMBA_AVAILABLE", False
        )
        graph = complete_graph(10)
        result = run_dynamics(
            initial_state(graph, 1),
            VertexScheduler(graph),
            IncrementalVoting(),
            rng=2,
            kernel="compiled",
        )
        assert result.kernel == "block"


def run_div_dynamics(graph, process="vertex", **kwargs):
    """One DIV run through the engine, returning its :class:`RunResult`."""
    return run_dynamics(
        initial_state(graph, 4, k=5),
        make_scheduler(graph, process),
        IncrementalVoting(),
        rng=5,
        **kwargs,
    )


class TestAutoByCost:
    """``"auto"`` runs block wherever the dynamics has ``step_block``.

    Prefix solves made the block kernel the cheaper one on every graph
    measured but K_10, where it trails the loop by a small constant, so
    the graph and scheduler no longer enter the choice.
    """

    @pytest.mark.parametrize(
        "graph",
        [
            star_graph(61),
            lollipop_graph(12, 24),
            random_regular_graph(64, 10, rng=1),
            random_regular_graph(128, 10, rng=1),
            random_regular_graph(2000, 10, rng=1),
        ],
        ids=["star", "lollipop", "rr64", "rr128", "expander"],
    )
    @pytest.mark.parametrize("process", ["vertex", "edge"])
    def test_auto_choice(self, graph, process):
        for dynamics in (IncrementalVoting(), PullVoting(), PushVoting()):
            result = run_dynamics(
                initial_state(graph, 4, k=5),
                make_scheduler(graph, process),
                dynamics,
                rng=5,
                max_steps=3000,
            )
            assert (result.kernel, result.kernel_reason) == (
                "block",
                "auto: dynamics has step_block",
            )

    @pytest.mark.parametrize("dynamics", [IncrementalVoting, PullVoting, PushVoting])
    def test_auto_runs_block_on_complete_graph(self, dynamics):
        graph = complete_graph(10)
        result = run_dynamics(
            initial_state(graph, 1), VertexScheduler(graph), dynamics(), rng=2
        )
        assert result.kernel == "block"

    @pytest.mark.parametrize("dynamics", [MedianVoting, BestOfTwo, BestOfThree])
    def test_auto_runs_loop_without_step_block(self, dynamics):
        graph = star_graph(61)
        result = run_dynamics(
            initial_state(graph, 4, k=5),
            VertexScheduler(graph),
            dynamics(),
            rng=5,
            max_steps=500,
        )
        assert (result.kernel, result.kernel_reason) == (
            "loop",
            "auto: dynamics has no step_block",
        )

    def test_explicit_and_ambient_block_still_run_block(self):
        graph = star_graph(61)
        explicit = run_div_dynamics(graph, kernel="block")
        assert (explicit.kernel, explicit.kernel_reason) == ("block", "kernel='block'")
        with use_kernel("block"):
            ambient = run_div_dynamics(graph)
        assert (ambient.kernel, ambient.kernel_reason) == (
            "block",
            "use_kernel('block')",
        )
        assert ambient.steps == explicit.steps

    def test_without_scheduler_auto_is_block(self):
        kernel = resolve_kernel("auto", IncrementalVoting())
        assert isinstance(kernel, BlockKernel)
        assert kernel.reason == "auto: dynamics has step_block"

    def test_reason_for_every_branch(self):
        def opaque(state):
            return None

        tracker = FirstTimeTracker(two_adjacent)
        cases = [
            (("auto", IncrementalVoting()), {}, "block", "auto: dynamics has step_block"),
            (("auto", MedianVoting()), {}, "loop", "auto: dynamics has no step_block"),
            (("auto", IncrementalVoting()), {"stop_condition": opaque},
             "loop", f"auto: dynamics has step_block; {NO_STOP_TERM}"),
            (("auto", IncrementalVoting()), {"change_observers": [ChangeLog()]},
             "loop", f"auto: dynamics has step_block; {NOT_TIMELINE}"),
            (("loop", IncrementalVoting()), {}, "loop", "kernel='loop'"),
            (("block", MedianVoting()), {},
             "loop", "kernel='block'; dynamics has no step_block"),
            (("block", IncrementalVoting()),
             {"stop_condition": never, "change_observers": [tracker]},
             "block", "kernel='block'"),
            (("block", IncrementalVoting()),
             {"change_observers": [FirstTimeTracker(lambda state: True)]},
             "loop", f"kernel='block'; {NOT_TIMELINE}"),
        ]
        for args, kwargs, name, reason in cases:
            kernel = resolve_kernel(*args, **kwargs)
            assert (kernel.name, kernel.reason) == (name, reason)

    def test_compiled_degradation_reasons(self, monkeypatch):
        with interpreted_compiled():
            kernel = resolve_kernel("compiled", MedianVoting())
        assert (kernel.name, kernel.reason) == (
            "loop",
            "kernel='compiled'; dynamics has no compiled_id; "
            "dynamics has no step_block",
        )
        monkeypatch.setattr("repro.core.kernels.compiled.NUMBA_AVAILABLE", False)
        kernel = resolve_kernel("compiled", IncrementalVoting())
        assert (kernel.name, kernel.reason) == (
            "block",
            "kernel='compiled'; numba is not available",
        )

    def test_compiled_resolution_reasons(self):
        # Each case the compiled core cannot run is decided before the
        # run starts, and the reason names every step of the chain.
        unbounded = StopTerm("unbounded", lambda support, widths: support < 0)

        def no_thresholds(state):
            return None

        no_thresholds.support_range_terms = (unbounded,)
        tracker = FirstTimeTracker(two_adjacent)
        cases = [
            ({"stop_condition": two_adjacent}, "compiled", "kernel='compiled'"),
            ({"change_observers": [tracker]}, "block", f"kernel='compiled'; {NEEDS_BLOCK}"),
            ({"change_observers": [ChangeLog()]},
             "loop", f"kernel='compiled'; {NEEDS_BLOCK}; {NOT_TIMELINE}"),
            ({"stop_condition": no_thresholds},
             "block", f"kernel='compiled'; {NOT_CANONICAL}"),
            ({"stop_condition": lambda state: None},
             "loop", f"kernel='compiled'; {NOT_CANONICAL}; {NO_STOP_TERM}"),
        ]
        with interpreted_compiled():
            for kwargs, name, reason in cases:
                kernel = resolve_kernel("compiled", IncrementalVoting(), **kwargs)
                assert (kernel.name, kernel.reason) == (name, reason)


class TestCompiledKernel:
    def test_result_records_compiled(self):
        graph = complete_graph(12)
        with interpreted_compiled():
            result = run_dynamics(
                initial_state(graph, 3),
                VertexScheduler(graph),
                IncrementalVoting(),
                rng=4,
                kernel="compiled",
            )
        assert result.kernel == "compiled"

    def test_timeline_observer_resolves_to_block(self):
        # The compiled core calls no observer hook; a first-time tracker
        # is a timeline observer, so the run resolves to the block
        # kernel and records the same step as the loop.
        graph = complete_graph(12)
        results, trackers = [], []
        for kernel in ("loop", "compiled"):
            tracker = FirstTimeTracker(two_adjacent)
            with interpreted_compiled():
                results.append(
                    run_dynamics(
                        initial_state(graph, 3),
                        VertexScheduler(graph),
                        IncrementalVoting(),
                        rng=4,
                        kernel=kernel,
                        observers=[tracker],
                    )
                )
            trackers.append(tracker.first_step)
        loop, compiled = results
        assert (compiled.kernel, compiled.kernel_reason) == (
            "block",
            f"kernel='compiled'; {NEEDS_BLOCK}",
        )
        assert compiled.steps == loop.steps
        assert trackers[0] is not None and trackers[1] == trackers[0]

    def test_opaque_stop_resolves_to_loop(self):
        graph = complete_graph(12)

        def opaque(state):
            return "shrunk" if state.support_size <= 2 else None

        with interpreted_compiled():
            result = run_dynamics(
                initial_state(graph, 3),
                VertexScheduler(graph),
                IncrementalVoting(),
                stop=opaque,
                rng=4,
                max_steps=10**6,
                kernel="compiled",
            )
        assert (result.kernel, result.kernel_reason) == (
            "loop",
            f"kernel='compiled'; {NOT_CANONICAL}; {NO_STOP_TERM}",
        )
        assert result.stop_reason == "shrunk"

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
    def test_jitted_core_matches_loop(self):
        # With numba present the real machine-code core must still be
        # bit-for-bit identical (the sweep above covers the interpreted
        # twin everywhere).
        graph = random_regular_graph(64, 6, rng=1)
        reference = run_dynamics(
            initial_state(graph, 5),
            VertexScheduler(graph),
            IncrementalVoting(),
            rng=6,
            kernel="loop",
        )
        compiled = run_dynamics(
            initial_state(graph, 5),
            VertexScheduler(graph),
            IncrementalVoting(),
            rng=6,
            kernel="compiled",
        )
        assert compiled.kernel == "compiled"
        assert compiled.steps == reference.steps
        np.testing.assert_array_equal(
            compiled.state.values, reference.state.values
        )


class TestAllocationRegression:
    def test_batched_ops_keep_no_buffers(self):
        """apply_block / support_range_timeline allocate per call and
        release everything: a state that a result keeps holds no
        block-sized buffers, so tracemalloc sees no growth once warm."""
        graph = random_regular_graph(200, 6, rng=7)
        state = initial_state(graph, 9)
        rng = make_rng(31)

        def one_block(size=64):
            vertices = rng.permutation(state.graph.n)[:size]
            new_values = np.clip(
                state.values[vertices] + rng.integers(-1, 2, size=size),
                state.values.min(),
                state.values.max(),
            )
            changed = new_values != state.values[vertices]
            vertices, new_values = vertices[changed], new_values[changed]
            if vertices.size == 0:
                return
            state.support_range_timeline(state.values[vertices], new_values)
            state.apply_block(vertices, new_values, defer_weights=True)

        for _ in range(5):
            one_block()

        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(20):
            one_block()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()

        state_py = __import__(
            "repro.core.state", fromlist=["__file__"]
        ).__file__
        grown = [
            diff
            for diff in after.compare_to(before, "filename")
            if diff.traceback[0].filename == state_py and diff.size_diff > 0
        ]
        assert sum(d.size_diff for d in grown) < 4096, grown

    def test_trace_buffers_preallocate(self):
        """A long sampled run must not grow one Python object per
        sample: the trace arrays double geometrically instead."""
        trace = SupportTrace(interval=1)
        graph = complete_graph(20)
        state = initial_state(graph, 2)
        for step in range(10_000):
            trace.sample(step, state)
        assert len(trace.steps) == 10_000
        assert trace.steps.capacity < 20_000  # geometric, not per-sample
        assert trace.steps[-1] == 9_999
