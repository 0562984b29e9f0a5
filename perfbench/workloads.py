"""The benchmark's workloads.

Each workload turns the ``--seed`` into its inputs (:meth:`setup`), runs
one closed-loop round of fixed work on them (:meth:`run_round`: one
caller, the next call issued when the previous one returns) and checks
the round's outputs outside the timed region (:meth:`checks`).  The
program only ever sees the generated inputs.

``README.md`` in this directory says why each workload was chosen and
how its throughput is defined.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis import uniform_random_opinions
from repro.analysis.initializers import counts_for_average
from repro.checkpoint import CheckpointJournal
from repro.core import div, engine
from repro.core.div import counts_to_opinions
from repro.core.dynamics import IncrementalVoting
from repro.core.schedulers import AdversarialScheduler, VertexScheduler
from repro.core.state import OpinionState
from repro.core.substrate import ChurnPlan, Substrate
from repro.experiments.registry import get_experiment
from repro.graphs import lollipop_graph, random_regular_graph, star_graph
from repro.rng import make_rng

#: One output check: (what was checked, whether it held).
Check = Tuple[str, bool]


@dataclass(frozen=True)
class Scale:
    """Problem sizes; :data:`FULL` is the benchmark of record."""

    expander_n: int = 2000
    expander_d: int = 10
    expander_k: int = 5
    expander_trials: int = 8  # per process
    star_n: int = 61
    lollipop_clique: int = 12
    lollipop_tail: int = 24
    star_trials: int = 32  # per process
    lollipop_trials: int = 4  # per process
    scenario_n: int = 10_000
    scenario_d: int = 10
    scenario_steps: int = 500_000
    # The budget runs as this many runs of equal length, each from the
    # initial state with its own run seed, each timed and scaled alone.
    scenario_units: int = 5
    churn_period: int = 10_000
    churn_swaps: int = 32
    adversarial_strength: float = 0.3
    # Steps of the capped runs compared against the loop kernel.
    loop_prefix: int = 25_000
    # Safety budget for the runs to consensus; hitting it is a failure.
    max_steps: int = 50_000_000


FULL = Scale()


def _seeds(seed: int, tag: str, count: int) -> List[int]:
    """``count`` integer seeds derived from the workload seed and a tag."""
    key = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "big")
    rng = make_rng([seed, key])
    return [int(x) for x in rng.integers(0, 2**62, size=count)]


def _digest(values: np.ndarray) -> str:
    data = np.ascontiguousarray(values, dtype=np.int64).tobytes()
    return hashlib.sha1(data).hexdigest()[:16]


# ----------------------------------------------------------------------
# div-engine.*: serial run_div to consensus
# ----------------------------------------------------------------------
@dataclass
class DivTrial:
    group: str  # "<graph>/<process>": throughput weighs groups equally
    graph: object
    opinions: np.ndarray
    process: str
    seed: int


def _div_outcome(result) -> tuple:
    return (
        result.steps,
        result.stop_reason,
        result.winner,
        result.two_adjacent_step,
        tuple(result.final_support),
        _digest(result.state.values),
    )


class DivWorkload:
    """Shared round, checks and throughput of the two ``run_div`` legs."""

    setup_repeats = 6

    def __init__(self, scale: Scale, work_dir: Path) -> None:
        self.scale = scale

    def run_div(self, trial: DivTrial, kernel: str = "auto", max_steps=None):
        return div.run_div(
            trial.graph,
            trial.opinions,
            process=trial.process,
            rng=trial.seed,
            kernel=kernel,
            max_steps=self.scale.max_steps if max_steps is None else max_steps,
        )

    def run_round(self, trials: List[DivTrial], clock) -> dict:
        results = []
        wall = []
        scaled = []
        for trial in trials:
            result, wall_s, scaled_s = self.time_unit(clock, self.run_div, trial)
            results.append(result)
            wall.append(wall_s)
            scaled.append(scaled_s)
        return {
            "results": results,
            "wall": wall,
            "seconds": scaled,
            "key": [_div_outcome(r) for r in results],
        }

    @staticmethod
    def time_unit(clock, fn, *args):
        return clock.time(fn, *args)

    @staticmethod
    def _trial_costs(trials: List[DivTrial], rounds: List[dict], key: str):
        """Per group: each trial's (steps, median seconds over rounds)."""
        per_group: Dict[str, List[Tuple[int, float]]] = {}
        for i, trial in enumerate(trials):
            steps = rounds[0]["results"][i].steps
            seconds = statistics.median([r[key][i] for r in rounds])
            per_group.setdefault(trial.group, []).append((steps, seconds))
        return per_group.values()

    def throughput(self, trials, rounds: List[dict], key: str = "seconds") -> float:
        """Steps per second, the graph/process groups weighed equally.

        The inverse of the mean over groups of :meth:`group_cost`, the
        group's seconds per step; so the seed changes the runs but not
        the mix of groups.
        """
        costs = [self.group_cost(c) for c in self._trial_costs(trials, rounds, key)]
        return 1.0 / statistics.mean(costs)

    @staticmethod
    def group_cost(costs: List[Tuple[int, float]]) -> float:  # pragma: no cover
        raise NotImplementedError

    def checks(self, trials: List[DivTrial], rounds: List[dict]) -> List[Check]:
        checks: List[Check] = []
        first = rounds[0]
        checks.append(
            ("rounds_identical", all(r["key"] == first["key"] for r in rounds))
        )
        for result in first["results"]:
            checks.append(
                (
                    "winner_in_final_support",
                    result.winner is not None
                    and result.winner in result.final_support,
                )
            )
            checks.append(
                (
                    "two_adjacent_step_le_steps",
                    result.two_adjacent_step is not None
                    and result.two_adjacent_step <= result.steps,
                )
            )
            checks.append(("no_max_steps_stop", result.stop_reason != "max_steps"))
        checks.extend(self.loop_checks(trials, first))
        return checks

    def loop_checks(self, trials, first) -> List[Check]:  # pragma: no cover
        raise NotImplementedError


class ExpanderWorkload(DivWorkload):
    """RR(2000,10), k=5 uniform opinions, vertex and edge processes."""

    name = "div-engine.expander"

    @staticmethod
    def time_unit(clock, fn, *args):
        """Sampled while it runs: a trial to consensus can last seconds."""
        pin_to_one_core()
        return clock.time_sampled(fn, *args)

    @staticmethod
    def group_cost(costs: List[Tuple[int, float]]) -> float:
        """Mean seconds per step over trials, each trial counting equally.

        Consensus times are heavy-tailed; weighting trials equally keeps
        one long run from setting the whole figure.
        """
        return statistics.mean(seconds / steps for steps, seconds in costs)

    def setup(self, seed: int):
        s = self.scale
        graph_seed, *rest = _seeds(seed, self.name, 1 + 4 * s.expander_trials)
        start = time.perf_counter()
        graph = random_regular_graph(s.expander_n, s.expander_d, rng=graph_seed)
        graph_s = time.perf_counter() - start
        trials = []
        for i in range(2 * s.expander_trials):
            process = ("vertex", "edge")[i % 2]
            opinions = uniform_random_opinions(
                s.expander_n, s.expander_k, rng=rest[2 * i]
            )
            trials.append(
                DivTrial(f"expander/{process}", graph, opinions, process, rest[2 * i + 1])
            )
        return trials, graph_s

    @staticmethod
    def traced_subset(trials: List[DivTrial]) -> List[DivTrial]:
        """The first half of the trials (half of each process) for tracing.

        The traced run repeats the round untraced and tracing costs
        about 1.4× here; with heavy-tailed consensus times the whole list
        could keep a traced run busy for over three minutes.
        """
        return trials[: len(trials) // 2]

    def loop_checks(self, trials, first) -> List[Check]:
        """Each trial matches the loop kernel on a capped step prefix."""
        prefix = self.scale.loop_prefix
        return [
            (
                "loop_prefix_match",
                _div_outcome(self.run_div(t, "auto", prefix))
                == _div_outcome(self.run_div(t, "loop", prefix)),
            )
            for t in trials
        ]


class HubWorkload(DivWorkload):
    """E11's star(61) hub=5 and lollipop(12,24) clique=5, both processes."""

    name = "div-engine.hub"
    # Setting up is sub-millisecond here; many repeats steady the median.
    setup_repeats = 200

    @staticmethod
    def group_cost(costs: List[Tuple[int, float]]) -> float:
        """Total seconds over total steps of the group's trials.

        Runs take milliseconds, so each one's fixed cost counts; a run
        that ends in a handful of steps must not count like a long one.
        """
        return sum(seconds for _, seconds in costs) / sum(steps for steps, _ in costs)

    def setup(self, seed: int):
        s = self.scale
        start = time.perf_counter()
        star = star_graph(s.star_n)
        lollipop = lollipop_graph(s.lollipop_clique, s.lollipop_tail)
        graph_s = time.perf_counter() - start
        star_opinions = np.ones(star.n, dtype=np.int64)
        star_opinions[0] = 5  # the hub holds the extreme opinion
        lollipop_opinions = np.ones(lollipop.n, dtype=np.int64)
        lollipop_opinions[: s.lollipop_clique] = 5  # so does the clique
        cases = [
            ("star", star, star_opinions, s.star_trials),
            ("lollipop", lollipop, lollipop_opinions, s.lollipop_trials),
        ]
        count = 2 * (s.star_trials + s.lollipop_trials)
        seeds = iter(_seeds(seed, self.name, count))
        trials = [
            DivTrial(f"{label}/{process}", graph, opinions, process, next(seeds))
            for label, graph, opinions, repeats in cases
            for process in ("vertex", "edge")
            for _ in range(repeats)
        ]
        return trials, graph_s

    def loop_checks(self, trials, first) -> List[Check]:
        """Every trial re-run on the loop kernel matches bit for bit."""
        return [
            ("loop_match", _div_outcome(self.run_div(t, "loop")) == key)
            for t, key in zip(trials, first["key"])
        ]


# ----------------------------------------------------------------------
# scenario-steps.*: a fixed step budget on RR(10^4,10), block kernel
# ----------------------------------------------------------------------
@dataclass
class ScenarioInputs:
    graph: object
    opinions: np.ndarray
    seeds: List[int]  # one run seed per unit
    churn_seeds: List[int]  # one churn-plan seed per unit


class ScenarioWorkload:
    """A fixed step budget per round as ``scenario_units`` runs, ``stop="never"``.

    Each unit is one ``run_dynamics`` from the initial state.  Units of
    a second or two let the host clock track the drift within a round
    (one 500k-step churn run takes 8 s).
    """

    name = "scenario-steps.static"
    setup_repeats = 4

    def __init__(self, scale: Scale, work_dir: Path) -> None:
        self.scale = scale

    def setup(self, seed: int):
        s = self.scale
        # One tag for all three legs: they share graph, opinions and run
        # seeds, so the static leg is the reference for the other two.
        units = s.scenario_units
        graph_seed, opinion_seed, *rest = _seeds(seed, "scenario", 2 + 2 * units)
        start = time.perf_counter()
        graph = random_regular_graph(s.scenario_n, s.scenario_d, rng=graph_seed)
        graph_s = time.perf_counter() - start
        opinions = uniform_random_opinions(s.scenario_n, 5, rng=opinion_seed)
        inputs = ScenarioInputs(graph, opinions, rest[:units], rest[units:])
        return inputs, graph_s

    @property
    def unit_steps(self) -> int:
        return self.scale.scenario_steps // self.scale.scenario_units

    def scheduler(self, inputs: ScenarioInputs, state: OpinionState, unit: int):
        return VertexScheduler(inputs.graph)

    def run_once(self, inputs: ScenarioInputs, unit: int, kernel: str, steps: int):
        state = OpinionState(inputs.graph, inputs.opinions)
        scheduler = self.scheduler(inputs, state, unit)
        result = engine.run_dynamics(
            state,
            scheduler,
            IncrementalVoting(),
            stop="never",
            rng=inputs.seeds[unit],
            max_steps=steps,
            kernel=kernel,
        )
        substrate = scheduler.substrate
        key = (
            result.steps,
            result.stop_reason,
            _digest(state.values),
            substrate.epoch,
            _digest(substrate.graph.edge_array),
        )
        return result, substrate, key

    def run_round(self, inputs: ScenarioInputs, clock) -> dict:
        results, substrates, wall, scaled, keys = [], [], [], [], []
        for unit in range(len(inputs.seeds)):
            (result, substrate, key), wall_s, scaled_s = clock.time(
                self.run_once, inputs, unit, "block", self.unit_steps
            )
            results.append(result)
            substrates.append(substrate)
            wall.append(wall_s)
            scaled.append(scaled_s)
            keys.append((result.kernel,) + key)
        return {
            "results": results,
            "substrates": substrates,
            "wall": wall,
            "seconds": scaled,
            "key": keys,
        }

    @staticmethod
    def throughput(inputs, rounds: List[dict], key: str = "seconds") -> float:
        """All units' steps over the sum of each unit's median seconds."""
        steps = sum(result.steps for result in rounds[0]["results"])
        seconds = sum(
            statistics.median([r[key][unit] for r in rounds])
            for unit in range(len(inputs.seeds))
        )
        return steps / seconds

    def checks(self, inputs: ScenarioInputs, rounds: List[dict]) -> List[Check]:
        first = rounds[0]
        checks: List[Check] = [
            ("rounds_identical", all(r["key"] == first["key"] for r in rounds))
        ]
        for result, substrate in zip(first["results"], first["substrates"]):
            checks.append(("kernel_is_block", result.kernel == "block"))
            checks.append(("full_step_budget", result.steps == self.unit_steps))
            try:
                result.state.check_consistency()
                consistent = True
            except AssertionError:
                consistent = False
            checks.append(("state_consistent", consistent))
            checks.append(
                (
                    "degree_sequence_kept",
                    np.array_equal(substrate.graph.degrees, inputs.graph.degrees),
                )
            )
        prefix = min(self.scale.loop_prefix, self.unit_steps)
        block = self.run_once(inputs, 0, "block", prefix)[2]
        loop = self.run_once(inputs, 0, "loop", prefix)[2]
        checks.append(("loop_prefix_match", block == loop))
        return checks


class ChurnWorkload(ScenarioWorkload):
    name = "scenario-steps.churn"

    def scheduler(self, inputs: ScenarioInputs, state: OpinionState, unit: int):
        s = self.scale
        plan = ChurnPlan(
            period=s.churn_period, swaps=s.churn_swaps, seed=inputs.churn_seeds[unit]
        )
        return VertexScheduler(Substrate(inputs.graph, plan))

    def checks(self, inputs: ScenarioInputs, rounds: List[dict]) -> List[Check]:
        checks = super().checks(inputs, rounds)
        checks.extend(
            ("graph_rewired", substrate.epoch > 0)
            for substrate in rounds[0]["substrates"]
        )
        return checks


class AdversarialWorkload(ScenarioWorkload):
    name = "scenario-steps.adversarial"

    def scheduler(self, inputs: ScenarioInputs, state: OpinionState, unit: int):
        return AdversarialScheduler(
            inputs.graph, state, strength=self.scale.adversarial_strength
        )


# ----------------------------------------------------------------------
# kn-campaign: E1 quick as a checkpointed campaign, then a resume pass
# ----------------------------------------------------------------------
@dataclass
class CampaignInputs:
    seed: int
    workers: int
    trials: int
    opinions: List[np.ndarray]


def _rows(report) -> str:
    return repr([table.rows for table in report.tables])


def pin_to_one_core() -> None:
    """Keep this process, and the processes it starts, on one core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class CampaignWorkload:
    """E1 quick on the count engine, journaled, then resumed."""

    name = "kn-campaign"
    experiment = "E1"
    # Setting up is sub-millisecond here; many repeats steady the median.
    setup_repeats = 200
    # One worker, named as a pool so that it still runs through the pool.
    # The parent, the worker and the clock's sampling thread share one
    # core (see pin_to_one_core), so the samples read the speed of the
    # core the trials run on; more workers than cores would time the OS
    # scheduler as much as the campaign.
    workers = 1

    def __init__(self, scale: Scale, work_dir: Path) -> None:
        self.scale = scale
        self.work_dir = work_dir

    def setup(self, seed: int):
        """The campaign seed and the K_n opinion vector of each E1 row."""
        (campaign_seed,) = _seeds(seed, self.name, 1)
        config = get_experiment(self.experiment).config_cls.quick()
        opinions = [
            np.asarray(
                counts_to_opinions(
                    counts_for_average(config.n, config.k, config.base + fraction)
                )
            )
            for fraction in config.fractions
        ]
        trials = len(config.fractions) * config.trials
        inputs = CampaignInputs(campaign_seed, self.workers, trials, opinions)
        return inputs, 0.0  # K_n is implicit in the count engine

    @staticmethod
    def campaign(spec, inputs: CampaignInputs, directory: Path):
        """The fresh campaign, then the resume pass over its journal."""
        options = dict(workers=inputs.workers, executor="pool", checkpoint_dir=directory)
        fresh = spec.run_quick(inputs.seed, **options)
        resume_start = time.perf_counter()
        resumed = spec.run_quick(inputs.seed, resume=True, **options)
        return fresh, resumed, time.perf_counter() - resume_start

    def run_round(self, inputs: CampaignInputs, clock) -> dict:
        spec = get_experiment(self.experiment)
        pin_to_one_core()
        directory = Path(tempfile.mkdtemp(prefix="campaign-", dir=self.work_dir))
        try:
            (fresh, resumed, resume_s), wall, scaled = clock.time_sampled(
                self.campaign, spec, inputs, directory
            )
            journal = CheckpointJournal(directory / self.experiment.lower())
            records = sorted(
                (batch, index) for batch, index, _ in journal.iter_records()
            )
            journal_bytes = sum(
                p.stat().st_size for p in directory.rglob("*") if p.is_file()
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        rows = _rows(fresh)
        return {
            "wall": [wall],
            "seconds": [scaled],
            "resume_s": resume_s,
            "averages": [row[0] for row in fresh.tables[0].rows],
            "rows": rows,
            "resume_rows": _rows(resumed),
            "records": records,
            "bytes": journal_bytes,
            "key": [rows],
        }

    @staticmethod
    def throughput(inputs, rounds: List[dict], key: str = "seconds") -> float:
        """Campaign trials per second, fresh run plus resume pass."""
        return inputs.trials / statistics.median([r[key][0] for r in rounds])

    def checks(self, inputs: CampaignInputs, rounds: List[dict]) -> List[Check]:
        first = rounds[0]
        expected = [(f"b0000-grid-{inputs.trials}", i) for i in range(inputs.trials)]
        return [
            ("rounds_identical", all(r["key"] == first["key"] for r in rounds)),
            ("journal_records_exact", first["records"] == expected),
            ("resume_rows_identical", first["resume_rows"] == first["rows"]),
            (
                "rows_echo_input_averages",
                first["averages"] == [float(o.mean()) for o in inputs.opinions],
            ),
        ]


WORKLOADS = {
    cls.name: cls
    for cls in (
        ExpanderWorkload,
        HubWorkload,
        CampaignWorkload,
        ScenarioWorkload,
        ChurnWorkload,
        AdversarialWorkload,
    )
}


def make_workload(name: str, scale: Scale, work_dir: Path):
    return WORKLOADS[name](scale, work_dir)


def timed_setup(workload, seed: int, repeats: int, clock):
    """Set up ``repeats`` times; the inputs and each repeat's seconds.

    Returns ``(inputs, scaled setup seconds, graph-building seconds)``,
    the last two as lists with one entry per repeat.  The repeats are
    one unit for ``clock``, which scales each by the batch's factor.
    """
    wall_s = []
    graph_s = []

    def batch():
        inputs = None
        for _ in range(repeats):
            start = time.perf_counter()
            inputs, graph_seconds = workload.setup(seed)
            wall_s.append(time.perf_counter() - start)
            graph_s.append(graph_seconds)
        return inputs

    inputs, wall, scaled = clock.time(batch)
    return inputs, [s * scaled / wall for s in wall_s], graph_s
