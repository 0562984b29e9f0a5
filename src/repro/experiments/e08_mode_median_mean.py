"""E8 — Pull / median / DIV realize Mode / Median / Mean.

Claim (§ "The main features of discrete incremental voting"): pull
voting's winner follows the (degree-weighted) initial distribution, so
its most likely winner is the mode; median voting (Doerr et al.)
converges to ≈ the median; DIV converges to the rounded mean. We draw a
right-skewed initial distribution where mode < median < mean and run all
three dynamics on the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.initializers import skewed_opinions
from repro.analysis.montecarlo import run_trials
from repro.analysis.statistics import (
    empirical_distribution,
    median_of,
    mode_of,
    total_variation_distance,
)
from repro.core.div import run_div
from repro.experiments.tables import ExperimentReport, Table
from repro.graphs import complete_graph
from repro.rng import RngLike, make_rng

EXPERIMENT_ID = "E8"
TITLE = "Mode / Median / Mean: pull voting vs median voting vs DIV"


@dataclass
class Config:
    """The three dynamics on a common skewed input distribution."""

    n: int = 300
    k: int = 7
    trials: int = 150
    max_steps: int = 20_000_000

    @classmethod
    def quick(cls) -> "Config":
        return cls(n=150, trials=60)


def run(config: Config = None, seed: RngLike = 0) -> ExperimentReport:
    """Run E8 and return the report."""
    config = config or Config()
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    graph = complete_graph(config.n)
    init_rng = make_rng(np.random.SeedSequence(0 if seed is None else int(seed)))
    opinions = skewed_opinions(config.n, config.k, rng=init_rng)
    mode = mode_of(opinions)
    median = median_of(opinions)
    mean = float(np.mean(opinions))
    initial = empirical_distribution(opinions.tolist())
    report.add_line(
        f"initial sample on K_{config.n}: mode={mode}, median={median:g}, "
        f"mean={mean:.3f} (k={config.k})"
    )

    table = Table(
        title=f"{config.trials} trials per dynamic, identical initial opinions",
        headers=[
            "dynamic",
            "target statistic",
            "mean winner",
            "modal winner",
            "P(win in {floor,ceil} of mean)",
            "TV(winner dist, initial dist)",
        ],
    )

    floor_mean, ceil_mean = math.floor(mean), math.ceil(mean)
    targets = {
        "pull": f"mode={mode}",
        "median": f"median={median:g}",
        "div": f"mean={mean:.2f}",
    }
    for name in ("pull", "median", "div"):

        def trial(index, rng, name=name):
            return run_div(
                graph,
                opinions,
                dynamics=name,
                process="vertex",
                rng=rng,
                max_steps=config.max_steps,
            ).winner

        outcomes = run_trials(config.trials, trial, seed=seed)
        winners = [w for w in outcomes.outcomes if w is not None]
        distribution = empirical_distribution(winners)
        table.add_row(
            name,
            targets[name],
            float(np.mean(winners)),
            mode_of(winners),
            sum(1 for w in winners if w in (floor_mean, ceil_mean)) / len(winners),
            total_variation_distance(distribution, initial),
        )
    table.add_note(
        "pull voting's winner distribution tracks the initial distribution "
        "(small TV distance, modal winner = initial mode); median voting's "
        "winners sit at the median; DIV's winners sit at floor/ceil of the "
        "mean with probability ≈ 1."
    )
    report.add_table(table)
    return report
