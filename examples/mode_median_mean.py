"""Mode, Median, Mean: three dynamics, three statistics.

The paper observes that pull voting, median voting and DIV mirror the
mode, the median and the mean of the initial opinions. This demo runs
all three on the *same* skewed opinion sample on a complete graph and
tabulates where each dynamic's winners land.

Run with::

    python examples/mode_median_mean.py
"""

from collections import Counter

import numpy as np

from repro.analysis import run_trials, skewed_opinions
from repro.analysis.statistics import median_of, mode_of
from repro.core import run_div
from repro.graphs import complete_graph

N, K, TRIALS = 200, 7, 40


def main() -> None:
    graph = complete_graph(N)
    opinions = skewed_opinions(N, K, rng=0)
    mode = mode_of(opinions.tolist())
    median = median_of(opinions.tolist())
    mean = float(np.mean(opinions))
    counts = Counter(opinions.tolist())
    print(f"initial opinions on K_{N} (skewed):",
          dict(sorted(counts.items())))
    print(f"mode = {mode}, median = {median:g}, mean = {mean:.3f}\n")

    dynamics = {
        "pull voting   (mode)": ("pull", None),
        "median voting (median)": ("median", 5_000_000),
        "DIV           (mean)": ("div", None),
    }
    print(f"winner distribution over {TRIALS} runs each:")
    values = list(range(1, K + 1))
    header = "  ".join(f"{v:>5}" for v in values)
    print(f"{'dynamic':24}  {header}   mean winner")
    for name, (rule, budget) in dynamics.items():
        winners = run_trials(
            TRIALS,
            lambda i, rng: run_div(
                graph, opinions, dynamics=rule, rng=rng, max_steps=budget
            ).winner,
            seed=1,
        ).outcomes
        histogram = Counter(winners)
        row = "  ".join(f"{histogram.get(v, 0) / TRIALS:>5.2f}" for v in values)
        print(f"{name:24}  {row}   {np.mean(winners):.2f}")

    print("\npull voting's winners track the initial distribution (modal"
          "\nvalue most likely); median voting concentrates on the median;"
          "\nDIV concentrates on floor/ceil of the mean.")


if __name__ == "__main__":
    main()
