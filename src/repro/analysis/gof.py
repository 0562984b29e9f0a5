"""Goodness-of-fit testing for winner distributions.

Theorem 2 predicts a two-point winner distribution; a chi-square
goodness-of-fit test against it is a sharper check than per-cell Wilson
intervals because it pools all categories (including "anything else").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.errors import AnalysisError


@dataclass(frozen=True)
class GofResult:
    """Chi-square goodness-of-fit outcome."""

    statistic: float
    p_value: float
    dof: int

    def rejects(self, alpha: float = 0.01) -> bool:
        """Whether the null (the predicted distribution) is rejected."""
        return self.p_value < alpha


def chi_square_gof(
    observed: Sequence, predicted: Dict, min_expected: float = 1.0
) -> GofResult:
    """Chi-square test of observed outcomes against predicted probabilities.

    ``predicted`` maps outcome values to probabilities (must sum to ≤ 1;
    any remainder is pooled into an implicit "other" cell together with
    observed outcomes not listed). Cells with expected count below
    ``min_expected`` are merged into "other" to keep the chi-square
    approximation valid.
    """
    observed = list(observed)
    total = len(observed)
    if total == 0:
        raise AnalysisError("no observations")
    prob_sum = sum(predicted.values())
    if prob_sum > 1.0 + 1e-9 or any(p < 0 for p in predicted.values()):
        raise AnalysisError("predicted probabilities must be >= 0 and sum to <= 1")

    counts = Counter(observed)
    cells = []  # (observed count, expected count)
    other_observed = total
    other_expected = float(total)
    for value, probability in predicted.items():
        expected = probability * total
        if expected < min_expected:
            continue  # pooled into "other"
        cells.append((counts.get(value, 0), expected))
        other_observed -= counts.get(value, 0)
        other_expected -= expected
    if other_expected > 1e-9 or other_observed > 0:
        cells.append((other_observed, max(other_expected, 1e-9)))
    if len(cells) < 2:
        raise AnalysisError("need at least two cells with positive expectation")

    # Imported here: scipy.stats would add about a second to `import repro`.
    from scipy.special import chdtrc

    observed_counts = np.array([c[0] for c in cells], dtype=np.float64)
    expected_counts = np.array([c[1] for c in cells], dtype=np.float64)
    # Renormalize tiny float drift so both totals agree.
    expected_counts *= observed_counts.sum() / expected_counts.sum()
    statistic = float(
        np.sum((observed_counts - expected_counts) ** 2 / expected_counts)
    )
    dof = len(cells) - 1
    return GofResult(
        statistic=statistic,
        p_value=float(chdtrc(dof, statistic)),
        dof=dof,
    )
