"""Closed-form quantities from the paper's theorems and lemmas.

These formulas are the *predictions* the benchmark harness prints next
to the measured values:

* :func:`winning_probabilities` — Theorem 2 / Lemma 5(iii);
* :func:`two_opinion_win_probability` — eq. (3);
* :func:`expected_reduction_time_bound` — eq. (4) / (20);
* :func:`azuma_tail` / :func:`azuma_envelope` — Lemma 4 / eq. (5);
* :func:`t1_time`, :func:`t2_time`, :func:`tp_time` — eq. (18);
* :func:`complete_graph_lambda`, :func:`random_regular_lambda_bound`,
  :func:`gnp_lambda_bound` — the "Graphs with small second eigenvalue"
  section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.graphs.graph import Graph


@dataclass(frozen=True)
class WinningPrediction:
    """Theorem 2's prediction for the final consensus opinion.

    ``floor``/``ceil`` are ``⌊c⌋``/``⌈c⌉`` and ``p_floor``/``p_ceil``
    their asymptotic winning probabilities; opinions outside that pair
    win with probability ``o(1)``.
    """

    c: float
    floor: int
    ceil: int
    p_floor: float
    p_ceil: float

    def probability_of(self, opinion: int) -> float:
        """Predicted winning probability of a specific opinion."""
        if opinion == self.floor:
            return self.p_floor
        if opinion == self.ceil:
            return self.p_ceil
        return 0.0


def winning_probabilities(c: float) -> WinningPrediction:
    """Theorem 2: the winner is ``⌊c⌋`` w.p. ``⌈c⌉ - c``, else ``⌈c⌉``.

    ``c`` is the initial average opinion — simple for the edge process,
    degree-weighted for the vertex process. When ``c`` is an integer the
    prediction is that ``c`` itself wins with probability ``1 - o(1)``.
    """
    floor = math.floor(c)
    ceil = math.ceil(c)
    if floor == ceil:
        return WinningPrediction(c=c, floor=floor, ceil=ceil, p_floor=1.0, p_ceil=1.0)
    return WinningPrediction(
        c=c, floor=floor, ceil=ceil, p_floor=ceil - c, p_ceil=c - floor
    )


def two_opinion_win_probability(
    graph: Graph, holders: Sequence[int], process: str
) -> float:
    """Eq. (3): winning probability of the opinion held by ``holders``.

    ``N_i / n`` for the edge process and ``d(A_i) / 2m`` for the vertex
    process — each is the absorbed value of that process's martingale
    (``S(t)/n`` resp. ``Z(t)/n``, Lemma 3).
    """
    holders = np.asarray(holders, dtype=np.int64)
    if process == "edge":
        return holders.size / graph.n
    if process == "vertex":
        return graph.total_degree(holders) / (2.0 * graph.m)
    raise AnalysisError(f"unknown process {process!r}")


def expected_reduction_time_bound(
    n: int, k: int, lam: float, constant: float = 1.0
) -> float:
    """Eq. (4): ``E[T] = O(kn log n + n^{5/3} log n + λk n² + √λ n²)``.

    Returns the bracketed expression times ``constant``; experiments
    compare measured reduction times against this *shape* (the constant
    is not specified by the paper).
    """
    if n < 2 or k < 1:
        raise AnalysisError(f"need n >= 2 and k >= 1, got n={n}, k={k}")
    if lam < 0:
        raise AnalysisError(f"λ must be >= 0, got {lam}")
    log_n = math.log(n)
    return constant * (
        k * n * log_n + n ** (5.0 / 3.0) * log_n + lam * k * n**2 + math.sqrt(lam) * n**2
    )


def azuma_tail(t: int, h: float) -> float:
    """Eq. (5): ``P[|W(t) - W(0)| >= h] <= 2 exp(-h² / 2t)``."""
    if t <= 0:
        return 0.0 if h > 0 else 1.0
    return min(1.0, 2.0 * math.exp(-(h * h) / (2.0 * t)))


def azuma_envelope(t: int, confidence: float = 0.99) -> float:
    """The deviation ``h`` such that ``azuma_tail(t, h) = 1 - confidence``.

    A trace staying inside ``±h`` with frequency ≥ ``confidence``
    corroborates the martingale property quantitatively.
    """
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    delta = 1.0 - confidence
    return math.sqrt(2.0 * t * math.log(2.0 / delta))


def t1_time(n: int, epsilon: float) -> int:
    """Eq. (18): ``T_1(ε) = ⌈2n log(1/(2ε²))⌉`` — the ``ℓ ≥ s+3`` phase."""
    _check_epsilon(epsilon)
    return math.ceil(2.0 * n * math.log(1.0 / (2.0 * epsilon**2)))


def t2_time(n: int, epsilon: float) -> int:
    """Eq. (18): ``T_2(ε) = ⌈(2n/ε) log(1/(2ε²))⌉`` — the ``ℓ = s+2`` phase."""
    _check_epsilon(epsilon)
    return math.ceil((2.0 * n / epsilon) * math.log(1.0 / (2.0 * epsilon**2)))


def tp_time(n: int, lam: float, pi_min: float) -> int:
    """Eq. (18): ``T_p = ⌈64n / (√2 (1-λ) π_min)⌉`` — Lemma 11's pull-voting time."""
    if not 0.0 <= lam < 1.0:
        raise AnalysisError(f"T_p needs 0 <= λ < 1, got {lam}")
    if pi_min <= 0:
        raise AnalysisError(f"π_min must be > 0, got {pi_min}")
    return math.ceil(64.0 * n / (math.sqrt(2.0) * (1.0 - lam) * pi_min))


def reduction_epsilons(n: int, lam: float) -> tuple:
    """The ``(ε_1, ε_2)`` choices of Theorem 1's proof.

    ``ε_1 = max(4λ², n^{-2})`` and ``ε_2 = max(2λ, n^{-2/3})``.
    """
    epsilon_1 = max(4.0 * lam * lam, n**-2.0)
    epsilon_2 = max(2.0 * lam, n ** (-2.0 / 3.0))
    return epsilon_1, epsilon_2


def theorem1_step_budget(n: int, k: int, lam: float, pi_min: float) -> float:
    """Eq. (19) evaluated at the proof's ε choices — an explicit budget.

    ``4(k-3)(T_1(ε_1) + T_p√ε_1) + 4(T_2(ε_2) + T_p√ε_2)`` with the
    ceiling-free ``T_p``. This is the fully-explicit (constants included)
    upper bound the proof derives before absorbing constants into O(·).

    Defined only for ``0 <= λ < 1/(2√2)`` and ``π_min > 0``: the proof's
    ``ε_2 = 2λ`` must stay below ``1/√2`` for ``T_2``'s log to be
    positive. Outside that range it raises :class:`AnalysisError`.
    """
    if not 0.0 <= lam < 1.0 / (2.0 * math.sqrt(2.0)):
        raise AnalysisError(
            f"eq. (19)'s budget needs 0 <= λ < 1/(2√2) ≈ 0.354, got λ = {lam}: "
            "ε₂ = 2λ must stay below 1/√2"
        )
    if pi_min <= 0:
        raise AnalysisError(f"π_min must be > 0, got {pi_min}")
    epsilon_1, epsilon_2 = reduction_epsilons(n, lam)
    tp = 64.0 * n / (math.sqrt(2.0) * (1.0 - lam) * pi_min)
    phase1 = t1_time(n, epsilon_1) + tp * math.sqrt(epsilon_1)
    phase2 = t2_time(n, epsilon_2) + tp * math.sqrt(epsilon_2)
    return 4.0 * max(k - 3, 0) * phase1 + 4.0 * phase2


def complete_graph_lambda(n: int) -> float:
    """``λ(K_n) = 1 / (n-1)``."""
    if n < 2:
        raise AnalysisError(f"K_n needs n >= 2, got {n}")
    return 1.0 / (n - 1)


def random_regular_lambda_bound(d: int, constant: float = 2.0) -> float:
    """W.h.p. bound ``λ = O(1/√d)`` for random ``d``-regular graphs.

    The literature constant is close to ``2/√d`` (Friedman-type bounds:
    ``(2√(d-1) + o(1))/d``); we expose the constant for calibration.
    """
    if d < 1:
        raise AnalysisError(f"need d >= 1, got {d}")
    return min(1.0, constant / math.sqrt(d))


def gnp_lambda_bound(n: int, p: float) -> float:
    """W.h.p. bound ``λ <= (1+o(1)) 2/√(np)`` for ``G(n,p)`` ([8] Thm 1.2)."""
    if n < 1 or not 0.0 < p <= 1.0:
        raise AnalysisError(f"need n >= 1 and p in (0, 1], got n={n}, p={p}")
    return min(1.0, 2.0 / math.sqrt(n * p))


def load_balancing_time_bound(n: int, k: int, constant: float = 1.0) -> float:
    """[5]: load balancing reaches ~3 consecutive values in ``O(n log n + n log k)``."""
    if n < 2 or k < 1:
        raise AnalysisError(f"need n >= 2 and k >= 1, got n={n}, k={k}")
    return constant * (n * math.log(n) + n * math.log(max(k, 2)))


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0 / math.sqrt(2.0):
        raise AnalysisError(
            f"ε must lie in (0, 1/√2) for the log to be positive, got {epsilon}"
        )
