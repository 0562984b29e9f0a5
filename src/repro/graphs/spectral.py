"""Spectral quantities of the simple random walk on a graph.

The paper's conditions are phrased through ``λ``, the second-largest
absolute eigenvalue of the walk's transition matrix ``P``, together with
the stationary distribution ``π`` and the expander mixing lemma
(Lemma 9). ``P = D^{-1} A`` is similar to the symmetric matrix
``N = D^{-1/2} A D^{-1/2}``, so we compute real eigenvalues of ``N``:
dense for small graphs, Lanczos (``scipy.sparse.linalg.eigsh``) above a
size threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph

if TYPE_CHECKING:
    import scipy.sparse as sp

#: Above this vertex count, eigenvalues are computed with sparse Lanczos.
_DENSE_LIMIT = 1500


def adjacency_matrix(graph: Graph) -> sp.csr_matrix:
    """The sparse adjacency matrix ``A`` of the graph."""
    # Imported here, as in the functions below: scipy.sparse costs
    # `import repro` about a quarter of a second.
    import scipy.sparse as sp

    n = graph.n
    edges = graph.edge_array
    row = np.concatenate([edges[:, 0], edges[:, 1]])
    col = np.concatenate([edges[:, 1], edges[:, 0]])
    data = np.ones(row.size, dtype=np.float64)
    return sp.csr_matrix((data, (row, col)), shape=(n, n))


def transition_matrix(graph: Graph) -> np.ndarray:
    """Dense transition matrix ``P(v, u) = 1{vu in E} / d(v)``.

    Only intended for small graphs (tests, mixing-lemma audits); large
    graphs should use :func:`second_eigenvalue` directly.
    """
    _require_positive_degrees(graph)
    adjacency = adjacency_matrix(graph).toarray()
    return adjacency / graph.degrees[:, None]


def normalized_adjacency(graph: Graph) -> sp.csr_matrix:
    """The symmetric matrix ``N = D^{-1/2} A D^{-1/2}`` (same spectrum as P)."""
    _require_positive_degrees(graph)
    inv_sqrt = 1.0 / np.sqrt(graph.degrees.astype(np.float64))
    import scipy.sparse as sp

    adjacency = adjacency_matrix(graph)
    scale = sp.diags(inv_sqrt)
    return scale @ adjacency @ scale


def walk_spectrum(graph: Graph) -> np.ndarray:
    """All eigenvalues of ``P`` in descending order (dense computation)."""
    matrix = normalized_adjacency(graph).toarray()
    eigenvalues = np.linalg.eigvalsh(matrix)
    return eigenvalues[::-1]


def second_eigenvalue(graph: Graph) -> float:
    """``λ = max(|λ_2|, |λ_n|)`` of the walk's transition matrix.

    This is the quantity in Theorems 1 and 2. For a connected non-bipartite
    graph ``λ < 1``; for bipartite graphs ``λ = 1`` (``λ_n = -1``).
    """
    _require_positive_degrees(graph)
    n = graph.n
    if n == 1:
        return 0.0
    if n <= _DENSE_LIMIT:
        spectrum = walk_spectrum(graph)
        return float(max(abs(spectrum[1]), abs(spectrum[-1])))
    from scipy.sparse.linalg import eigsh

    matrix = normalized_adjacency(graph)
    top = eigsh(matrix, k=2, which="LA", return_eigenvectors=False)
    bottom = eigsh(matrix, k=1, which="SA", return_eigenvectors=False)
    lambda2 = float(np.sort(top)[0])
    lambda_n = float(bottom[0])
    return max(abs(lambda2), abs(lambda_n))


def spectral_gap(graph: Graph) -> float:
    """``1 - λ``, the absolute spectral gap of the walk."""
    return 1.0 - second_eigenvalue(graph)


@dataclass(frozen=True)
class SpectralProfile:
    """Summary of the spectral quantities the paper's conditions use."""

    n: int
    m: int
    lam: float
    pi_min: float
    pi_max: float

    def lambda_k(self, k: int) -> float:
        """The product ``λ·k`` appearing in the hypothesis ``λk = o(1)``."""
        return self.lam * k

    def satisfies_theorem_conditions(self, k: int, *, lambda_k_threshold: float = 0.5) -> bool:
        """Heuristic finite-``n`` check of Theorem 1's hypotheses.

        Asymptotic conditions (``λk = o(1)``, ``k = o(n/log n)``,
        ``π_min = Θ(1/n)``) have no exact finite-``n`` analogue; we use the
        practical surrogate ``λk <= threshold``, ``k <= n / log n`` and
        ``π_min >= 1/(10 n)``, which tracks where the simulations start to
        agree with the theorems.
        """
        if self.lambda_k(k) > lambda_k_threshold:
            return False
        if k > self.n / max(np.log(self.n), 1.0):
            return False
        return self.pi_min >= 0.1 / self.n


def spectral_profile(graph: Graph) -> SpectralProfile:
    """Compute the :class:`SpectralProfile` of a graph."""
    pi = graph.stationary_distribution()
    return SpectralProfile(
        n=graph.n,
        m=graph.m,
        lam=second_eigenvalue(graph),
        pi_min=float(pi.min()),
        pi_max=float(pi.max()),
    )


def edge_measure(graph: Graph, source: Sequence[int], target: Sequence[int]) -> float:
    """``Q(S, U) = Σ_{v in S} π_v P(v, U)`` — the walk's edge measure.

    Equals ``e(S, U) / 2m`` where ``e`` counts ordered edge endpoints from
    ``S`` to ``U``.
    """
    source_idx = np.asarray(source, dtype=np.int64)
    target_mask = np.zeros(graph.n, dtype=bool)
    target_mask[np.asarray(target, dtype=np.int64)] = True
    count = 0
    for v in source_idx:
        count += int(target_mask[graph.neighbors(v)].sum())
    return count / (2.0 * graph.m)


def mixing_lemma_bound(graph: Graph, source: Sequence[int], target: Sequence[int]) -> Tuple[float, float]:
    """Return ``(|Q(S,U) - π(S)π(U)|, λ·sqrt(π(S)π(S^c)π(U)π(U^c)))``.

    The expander mixing lemma (Lemma 9) asserts the first component is at
    most the second; tests audit this on random graphs and random sets.
    """
    pi = graph.stationary_distribution()
    s_idx = np.asarray(source, dtype=np.int64)
    u_idx = np.asarray(target, dtype=np.int64)
    pi_s = float(pi[s_idx].sum())
    pi_u = float(pi[u_idx].sum())
    deviation = abs(edge_measure(graph, source, target) - pi_s * pi_u)
    lam = second_eigenvalue(graph)
    # Clamp the variance factors at 0: float round-off can push
    # pi*(1-pi) a hair below zero when a set covers all of V.
    var_s = max(0.0, pi_s * (1 - pi_s))
    var_u = max(0.0, pi_u * (1 - pi_u))
    bound = lam * np.sqrt(var_s * var_u)
    return deviation, float(bound)


def conductance(graph: Graph, cut: Sequence[int]) -> float:
    """Conductance ``Q(S, S^c) / min(π(S), π(S^c))`` of a vertex cut."""
    cut_idx = np.asarray(cut, dtype=np.int64)
    if cut_idx.size == 0 or cut_idx.size == graph.n:
        raise GraphError("conductance needs a proper non-empty cut")
    complement = np.setdiff1d(np.arange(graph.n), cut_idx)
    pi = graph.stationary_distribution()
    pi_s = float(pi[cut_idx].sum())
    flow = edge_measure(graph, cut_idx, complement)
    return flow / min(pi_s, 1.0 - pi_s)


def _require_positive_degrees(graph: Graph) -> None:
    if graph.m == 0 or np.any(graph.degrees == 0):
        raise GraphError(
            "random-walk quantities need every vertex to have degree >= 1"
        )
