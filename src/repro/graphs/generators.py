"""Graph generators used throughout the paper's experiments.

Deterministic families (complete, path, cycle, star, grid, hypercube,
trees, barbell, lollipop) plus the two random families the paper's
"Graphs with small second eigenvalue" section relies on: random
``d``-regular graphs (pairing/configuration model) and Erdős–Rényi
``G(n, p)``. All random generators accept a seed or generator per
:mod:`repro.rng`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphConstructionError
from repro.graphs.graph import Graph
from repro.rng import RngLike, make_rng


def complete_graph(n: int) -> Graph:
    """The complete graph ``K_n`` (λ = 1/(n-1))."""
    if n < 1:
        raise GraphConstructionError(f"K_n needs n >= 1, got {n}")
    return Graph(n, np.stack(np.triu_indices(n, k=1), axis=1), name=f"K_{n}")


def path_graph(n: int) -> Graph:
    """The path ``P_n`` — the paper's non-expander counterexample family."""
    if n < 1:
        raise GraphConstructionError(f"path needs n >= 1, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)]
    return Graph(n, edges, name=f"P_{n}")


def cycle_graph(n: int) -> Graph:
    """The cycle ``C_n``."""
    if n < 3:
        raise GraphConstructionError(f"cycle needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph(n, edges, name=f"C_{n}")


def star_graph(n: int) -> Graph:
    """The star ``S_n``: vertex 0 joined to ``n - 1`` leaves.

    Maximally irregular: the degree-weighted average differs most strongly
    from the simple average, which experiment E11 exploits.
    """
    if n < 2:
        raise GraphConstructionError(f"star needs n >= 2, got {n}")
    edges = [(0, v) for v in range(1, n)]
    return Graph(n, edges, name=f"star_{n}")


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """The complete bipartite graph ``K_{a,b}`` (bipartite, so λ = 1)."""
    if a < 1 or b < 1:
        raise GraphConstructionError("both sides of K_{a,b} need >= 1 vertices")
    edges = [(u, a + v) for u in range(a) for v in range(b)]
    return Graph(a + b, edges, name=f"K_{a},{b}")


def grid_graph(rows: int, cols: int, periodic: bool = False) -> Graph:
    """A ``rows × cols`` grid; ``periodic=True`` gives the torus."""
    if rows < 1 or cols < 1:
        raise GraphConstructionError("grid needs rows, cols >= 1")
    if periodic and (rows < 3 or cols < 3):
        raise GraphConstructionError("torus needs rows, cols >= 3 to stay simple")

    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    pairs = [(ids[:, :-1], ids[:, 1:]), (ids[:-1], ids[1:])]
    if periodic:
        pairs += [(ids[:, -1], ids[:, 0]), (ids[-1], ids[0])]
    edges = np.concatenate([np.stack([a.ravel(), b.ravel()], axis=1) for a, b in pairs])
    kind = "torus" if periodic else "grid"
    return Graph(rows * cols, edges, name=f"{kind}_{rows}x{cols}")


def hypercube_graph(dim: int) -> Graph:
    """The ``dim``-dimensional hypercube ``Q_dim`` (bipartite, so λ = 1)."""
    if dim < 1:
        raise GraphConstructionError(f"hypercube needs dim >= 1, got {dim}")
    n = 1 << dim
    vertex = np.arange(n, dtype=np.int64)[:, None]
    flipped = vertex ^ (1 << np.arange(dim, dtype=np.int64))
    above = vertex < flipped
    edges = np.stack([np.broadcast_to(vertex, flipped.shape)[above], flipped[above]], axis=1)
    return Graph(n, edges, name=f"Q_{dim}")


def binary_tree_graph(height: int) -> Graph:
    """The complete binary tree of the given height (root = vertex 0)."""
    if height < 0:
        raise GraphConstructionError(f"tree height must be >= 0, got {height}")
    n = (1 << (height + 1)) - 1
    edges = [(v, 2 * v + 1) for v in range(n) if 2 * v + 1 < n]
    edges += [(v, 2 * v + 2) for v in range(n) if 2 * v + 2 < n]
    return Graph(n, edges, name=f"btree_h{height}")


def barbell_graph(clique: int, bridge: int = 0) -> Graph:
    """Two ``K_clique`` cliques joined by a path of ``bridge`` extra vertices.

    A classic poor expander: constant-size cut between two dense halves.
    """
    if clique < 2:
        raise GraphConstructionError("barbell cliques need >= 2 vertices")
    if bridge < 0:
        raise GraphConstructionError("bridge length must be >= 0")
    n = 2 * clique + bridge
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    right = list(range(clique + bridge, n))
    edges += [(u, v) for u in right for v in right if u < v]
    chain = [clique - 1] + list(range(clique, clique + bridge)) + [clique + bridge]
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return Graph(n, edges, name=f"barbell_{clique}+{bridge}")


def lollipop_graph(clique: int, tail: int) -> Graph:
    """A ``K_clique`` with a path of ``tail`` vertices attached."""
    if clique < 2:
        raise GraphConstructionError("lollipop clique needs >= 2 vertices")
    if tail < 1:
        raise GraphConstructionError("lollipop tail needs >= 1 vertex")
    n = clique + tail
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    chain = [clique - 1] + list(range(clique, n))
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return Graph(n, edges, name=f"lollipop_{clique}+{tail}")


def random_regular_graph(
    n: int,
    d: int,
    rng: RngLike = None,
    max_attempts: int = 20,
) -> Graph:
    """A random simple ``d``-regular graph via the repaired pairing model.

    Samples a perfect matching on the ``n·d`` half-edge stubs (the
    configuration model) and then removes loops and multi-edges with
    random degree-preserving edge swaps — the standard repair that keeps
    the distribution asymptotically uniform while avoiding the pairing
    model's exponentially small acceptance rate at large ``d``. The paper
    uses this family with λ = O(1/√d) w.h.p.

    The generator draws one permutation per pairing attempt and one
    integer per proposed swap, so a seed fixes the graph bit for bit.
    """
    if n < 1 or d < 0:
        raise GraphConstructionError("random regular graph needs n >= 1, d >= 0")
    if d >= n:
        raise GraphConstructionError(f"d-regular simple graph needs d < n (d={d}, n={n})")
    if (n * d) % 2 != 0:
        raise GraphConstructionError(f"n*d must be even (n={n}, d={d})")
    if d == 0:
        return Graph(n, [], name=f"RR({n},0)")
    if d == n - 1:
        # K_n is the only such graph; the pairing model rarely finds it.
        return Graph(n, np.stack(np.triu_indices(n, k=1), axis=1), name=f"RR({n},{d})")

    gen = make_rng(rng)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(max_attempts):
        perm = gen.permutation(stubs)
        edges = np.stack([perm[0::2], perm[1::2]], axis=1)
        if _repair_multigraph(edges, n, gen):
            return Graph(n, edges, name=f"RR({n},{d})")
    raise GraphConstructionError(
        f"failed to produce a simple {d}-regular graph on {n} vertices "
        f"after {max_attempts} pairing attempts"
    )


def _repair_multigraph(edges: np.ndarray, n: int, gen: np.random.Generator) -> bool:
    """Remove loops/multi-edges from ``edges`` in place via edge swaps.

    Each swap replaces a bad edge ``(a, b)`` and a random edge ``(c, e)``
    by ``(a, e)`` and ``(c, b)`` when the replacements are simple and
    new. Returns ``False`` if the repair budget runs out (caller then
    redraws the pairing).

    An edge is keyed by the int64 ``min·n + max``. One ``np.unique``
    over the keys finds the loops and repeated edges in ascending edge
    order; only the swaps run in Python. Each proposal draws one
    integer from ``gen`` and spends one unit of budget, as does each
    bad edge found repaired.

    The multiplicity of each key is kept in one dict, filled a chunk of
    16 rows (smaller endpoints) at a time when ``key`` first meets an
    edge of that chunk. A repair of a few dozen edges in a large sparse
    pairing then reads a small share of its keys, and one that touches
    every row of a dense pairing reads each key once, as a dict built
    over all ``m`` keys up front would.
    """
    m = edges.shape[0]
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    uniq, inv, cnt = np.unique(lo * n + hi, return_inverse=True, return_counts=True)
    bad = np.flatnonzero((lo == hi) | (cnt[inv] > 1)).tolist()
    if not bad:
        return True
    rows = 16
    starts = np.searchsorted(uniq, np.arange(0, n + rows, rows) * n).tolist()
    counts: dict[int, int] = {}
    loaded: set[int] = set()

    def key(u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        chunk = u // rows
        if chunk not in loaded:
            loaded.add(chunk)
            s, t = starts[chunk], starts[chunk + 1]
            counts.update(zip(uniq[s:t].tolist(), cnt[s:t].tolist()))
        return u * n + v

    budget = 200 * (len(bad) + 1)
    while bad and budget > 0:
        i = bad[-1]
        a, b = edges[i].tolist()
        if a != b and counts[key(a, b)] == 1:
            budget -= 1
            bad.pop()
            continue
        # Propose swaps for edge i until one lands; a failed proposal
        # changes nothing, so edge i stays bad until then.
        while budget > 0:
            budget -= 1
            j = int(gen.integers(0, m))
            if j == i:
                continue
            c, e = edges[j].tolist()
            # Propose (a, e) and (c, b).
            if a == e or c == b:
                continue
            new1, new2 = key(a, e), key(c, b)
            if new1 == new2 or counts.get(new1, 0) > 0 or counts.get(new2, 0) > 0:
                continue
            for k, step in ((key(a, b), -1), (key(c, e), -1), (new1, 1), (new2, 1)):
                counts[k] = counts.get(k, 0) + step
            edges[i] = (a, e)
            edges[j] = (c, b)
            break
    return not bad or all(
        edges[i, 0] != edges[i, 1] and counts[key(int(edges[i, 0]), int(edges[i, 1]))] == 1
        for i in bad
    )


def gnp_random_graph(
    n: int,
    p: float,
    rng: RngLike = None,
    require_connected: bool = False,
    max_attempts: int = 50,
) -> Graph:
    """An Erdős–Rényi random graph ``G(n, p)``.

    With ``require_connected=True`` the draw is repeated until connected
    (the paper's regime ``np >= 2(1+o(1)) log n`` makes this fast).
    """
    if n < 1:
        raise GraphConstructionError(f"G(n,p) needs n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise GraphConstructionError(f"p must lie in [0, 1], got {p}")
    gen = make_rng(rng)
    iu, iv = np.triu_indices(n, k=1)
    for _ in range(max_attempts):
        mask = gen.random(iu.size) < p
        edges = np.stack([iu[mask], iv[mask]], axis=1)
        graph = Graph(n, edges, name=f"G({n},{p:g})")
        if not require_connected or graph.is_connected():
            return graph
    raise GraphConstructionError(
        f"G({n},{p}) failed to produce a connected graph in {max_attempts} attempts"
    )


def two_clique_bridge_graph(clique: int) -> Graph:
    """Two cliques sharing a single bridge edge (barbell with no path)."""
    return barbell_graph(clique, bridge=0)


_NAMED_FAMILIES = {
    "complete": complete_graph,
    "path": path_graph,
    "cycle": cycle_graph,
    "star": star_graph,
    "hypercube": hypercube_graph,
}


def by_name(family: str, *args, **kwargs) -> Graph:
    """Build a graph family by name (used by the CLI)."""
    try:
        factory = _NAMED_FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(_NAMED_FAMILIES))
        raise GraphConstructionError(f"unknown family {family!r}; known: {known}") from None
    return factory(*args, **kwargs)
