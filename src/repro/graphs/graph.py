"""Immutable undirected simple graph in compressed sparse row (CSR) form.

The voting processes sample millions of (vertex, neighbour) pairs, so the
central data structure is a flat CSR adjacency: ``neighbors(v)`` is the
slice ``indices[indptr[v]:indptr[v+1]]`` and a uniform neighbour draw is
one array lookup. The class is deliberately immutable — processes never
mutate the topology — which lets spectral quantities be cached safely.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphConstructionError, GraphError

Edge = Tuple[int, int]


class Graph:
    """An undirected simple graph on vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs with ``u != v``, or an ``(m, 2)``
        integer array, which is read as it is rather than through a list
        of tuples. Each undirected edge must appear exactly once (in
        either orientation); order and orientation do not matter.
    name:
        Optional human-readable label used in tables and ``repr``.
    """

    __slots__ = (
        "_n",
        "_m",
        "_indptr",
        "_indices",
        "_edge_array",
        "_degrees",
        "_upper",
        "name",
    )

    def __init__(self, n: int, edges: Iterable[Edge], name: str = "") -> None:
        if n < 1:
            raise GraphConstructionError(f"graph needs at least one vertex, got n={n}")
        if isinstance(edges, np.ndarray):
            edge_list = edges.astype(np.int64, copy=False)
        else:
            edge_list = np.asarray(list(edges), dtype=np.int64)
        if edge_list.size == 0:
            edge_list = edge_list.reshape(0, 2)
        if edge_list.ndim != 2 or edge_list.shape[1] != 2:
            raise GraphConstructionError("edges must be (u, v) pairs")
        if edge_list.shape[0] and (edge_list.min() < 0 or edge_list.max() >= n):
            raise GraphConstructionError(
                f"edge endpoints must lie in [0, {n - 1}]"
            )
        u, v = edge_list[:, 0], edge_list[:, 1]
        if np.any(u == v):
            raise GraphConstructionError("self-loops are not allowed")

        # One sort of the doubled keys source·n + target yields the CSR
        # order: each adjacency slice sorted, and the entries with
        # source < target the edge list in lexicographic order.  An edge
        # given twice, in either orientation, repeats a key.
        keys = np.sort(np.concatenate([u * n + v, v * n + u]))
        if np.any(keys[1:] == keys[:-1]):
            raise GraphConstructionError("duplicate edges are not allowed")
        src, indices = np.divmod(keys, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        above = src < indices
        edge_array = np.stack([src[above], indices[above]], axis=1)
        m = edge_array.shape[0]
        self._adopt(n, indptr, indices, edge_array, None, name or f"graph(n={n},m={m})")

    @classmethod
    def _from_csr(
        cls,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        degrees: np.ndarray,
        upper: np.ndarray,
        name: str,
    ) -> "Graph":
        """Adopt canonical CSR arrays as they are, skipping canonicalisation.

        For internal producers that already hold canonical arrays — every
        ``indices`` row sorted, ``upper`` the matching
        :attr:`upper_offsets` — such as churn, which patches a few rows
        of a parent graph and shares its ``indptr`` and ``degrees``.  The
        edge list is left unbuilt until :attr:`edge_array` is first read.
        The caller is responsible for the arrays' validity; outside input
        goes through the validating public constructor.
        """
        graph = cls.__new__(cls)
        graph._adopt(n, indptr, indices, None, degrees, name)
        upper.setflags(write=False)
        graph._upper = upper
        return graph

    def _adopt(
        self,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        edge_array: Optional[np.ndarray],
        degrees: Optional[np.ndarray],
        name: str,
    ) -> None:
        self._n = int(n)
        self._m = int(indices.size // 2)
        self.name = name
        self._indptr = indptr
        self._indices = indices
        self._edge_array = edge_array
        self._degrees = degrees
        self._upper = None
        for array in (indptr, indices, edge_array):
            if array is not None:
                array.setflags(write=False)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self._m

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array of length ``n + 1`` (read-only)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR flat neighbour array of length ``2m`` (read-only)."""
        return self._indices

    @property
    def degrees(self) -> np.ndarray:
        """Vertex degrees as an ``int64`` array of length ``n`` (read-only,
        cached — the block kernel gathers from it in its hot path)."""
        if self._degrees is None:
            degrees = np.diff(self._indptr)
            degrees.setflags(write=False)
            self._degrees = degrees
        return self._degrees

    @property
    def edge_array(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array with ``u < v`` rows (read-only).

        Rows are in lexicographic order, which is the CSR order of each
        vertex's neighbours above it.  The public constructor builds the
        array eagerly; a graph produced by churn builds it from its CSR
        rows on first access and caches it, so a run that never draws
        edges (the vertex process) never pays for it.
        """
        if self._edge_array is None:
            owner = np.repeat(np.arange(self._n), self.degrees)
            above = self._indices > owner
            edges = np.stack([owner[above], self._indices[above]], axis=1)
            edges.setflags(write=False)
            self._edge_array = edges
        return self._edge_array

    @property
    def upper_offsets(self) -> np.ndarray:
        """Where each vertex's edges start in :attr:`edge_array` (read-only).

        An ``n + 1`` prefix sum: ``upper_offsets[u]`` counts the edges
        whose lower endpoint is below ``u``, so the edge of rank ``i`` is
        ``(u, v)`` with ``u = searchsorted(upper_offsets, i, 'right') - 1``
        and ``v`` the ``(i - upper_offsets[u])``-th neighbour of ``u``
        above ``u``.  Cached; churn derives a rewired graph's offsets
        from its parent's.
        """
        if self._upper is None:
            upper = np.searchsorted(self.edge_array[:, 0], np.arange(self._n + 1))
            upper.setflags(write=False)
            self._upper = upper
        return self._upper

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        self._check_vertex(v)
        return int(self._indptr[v + 1] - self._indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbours of ``v`` as a read-only array view."""
        self._check_vertex(v)
        return self._indices[self._indptr[v]:self._indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        self._check_vertex(u)
        self._check_vertex(v)
        nbrs = self.neighbors(u)
        pos = int(np.searchsorted(nbrs, v))
        return pos < nbrs.size and nbrs[pos] == v

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges as ``(u, v)`` with ``u < v``."""
        for u, v in self.edge_array:
            yield int(u), int(v)

    # ------------------------------------------------------------------
    # Derived quantities used by the voting processes
    # ------------------------------------------------------------------
    def stationary_distribution(self) -> np.ndarray:
        """Stationary distribution ``pi_v = d(v) / 2m`` of the lazy-free walk."""
        if self._m == 0:
            raise GraphError("stationary distribution undefined for an edgeless graph")
        return self.degrees / (2.0 * self._m)

    def total_degree(self, vertices: Sequence[int]) -> int:
        """Sum of degrees ``d(A)`` over a vertex set ``A``."""
        idx = np.asarray(vertices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self._n):
            raise GraphError("vertex set out of range")
        return int(self.degrees[idx].sum())

    def is_connected(self) -> bool:
        """Whether the graph is connected (BFS from vertex 0)."""
        if self._n == 1:
            return True
        seen = np.zeros(self._n, dtype=bool)
        stack: List[int] = [0]
        seen[0] = True
        count = 1
        indptr, indices = self._indptr, self._indices
        while stack:
            v = stack.pop()
            for w in indices[indptr[v]:indptr[v + 1]]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(int(w))
        return count == self._n

    def is_regular(self) -> bool:
        """Whether every vertex has the same degree."""
        deg = self.degrees
        return bool(deg.size == 0 or np.all(deg == deg[0]))

    def is_bipartite(self) -> bool:
        """Whether the graph is 2-colourable (BFS 2-colouring)."""
        color = np.full(self._n, -1, dtype=np.int8)
        indptr, indices = self._indptr, self._indices
        for start in range(self._n):
            if color[start] != -1:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                v = stack.pop()
                for w in indices[indptr[v]:indptr[v + 1]]:
                    if color[w] == -1:
                        color[w] = 1 - color[v]
                        stack.append(int(w))
                    elif color[w] == color[v]:
                        return False
        return True

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(name={self.name!r}, n={self._n}, m={self._m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and self._m == other._m
            and np.array_equal(self.edge_array, other.edge_array)
        )

    def __hash__(self) -> int:
        return hash((self._n, self._m, self.edge_array.tobytes()))

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise GraphError(f"vertex {v} out of range [0, {self._n - 1}]")
