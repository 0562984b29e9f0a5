"""Dynamic interaction substrates: a graph plus its evolution schedule.

The paper analyses DIV on a *static* graph, and until this module the
whole engine shared that assumption: :class:`~repro.graphs.graph.Graph`
is immutable, schedulers snapshot its CSR arrays at construction, and
the three execution kernels never revisit the topology.  The ROADMAP's
"dynamic and adversarial scenarios" item breaks the assumption on
purpose — probing how robust DIV's mean-preserving convergence is when
the communication topology rewires underneath it.

:class:`Substrate` is the explicit contract that replaces the implicit
static one:

* it wraps the *current* :class:`Graph` plus an optional
  :class:`ChurnPlan` — a deterministic, seeded schedule of
  degree-preserving edge rewirings at fixed step numbers;
* time between two consecutive rewiring steps is an **epoch**.  Within
  an epoch the graph is immutable exactly as before; at an epoch
  boundary the substrate swaps in a rewired graph and increments its
  :attr:`epoch` counter;
* schedulers cache per-epoch arrays (degrees, edge lists) keyed by that
  counter and must :meth:`~repro.core.schedulers.VertexScheduler.rebuild`
  when it advances; drawing from a stale cache raises a loud
  :class:`~repro.errors.ProcessError` instead of silently sampling the
  dead topology;
* the execution kernels clip every scheduler block at the next epoch
  boundary (the same clipping they already do for sampled-observer due
  steps), so all kernels draw identical block sizes at identical steps
  and the RNG stream — and therefore every outcome — stays bit-for-bit
  kernel-independent on dynamic substrates too (see
  ``docs/scenarios.md``).

Churn is intentionally *degree-preserving* (double-edge swaps): vertex
degrees, ``2m`` and the stationary measure are all invariants of the
plan, so both asynchronous processes stay well-defined across every
epoch and the vertex process never strands a vertex without neighbours.
The rewiring RNG is a **private stream** derived from the plan's seed —
it never touches the engine generator, which is what keeps scheduler
draws identical whether or not churn is active at other steps.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple, Union

import numpy as np

from repro.errors import ProcessError
from repro.graphs.graph import Graph
from repro.rng import make_rng


@dataclass(frozen=True)
class ChurnPlan:
    """A deterministic schedule of degree-preserving edge rewirings.

    Attributes
    ----------
    period:
        Steps between consecutive rewiring events: the graph rewires
        just before steps ``period, 2·period, ...`` are drawn, i.e.
        pairs for step ``period + 1`` onward see the new topology.
    swaps:
        Double-edge-swap *attempts* per event.  Each attempt picks two
        distinct edges and a random orientation and rewires them iff the
        result stays a simple graph; failed attempts are skipped, so the
        realized swap count can be lower.
    seed:
        Seed of the plan's private rewiring stream.  Two substrates
        built from equal plans evolve identically — per-trial
        reproducibility therefore derives churn seeds from the trial
        seed, exactly like the engine RNG.
    events:
        Total number of rewiring events, or ``None`` for an unbounded
        plan.  After the last event the substrate is static again.
    """

    period: int
    swaps: int
    seed: int
    events: Optional[int] = None

    def __post_init__(self) -> None:
        _check_count("period", self.period, 1)
        _check_count("swaps", self.swaps, 1)
        if self.events is not None:
            _check_count("events", self.events, 0)


def _check_count(field: str, value: object, minimum: int) -> None:
    # ``bool`` is an ``int`` subclass but never a meaningful count.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ProcessError(f"churn {field} must be an integer, got {value!r}")
    if value < minimum:
        raise ProcessError(f"churn {field} must be >= {minimum}, got {value}")


def rewire_edges(graph: Graph, rng: np.random.Generator, swaps: int) -> Graph:
    """One churn event: ``swaps`` double-edge-swap attempts on ``graph``.

    A double edge swap replaces edges ``{a, b}, {c, d}`` by
    ``{a, d}, {c, b}`` — every vertex keeps its degree.  An attempt is
    skipped (not retried) when it would create a self-loop or a
    duplicate edge, so the procedure is a deterministic function of the
    generator state.  Returns a new :class:`Graph` (or ``graph`` itself
    when every attempt was skipped); the input is never mutated.

    Cost is O(swaps·d) plus O(m) array copies: presence is tested by
    binary search in the event-start CSR rows under a small overlay of
    this event's additions and removals, each accepted swap patches the
    four affected rows of a copy of ``indices``, and only the touched
    rows are re-sorted and checked.  ``indptr`` and ``degrees`` are
    shared with ``graph`` since swaps preserve degree.  Rows stay sorted
    and ``edge_array`` stays lexicographically sorted (moved rows are
    re-inserted in order), so every later draw hits exactly the vertex
    or edge a full rebuild of the graph would give.
    """
    m = graph.m
    if m < 2:
        return graph
    indptr, base = graph.indptr, graph.indices
    indices = base.copy()
    edges = graph.edge_array.copy()
    # Presence of the edges this event added or removed, over ``base``.
    overlay: Dict[Tuple[int, int], bool] = {}
    moved: Set[int] = set()  # positions in ``edges`` that were rewritten
    touched: Set[int] = set()  # vertices whose ``indices`` row was patched

    def present(u: int, v: int) -> bool:
        if (u, v) in overlay:
            return overlay[(u, v)]
        lo, hi = indptr[u], indptr[u + 1]
        pos = lo + int(base[lo:hi].searchsorted(v))
        return bool(pos < hi and base[pos] == v)

    def patch(v: int, old: int, new: int) -> None:
        row = indices[indptr[v]:indptr[v + 1]]
        row[row.tolist().index(old)] = new

    for _ in range(swaps):
        i, j = rng.integers(0, m, size=2).tolist()
        flip = int(rng.integers(0, 2))
        if i == j:
            continue
        a, b = edges[i].tolist()
        c, d = edges[j].tolist()
        if flip:
            c, d = d, c
        # Propose {a, d} and {c, b}.
        if a == d or c == b:
            continue
        e1 = (min(a, d), max(a, d))
        e2 = (min(c, b), max(c, b))
        if e1 == e2 or present(*e1) or present(*e2):
            continue
        overlay[(min(a, b), max(a, b))] = False
        overlay[(min(c, d), max(c, d))] = False
        overlay[e1] = True
        overlay[e2] = True
        edges[i] = e1
        edges[j] = e2
        patch(a, b, d)
        patch(b, a, c)
        patch(c, d, b)
        patch(d, c, a)
        moved.update((i, j))
        touched.update((a, b, c, d))
    if not moved:
        return graph
    _sort_rows(indptr, indices, touched)
    return Graph._from_csr(
        graph.n,
        indptr,
        indices,
        _reinsert_sorted(edges, moved, graph.n),
        graph.degrees,
        graph.name,
    )


def _sort_rows(indptr: np.ndarray, indices: np.ndarray, rows: Iterable[int]) -> None:
    """Sort the CSR ``rows`` of ``indices`` in place and check they are simple.

    Raises :class:`ProcessError` when a row holds a duplicate neighbour
    or its own vertex (a self-loop).  All rows are handled in one
    vectorised pass: a key ``row·n + neighbour`` sorts them together.
    """
    n = indptr.size - 1
    rows = np.sort(np.fromiter(rows, dtype=np.int64))
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    owner = np.repeat(rows, lengths)
    slots = np.arange(owner.size) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    keys = np.sort(owner * n + indices[slots])
    neighbours = keys - owner * n
    if np.any(neighbours == owner) or np.any(np.diff(keys) == 0):
        raise ProcessError(
            "churn produced an invalid graph: a rewired row has a self-loop "
            "or a duplicate neighbour"
        )
    indices[slots] = neighbours


def _reinsert_sorted(edges: np.ndarray, positions: Iterable[int], n: int) -> np.ndarray:
    """``edges`` in lexicographic order, given only the rows at ``positions`` are out of place."""
    keys = edges[:, 0] * n + edges[:, 1]
    moved = np.fromiter(positions, dtype=np.int64)
    moved = moved[np.argsort(keys[moved])]
    at = np.searchsorted(np.delete(keys, moved), keys[moved])
    order = np.insert(np.delete(np.arange(edges.shape[0]), moved), at, moved)
    return np.take(edges, order, axis=0)


class Substrate:
    """The current graph plus the epoch bookkeeping of its evolution.

    A substrate built without a plan (or via :func:`as_substrate` from a
    bare :class:`Graph`) is *static*: :attr:`epoch` stays 0 and
    :meth:`next_boundary` always returns ``None``, so every existing
    static-graph code path runs unchanged and unclipped.

    A substrate is single-run state: the engine advances it in place as
    the step counter crosses rewiring events.  Build a fresh one per run
    (cheap — construction does no rewiring) exactly like a fresh
    :class:`~repro.core.state.OpinionState`.
    """

    __slots__ = ("_graph", "_churn", "_epoch", "_rng", "_applied")

    def __init__(self, graph: Graph, churn: Optional[ChurnPlan] = None) -> None:
        self._graph = graph
        self._churn = churn
        self._epoch = 0
        # Private stream: rewiring must never consume engine randomness,
        # or scheduler draws would shift relative to a churn-free run.
        self._rng = make_rng(churn.seed) if churn is not None else None
        self._applied = 0  # rewiring events applied so far

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The current-epoch graph (immutable, swapped at boundaries)."""
        return self._graph

    @property
    def churn(self) -> Optional[ChurnPlan]:
        """The rewiring schedule, or ``None`` for a static substrate."""
        return self._churn

    @property
    def epoch(self) -> int:
        """Number of rewiring events applied so far (cache version key)."""
        return self._epoch

    @property
    def is_static(self) -> bool:
        """Whether the graph can still change at a future step."""
        if self._churn is None:
            return True
        events = self._churn.events
        return events is not None and self._applied >= events

    def next_boundary(self, step: int) -> Optional[int]:
        """The first step strictly after ``step`` at which the graph changes.

        Execution kernels clip scheduler blocks here: a block drawn at
        ``step`` may cover at most ``next_boundary(step) - step`` pairs,
        which keeps every kernel's ``draw_block`` sizes — and hence the
        shared RNG stream — identical on dynamic substrates.  ``None``
        means the substrate is static from ``step`` on.
        """
        if self.is_static:
            return None
        period = self._churn.period
        boundary = (step // period + 1) * period
        if self._churn.events is not None:
            last = self._churn.events * period
            if boundary > last:
                return None
        return boundary

    # ------------------------------------------------------------------
    # Mutation (engine-driven)
    # ------------------------------------------------------------------
    def advance_to(self, step: int) -> bool:
        """Apply every rewiring event scheduled at or before ``step``.

        Idempotent per step; returns ``True`` iff the graph object was
        swapped (callers then rebind states and rebuild scheduler
        caches).  Events are applied in order even when ``step`` jumps
        several boundaries at once, so the graph trajectory is a
        function of the plan alone, never of caller cadence.
        """
        if self._churn is None:
            return False
        due = step // self._churn.period
        if self._churn.events is not None:
            due = min(due, self._churn.events)
        swapped = False
        while self._applied < due:
            rewired = rewire_edges(self._graph, self._rng, self._churn.swaps)
            if rewired is not self._graph:
                # The epoch counter versions scheduler caches, so it
                # only advances when the topology really changed — an
                # all-attempts-rejected event keeps caches valid.
                self._graph = rewired
                self._epoch += 1
                swapped = True
            self._applied += 1
        return swapped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        plan = "static" if self._churn is None else repr(self._churn)
        return f"Substrate({self._graph.name}, epoch={self._epoch}, {plan})"


SubstrateLike = Union[Graph, Substrate]


def as_substrate(source: SubstrateLike) -> Substrate:
    """Coerce a :class:`Graph` (static) or pass a :class:`Substrate` through."""
    if isinstance(source, Substrate):
        return source
    if isinstance(source, Graph):
        return Substrate(source)
    raise ProcessError(f"cannot interpret {source!r} as a substrate")
