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
from bisect import insort
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Tuple, Union

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
    ``{a, d}, {c, b}`` — every vertex keeps its degree.  Attempt ``k``
    picks the edges of lexicographic rank ``i`` and ``j`` (in
    :attr:`~repro.graphs.graph.Graph.edge_array` order at event start,
    or the edge an earlier accepted swap of this event wrote at that
    rank) and an orientation bit.  It is skipped (not retried) when
    ``i == j`` or it would create a self-loop or a duplicate edge, so
    the procedure is a deterministic function of the generator state.
    Returns a new :class:`Graph` (or ``graph`` itself when every attempt
    was skipped); the input is never mutated.

    Cost is O(swaps·d) plus one copy of ``indices`` and one O(n) prefix
    sum.  All ``3·swaps`` draws come from one generator call, which
    yields the same values and leaves the generator in the same state as
    drawing ``integers(0, m, size=2)`` and ``integers(0, 2)`` per attempt.
    Each drawn rank is mapped to its edge through
    :attr:`~repro.graphs.graph.Graph.upper_offsets`, with no edge list.
    The rows of every drawn endpoint are gathered once as sorted Python
    lists; presence is a membership test on them and an accepted swap
    moves one entry in each of four rows.  The rows are then checked for
    self-loops and duplicate neighbours, written back to a copy of
    ``indices`` in one scatter and recounted into the new graph's
    ``upper_offsets``.  ``indptr`` and ``degrees`` are shared with
    ``graph`` since swaps preserve degree.  Rows stay sorted, so every
    later draw hits exactly the vertex or edge a full rebuild of the
    graph would give; the new graph builds its ``edge_array`` only when
    something reads it.
    """
    m = graph.m
    if m < 2 or swaps < 1:
        return graph
    n, indptr, base, upper = graph.n, graph.indptr, graph.indices, graph.upper_offsets
    draws = rng.integers(0, [m, m, 2] * swaps).reshape(swaps, 3)
    ranks = draws[:, :2].ravel()
    lower = upper.searchsorted(ranks, "right") - 1
    higher = base[indptr[lower + 1] - upper[lower + 1] + ranks]
    lower_list, higher_list = lower.tolist(), higher.tolist()
    # The current edge at each drawn rank; accepted swaps overwrite it.
    edges: Dict[int, Tuple[int, int]] = dict(zip(ranks.tolist(), zip(lower_list, higher_list)))
    # The rows of every vertex an attempt can reach: swaps only exchange
    # the endpoints of drawn edges, so no other row is read or written.
    verts = np.array(sorted({*lower_list, *higher_list}), dtype=np.int64)
    lengths = graph.degrees[verts]
    ends = np.cumsum(lengths)
    begins = ends - lengths  # where each row starts among the gathered slots
    slots = np.arange(ends[-1]) + np.repeat(indptr[verts] - begins, lengths)
    flat = base[slots].tolist()
    rows: Dict[int, List[int]] = {
        v: flat[begin:end] for v, begin, end in zip(verts.tolist(), begins.tolist(), ends.tolist())
    }
    changed = False
    for i, j, flip in draws.tolist():
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if flip:
            c, d = d, c
        # Propose {a, d} and {c, b}.  Two distinct ranks hold distinct
        # edges, so the two proposals never coincide.
        row_a, row_c = rows[a], rows[c]
        if a == d or c == b or d in row_a or b in row_c:
            continue
        row_b, row_d = rows[b], rows[d]
        row_a.remove(b)
        insort(row_a, d)
        row_b.remove(a)
        insort(row_b, c)
        row_c.remove(d)
        insort(row_c, b)
        row_d.remove(c)
        insort(row_d, a)
        edges[i] = (a, d) if a < d else (d, a)
        edges[j] = (c, b) if c < b else (b, c)
        changed = True
    if not changed:
        return graph
    neighbours = np.fromiter(chain.from_iterable(rows.values()), np.int64, slots.size)
    owner = np.repeat(verts, lengths)
    _check_rows(n, owner, neighbours)
    indices = base.copy()
    indices[slots] = neighbours
    counts = np.diff(upper)
    counts[verts] = np.add.reduceat(neighbours > owner, begins)
    rewired_upper = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=rewired_upper[1:])
    return Graph._from_csr(n, indptr, indices, graph.degrees, rewired_upper, graph.name)


def _check_rows(n: int, owner: np.ndarray, neighbours: np.ndarray) -> None:
    """Check CSR rows, flattened in vertex order, are sorted and simple.

    ``neighbours[k]`` is a neighbour of ``owner[k]``.  Raises
    :class:`ProcessError` when a row holds its own vertex (a self-loop),
    repeats a neighbour or is out of order.
    """
    keys = owner * n + neighbours
    if (neighbours == owner).any() or (np.diff(keys) <= 0).any():
        raise ProcessError(
            "churn produced an invalid graph: a rewired row has a self-loop "
            "or a duplicate neighbour, or is out of order"
        )


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
