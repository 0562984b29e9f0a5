"""Interaction schedulers: who talks to whom at each asynchronous step.

The paper defines two asynchronous selection rules (§1, "Definition of
process"):

* **vertex process** — a uniform vertex ``v`` then a uniform neighbour
  ``w`` of ``v``; ``P(v chooses w) = 1 / (n · d(v))``, eq. (2);
* **edge process** — a uniform edge then a uniform endpoint as ``v``;
  ``P(v chooses w) = 1 / 2m``.

Schedulers draw interaction pairs in blocks to amortize RNG overhead;
the simulation engines consume one pair per step.

Every scheduler is built over a :class:`~repro.core.substrate.Substrate`
(a bare :class:`Graph` is coerced to a static one) and caches the
per-epoch CSR arrays it samples from.  On a dynamic substrate the
execution kernels call :meth:`rebuild` at every epoch boundary; drawing
from a cache whose epoch no longer matches the substrate raises a loud
:class:`~repro.errors.ProcessError` — silently sampling a dead topology
was a latent bug of the construction-time snapshots this replaces.

Beyond the paper's two neutral rules, this module ships two *probe*
schedulers for the ROADMAP's adversarial scenarios —
:class:`BiasedScheduler` and :class:`AdversarialScheduler`.  Both read
the live :class:`~repro.core.state.OpinionState` they are bound to, and
both are deterministic functions of (seeded RNG, state): since every
execution kernel draws whole scheduler blocks at identical step counts
against identical states, state-dependent schedulers keep the
bit-for-bit kernel-equivalence guarantee (see ``docs/scenarios.md``).
"""

from __future__ import annotations

import math
from typing import Optional, Protocol, Tuple

import numpy as np

from repro.core.state import OpinionState
from repro.core.substrate import Substrate, SubstrateLike, as_substrate
from repro.errors import ProcessError
from repro.graphs.graph import Graph


class Scheduler(Protocol):
    """Draws blocks of (updating vertex, observed neighbour) pairs."""

    graph: Graph
    substrate: Substrate

    def draw_block(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return arrays ``(v, w)`` of ``size`` interaction pairs."""
        ...  # pragma: no cover - protocol

    def rebuild(self) -> None:
        """Refresh per-epoch caches after the substrate crossed a boundary."""
        ...  # pragma: no cover - protocol


class _EpochCached:
    """Shared epoch bookkeeping: cache versioning plus the staleness guard."""

    def __init__(self, source: SubstrateLike) -> None:
        self.substrate = as_substrate(source)
        self.rebuild()

    @property
    def graph(self) -> Graph:
        """The substrate's current-epoch graph."""
        return self.substrate.graph

    def rebuild(self) -> None:
        """Re-snapshot the sampling arrays from the current epoch's graph."""
        self._rebuild(self.substrate.graph)
        self._epoch = self.substrate.epoch

    def _rebuild(self, graph: Graph) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _check_epoch(self) -> None:
        """Refuse to sample a topology the substrate already replaced."""
        if self._epoch != self.substrate.epoch:
            raise ProcessError(
                f"stale scheduler cache: {type(self).__name__} snapshotted "
                f"epoch {self._epoch} but the substrate is at epoch "
                f"{self.substrate.epoch}; call rebuild() after every "
                f"substrate mutation (the execution kernels do this at "
                f"epoch boundaries)"
            )


class _VertexProcess(_EpochCached):
    """Shared neighbour draw of the schedulers built on the vertex process."""

    def _rebuild(self, graph: Graph) -> None:
        degrees = graph.degrees
        if graph.m == 0 or np.any(degrees == 0):
            raise ProcessError("the vertex process needs every vertex to have a neighbour")
        self._cached = graph
        self._degrees = degrees
        # The common degree of a regular graph, else None.
        self._degree = int(degrees[0]) if graph.is_regular() else None

    def _neighbours(self, rng: np.random.Generator, v: np.ndarray) -> np.ndarray:
        """A uniform neighbour of each vertex of ``v``: its CSR row at a
        uniform offset below its degree.

        On a regular graph the offsets are drawn with the scalar bound
        ``d``, about three times faster than the array bound
        ``degrees[v]``. numpy's ``Generator.integers`` maps each bound
        through the same bounded draw whether it is given as a scalar or
        per element, so the offsets and the generator state it leaves
        are the same (``tests/test_draw_pins.py``).
        """
        graph = self._cached
        high = self._degrees[v] if self._degree is None else self._degree
        offsets = rng.integers(0, high, size=v.size)
        return graph.indices[graph.indptr[v] + offsets]


class VertexScheduler(_VertexProcess):
    """The asynchronous vertex process: uniform vertex, uniform neighbour."""

    def draw_block(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        self._check_epoch()
        v = rng.integers(0, self._cached.n, size=size)
        return v, self._neighbours(rng, v)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VertexScheduler({self.graph.name})"


class EdgeScheduler(_EpochCached):
    """The asynchronous edge process: uniform edge, uniform endpoint."""

    def _rebuild(self, graph: Graph) -> None:
        if graph.m == 0:
            raise ProcessError("the edge process needs at least one edge")
        self._cached = graph
        # Edge i's endpoints at 2i and 2i + 1.
        self._endpoints = graph.edge_array.ravel()

    def draw_block(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        self._check_epoch()
        edge_ids = rng.integers(0, self._cached.m, size=size)
        sides = rng.integers(0, 2, size=size)
        # One flat gather per endpoint: side s of edge i is at 2i + s,
        # and the other endpoint at (2i + s) ^ 1.
        at = edge_ids
        at <<= 1
        at += sides
        v = self._endpoints.take(at)
        at ^= 1
        w = self._endpoints.take(at)
        return v, w

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeScheduler({self.graph.name})"


class _StateBound(_VertexProcess):
    """A vertex-process scheduler that reads the engine's live state."""

    def __init__(self, source: SubstrateLike, state: OpinionState) -> None:
        self.state = state
        super().__init__(source)
        if state.n != self.substrate.graph.n:
            raise ProcessError(
                f"{type(self).__name__} was given a state over {state.n} "
                f"vertices but its graph has {self.substrate.graph.n}; bind "
                f"it to the engine's live state on the same graph"
            )


class BiasedScheduler(_StateBound):
    """A vertex process whose updating vertex is biased toward extremes.

    The updating vertex ``v`` is drawn with probability proportional to
    ``1 + bias · dist(v)`` where ``dist(v) ∈ [0, 1]`` is ``X_v``'s
    normalized distance from the centre of the current opinion range;
    the observed neighbour stays uniform.  ``bias > 0`` *targets*
    extreme holders (updating them erodes the extreme classes faster);
    ``bias < 0`` (down to -1) shelters them, starving the contraction
    argument of Lemma 4 — the regime E19 probes.

    The scheduler must be bound to the engine's live state; it reads the
    opinions at every ``draw_block``, i.e. the bias reacts at block
    granularity.  All randomness comes from the engine generator, so
    draws are deterministic given the seed — and identical across
    execution kernels, which draw blocks at identical steps against
    identical states.
    """

    def __init__(
        self, source: SubstrateLike, state: OpinionState, bias: float = 1.0
    ) -> None:
        if not math.isfinite(bias) or bias < -1.0:
            raise ProcessError(f"bias must be finite and >= -1 (got {bias}): "
                               "weights 1 + bias·dist must stay non-negative")
        self.bias = float(bias)
        super().__init__(source, state)

    def draw_block(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        self._check_epoch()
        graph = self._cached
        state = self.state
        lo = state.min_opinion
        hi = state.max_opinion
        if hi == lo or self.bias == 0.0:
            v = rng.integers(0, graph.n, size=size)
        else:
            values = state.values
            # dist(v) = |X_v - centre| / (half range), in [0, 1].
            dist = np.abs(2.0 * values - (lo + hi)) / float(hi - lo)
            weights = 1.0 + self.bias * dist
            p = weights / weights.sum()
            v = rng.choice(graph.n, size=size, p=p)
        return v, self._neighbours(rng, v)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BiasedScheduler({self.graph.name}, bias={self.bias})"


class AdversarialScheduler(_StateBound):
    """A worst-case probe: interior vertices are shown extreme neighbours.

    Starts from a plain vertex-process draw; then, independently with
    probability ``strength`` per pair, replaces the observed neighbour
    ``w`` by the neighbour of ``v`` whose opinion is *farthest from the
    centre* of the current range (first such neighbour on ties).  Under
    DIV this maximally re-inflates the range — each redirected
    interaction pulls ``v`` toward an extreme — making it the natural
    adversary for the extreme-contraction stage (Lemma 4 / E13).

    Like :class:`BiasedScheduler` this is bound to the live state and
    fully deterministic given the engine seed: the redirect decision
    consumes engine randomness, the redirect target is a deterministic
    function of the state, and every kernel sees the same state at every
    block draw.

    The redirect targets of a whole block are found in one vectorized
    pass — a segmented argmax over the redirected vertices' CSR rows —
    so the tie rule is exactly "first neighbour in CSR order" on every
    graph, regular or not.  Targets are read from the state as it stands
    when the block is drawn, not when each pair is applied.
    """

    def __init__(
        self, source: SubstrateLike, state: OpinionState, strength: float = 0.5
    ) -> None:
        if not 0.0 <= strength <= 1.0:
            raise ProcessError(f"strength must be in [0, 1], got {strength}")
        self.strength = float(strength)
        super().__init__(source, state)

    def draw_block(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        self._check_epoch()
        graph = self._cached
        v = rng.integers(0, graph.n, size=size)
        w = self._neighbours(rng, v)
        if self.strength > 0.0:
            redirect = rng.random(size) < self.strength
            hits = np.flatnonzero(redirect)
            if hits.size:
                w[hits] = self._farthest_neighbours(graph, v[hits])
        return v, w

    def _farthest_neighbours(self, graph: Graph, vertices: np.ndarray) -> np.ndarray:
        """Each vertex's farthest-from-centre neighbour, first in CSR order on ties.

        One segmented argmax over the concatenated CSR rows: the rows'
        extremities are reduced per row with ``maximum.reduceat``, then
        ``minimum.reduceat`` over the positions holding that maximum
        picks each row's first one — ``argmax``'s tie rule.
        """
        state = self.state
        centre = state.min_opinion + state.max_opinion
        lengths = self._degrees[vertices]
        ends = np.cumsum(lengths)
        row_start = ends - lengths
        # flat[row_start[r] + j] is the CSR position of row r's j-th neighbour.
        flat = np.arange(ends[-1]) + np.repeat(graph.indptr[vertices] - row_start, lengths)
        extremity = np.abs(2 * state.values[graph.indices[flat]] - centre)
        row_max = np.maximum.reduceat(extremity, row_start)
        is_max = extremity == np.repeat(row_max, lengths)
        # Non-maximal positions get a sentinel past every CSR position.
        first = np.minimum.reduceat(np.where(is_max, flat, graph.indices.size), row_start)
        return graph.indices[first]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AdversarialScheduler({self.graph.name}, strength={self.strength})"


def make_scheduler(
    source: SubstrateLike,
    process: str,
    *,
    state: Optional[OpinionState] = None,
    strength: Optional[float] = None,
) -> Scheduler:
    """Build the scheduler for a process name.

    ``"vertex"`` and ``"edge"`` are the paper's neutral rules; they need
    no state and refuse ``strength``.  ``"biased"`` and ``"adversarial"``
    are the scenario probes; they require ``state`` (the engine's live
    state, over the same vertex set as ``source``) and accept
    ``strength`` — the bias coefficient for ``"biased"``, the redirect
    probability for ``"adversarial"``.
    """
    if process in ("vertex", "edge"):
        if strength is not None:
            raise ProcessError(
                f"the {process!r} process is one of the paper's neutral rules "
                f"and takes no strength (got {strength})"
            )
        return VertexScheduler(source) if process == "vertex" else EdgeScheduler(source)
    if process in ("biased", "adversarial"):
        if state is None:
            raise ProcessError(
                f"the {process!r} scheduler reads the live opinion state; "
                f"pass state=..."
            )
        if process == "biased":
            kwargs = {} if strength is None else {"bias": strength}
            return BiasedScheduler(source, state, **kwargs)
        kwargs = {} if strength is None else {"strength": strength}
        return AdversarialScheduler(source, state, **kwargs)
    raise ProcessError(
        f"unknown process {process!r}; expected 'vertex', 'edge', "
        f"'biased' or 'adversarial'"
    )
