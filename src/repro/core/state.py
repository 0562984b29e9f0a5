"""Opinion state with O(1) incremental bookkeeping.

:class:`OpinionState` holds the opinion vector ``X`` together with every
aggregate the paper's analysis tracks, updated in O(1) per opinion
change:

* ``counts[i]`` — ``N_i(t) = |A_i(t)|``, the number of holders of ``i``;
* ``degree_counts[i]`` — ``d(A_i(t))``, so ``π(A_i(t))`` is O(1);
* ``S(t) = Σ_v X_v`` — the edge-process total weight (Lemma 3(i));
* ``Σ_v d(v) X_v`` — giving ``Z(t) = n Σ_v π_v X_v`` (Lemma 3(ii));
* the support size and the current extreme opinions ``s`` and ``ℓ``.

The state is shared by DIV and all baseline dynamics; each dynamic calls
:meth:`apply` for every opinion change.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidOpinionsError
from repro.graphs.graph import Graph

#: Shared zero-length result for empty batched queries.
_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_I64.setflags(write=False)


def _exact_degree_counts(
    shifted: np.ndarray, degrees: np.ndarray, width: int
) -> np.ndarray:
    """Per-opinion total degree ``d(A_i)`` in exact int64 arithmetic."""
    degree_counts = np.zeros(width, dtype=np.int64)
    np.add.at(degree_counts, shifted, degrees.astype(np.int64, copy=False))
    return degree_counts


class OpinionState:
    """Mutable opinion assignment on a graph with cached aggregates.

    Parameters
    ----------
    graph:
        The interaction topology.
    opinions:
        Integer opinion per vertex (length ``graph.n``). Values may be any
        integers; internally they are offset by the initial minimum.
        Dynamics may never move a vertex outside the initial range
        ``[min X(0), max X(0)]`` (true for DIV, pull, push, median,
        best-of-k and load balancing); :meth:`apply` enforces this.
    frozen:
        Optional zealot mask: either a boolean array of length
        ``graph.n`` or a sequence of vertex ids.  Frozen (stubborn)
        vertices never change opinion — :meth:`apply` is a silent no-op
        on them and :meth:`apply_block` drops their rows — but they are
        still observed by their neighbours, which is the standard
        zealot model.  The mask is immutable for the state's lifetime
        (see ``docs/scenarios.md``).
    """

    __slots__ = (
        "graph",
        "_values",
        "_offset",
        "_counts",
        "_degree_counts",
        "_sum",
        "_degree_sum",
        "_support_size",
        "_min_idx",
        "_max_idx",
        "_weights_dirty",
        "_frozen",
    )

    def __init__(
        self,
        graph: Graph,
        opinions: Sequence[int],
        frozen: Optional[Sequence[int]] = None,
    ) -> None:
        values = np.asarray(opinions, dtype=np.int64).copy()
        if values.shape != (graph.n,):
            raise InvalidOpinionsError(
                f"opinions must have shape ({graph.n},), got {values.shape}"
            )
        self.graph = graph
        self._values = values
        self._offset = int(values.min())
        width = int(values.max()) - self._offset + 1
        shifted = values - self._offset
        self._counts = np.bincount(shifted, minlength=width).astype(np.int64)
        degrees = graph.degrees
        # Integer accumulation: a float64-weighted bincount loses exactness
        # once a degree-weighted sum exceeds 2^53, breaking the O(1) exact
        # aggregates the martingale checks rely on.
        self._degree_counts = _exact_degree_counts(shifted, degrees, width)
        self._sum = int(values.sum())
        self._degree_sum = int((values * degrees).sum())
        self._support_size = int(np.count_nonzero(self._counts))
        self._min_idx = 0
        self._max_idx = width - 1
        self._weights_dirty = False
        self._frozen: Optional[np.ndarray] = None
        if frozen is not None:
            mask = np.asarray(frozen)
            if mask.dtype != np.bool_:
                mask = np.zeros(graph.n, dtype=np.bool_)
                idx = np.asarray(frozen, dtype=np.int64)
                if idx.size and (idx.min() < 0 or idx.max() >= graph.n):
                    raise InvalidOpinionsError(
                        f"frozen vertex ids must lie in [0, {graph.n - 1}]"
                    )
                mask[idx] = True
            elif mask.shape != (graph.n,):
                raise InvalidOpinionsError(
                    f"frozen mask must have shape ({graph.n},), got {mask.shape}"
                )
            else:
                mask = mask.copy()
            if mask.any():
                mask.setflags(write=False)
                self._frozen = mask

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.graph.n

    @property
    def values(self) -> np.ndarray:
        """The opinion vector (live read-only view)."""
        view = self._values.view()
        view.setflags(write=False)
        return view

    def value(self, v: int) -> int:
        """Opinion of vertex ``v``."""
        return int(self._values[v])

    def count(self, opinion: int) -> int:
        """``N_i(t)`` — the number of vertices holding ``opinion``."""
        idx = opinion - self._offset
        if not 0 <= idx < self._counts.size:
            return 0
        return int(self._counts[idx])

    def degree_count(self, opinion: int) -> int:
        """``d(A_i(t))`` — total degree of the holders of ``opinion``."""
        self._refresh_weights()
        idx = opinion - self._offset
        if not 0 <= idx < self._degree_counts.size:
            return 0
        return int(self._degree_counts[idx])

    def stationary_measure(self, opinion: int) -> float:
        """``π(A_i(t)) = d(A_i(t)) / 2m`` — the walk measure of an opinion."""
        return self.degree_count(opinion) / (2.0 * self.graph.m)

    def holders(self, opinion: int) -> np.ndarray:
        """Vertices currently holding ``opinion`` (O(n) scan)."""
        return np.flatnonzero(self._values == opinion)

    @property
    def support_size(self) -> int:
        """Number of distinct opinions currently present."""
        return self._support_size

    def support(self) -> List[int]:
        """Sorted list of opinions currently present."""
        present = np.flatnonzero(self._counts)
        return [int(i) + self._offset for i in present]

    @property
    def min_opinion(self) -> int:
        """The smallest opinion present, ``s`` in the paper."""
        self._advance_extremes()
        return self._min_idx + self._offset

    @property
    def max_opinion(self) -> int:
        """The largest opinion present, ``ℓ`` in the paper."""
        self._advance_extremes()
        return self._max_idx + self._offset

    @property
    def range_width(self) -> int:
        """``ℓ - s`` — zero at consensus, one in the final stage."""
        self._advance_extremes()
        return self._max_idx - self._min_idx

    @property
    def is_consensus(self) -> bool:
        """Whether all vertices hold the same opinion."""
        return self._support_size == 1

    @property
    def is_two_adjacent(self) -> bool:
        """Whether at most two consecutive opinions remain (Theorem 1's stage)."""
        return self._support_size == 1 or (
            self._support_size == 2 and self.range_width == 1
        )

    # ------------------------------------------------------------------
    # Aggregates from the paper
    # ------------------------------------------------------------------
    @property
    def total_sum(self) -> int:
        """``S(t) = Σ_v X_v(t)`` — the edge-process total weight."""
        self._refresh_weights()
        return self._sum

    @property
    def degree_weighted_sum(self) -> int:
        """``Σ_v d(v) X_v(t) = 2m · Σ_v π_v X_v(t)``."""
        self._refresh_weights()
        return self._degree_sum

    def mean(self) -> float:
        """Simple average opinion ``S(t) / n``."""
        self._refresh_weights()
        return self._sum / self.graph.n

    def weighted_mean(self) -> float:
        """Degree-weighted average ``Σ_v π_v X_v(t) = Z(t) / n``."""
        self._refresh_weights()
        return self._degree_sum / (2.0 * self.graph.m)

    def total_weight(self, process: str) -> float:
        """``W(t)``: ``S(t)`` for the edge process, ``Z(t)`` for the vertex process."""
        self._refresh_weights()
        if process == "edge":
            return float(self._sum)
        if process == "vertex":
            return self.graph.n * self.weighted_mean()
        raise InvalidOpinionsError(f"unknown process {process!r}")

    def counts_dict(self) -> Dict[int, int]:
        """Mapping ``opinion -> N_i(t)`` over the present opinions."""
        present = np.flatnonzero(self._counts)
        return {int(i) + self._offset: int(self._counts[i]) for i in present}

    def consensus_value(self) -> Optional[int]:
        """The unanimous opinion, or ``None`` if not at consensus."""
        if not self.is_consensus:
            return None
        return self.min_opinion

    # ------------------------------------------------------------------
    # Zealots (frozen vertices)
    # ------------------------------------------------------------------
    @property
    def has_frozen(self) -> bool:
        """Whether any vertex is frozen (zealot/stubborn)."""
        return self._frozen is not None

    @property
    def frozen_mask(self) -> Optional[np.ndarray]:
        """Read-only boolean zealot mask, or ``None`` when all are free."""
        return self._frozen

    def is_frozen(self, v: int) -> bool:
        """Whether vertex ``v`` refuses opinion writes."""
        return self._frozen is not None and bool(self._frozen[v])

    def frozen_vertices(self) -> np.ndarray:
        """The frozen vertex ids (empty array when none)."""
        if self._frozen is None:
            return _EMPTY_I64
        return np.flatnonzero(self._frozen)

    def frozen_support(self) -> List[int]:
        """Sorted distinct opinions pinned by frozen vertices.

        Frozen opinions never change, so this is a run invariant — the
        reachable support floor is ``max(1, len(frozen_support()))``,
        which :func:`repro.core.stopping.frozen_consensus` turns into a
        kernel-reconstructible stopping condition.
        """
        if self._frozen is None:
            return []
        return sorted(int(x) for x in np.unique(self._values[self._frozen]))

    def writable(self, vertices: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Restrict a proposal mask to positions whose target accepts writes.

        ``mask[i]`` stays true iff it was true and ``vertices[i]`` is not
        frozen.  With no zealots the input mask is returned unchanged;
        with zealots a new array is returned, never a mutated input.
        """
        if self._frozen is None:
            return mask
        return mask & ~self._frozen[vertices]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, v: int, new_value: int) -> int:
        """Set vertex ``v`` to ``new_value``, updating all aggregates.

        Returns the previous value. Raises if ``new_value`` falls outside
        the initial opinion range (no dynamic in this package can produce
        such a value; hitting this indicates an engine bug).

        A frozen (zealot) vertex is a silent no-op: the call returns the
        unchanged current value.  Dynamics report such a step as "no
        opinion change" (they consult :meth:`is_frozen` /
        :meth:`writable` first), which keeps change counters and change
        observers identical across kernels.
        """
        old_value = int(self._values[v])
        if new_value == old_value:
            return old_value
        if self._frozen is not None and self._frozen[v]:
            return old_value
        new_idx = new_value - self._offset
        if not 0 <= new_idx < self._counts.size:
            raise InvalidOpinionsError(
                f"value {new_value} outside the initial opinion range "
                f"[{self._offset}, {self._offset + self._counts.size - 1}]"
            )
        old_idx = old_value - self._offset

        self._values[v] = new_value
        self._counts[old_idx] -= 1
        if self._counts[old_idx] == 0:
            self._support_size -= 1
        if self._counts[new_idx] == 0:
            self._support_size += 1
        self._counts[new_idx] += 1
        # The extreme pointers advance inward lazily, but a legal value
        # outside the currently occupied window (the dynamics here never
        # produce one, external callers may) must widen it eagerly.
        if new_idx < self._min_idx:
            self._min_idx = new_idx
        elif new_idx > self._max_idx:
            self._max_idx = new_idx
        if self._weights_dirty:
            # Weight aggregates are stale anyway; the next read rebuilds
            # them from the opinion vector (see apply_block).
            return old_value
        degree = int(self.graph.degrees[v])
        self._degree_counts[old_idx] -= degree
        self._degree_counts[new_idx] += degree
        delta = new_value - old_value
        self._sum += delta
        self._degree_sum += delta * degree
        return old_value

    def apply_block(
        self,
        vertices: np.ndarray,
        new_values: np.ndarray,
        defer_weights: bool = False,
    ) -> np.ndarray:
        """Apply a batch of single-vertex updates in one numpy pass.

        ``vertices`` may not contain a vertex twice (each vertex is
        written at most once): the block kernel commits only the last
        write of each vertex in a block. Under that precondition the
        final state — values, counts, degree counts, sums, support size —
        is bit-identical to applying the updates one at a time through
        :meth:`apply`, since every update's old value is the pre-batch
        value. Returns the previous values.

        With ``defer_weights=True`` the degree-weighted aggregates
        (``d(A_i)``, ``S(t)``, ``Σ_v d(v) X_v``) are not maintained
        incrementally; the next read rebuilds them exactly from the
        opinion vector. The block kernel defers whenever no observer can
        read weights mid-run, halving the batched bookkeeping on its hot
        path without changing any observable value.

        Like :meth:`apply`, raises when any new value falls outside the
        initial opinion range.  Rows targeting frozen (zealot) vertices
        are dropped before committing, mirroring the scalar no-op — the
        block kernel masks frozen targets while it solves a block, so in
        engine runs this filter never triggers.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        new_values = np.asarray(new_values, dtype=np.int64)
        if self._frozen is not None and vertices.size:
            keep = ~self._frozen[vertices]
            if not keep.all():
                vertices = vertices[keep]
                new_values = new_values[keep]
        if vertices.size == 0:
            return _EMPTY_I64
        # mode="clip" skips numpy's bounds check; scheduler-drawn
        # vertices are always in range.
        old_values = self._values.take(vertices, mode="clip")
        new_idx = new_values - self._offset
        new_lo = int(new_idx.min())
        new_hi = int(new_idx.max())
        if new_lo < 0 or new_hi >= self._counts.size:
            raise InvalidOpinionsError(
                f"value(s) outside the initial opinion range "
                f"[{self._offset}, {self._offset + self._counts.size - 1}]"
            )
        old_idx = old_values - self._offset

        self._values[vertices] = new_values
        counts = self._counts
        np.subtract.at(counts, old_idx, 1)
        np.add.at(counts, new_idx, 1)
        self._support_size = int(np.count_nonzero(counts))
        # Widen the lazy extreme window for legal values outside it,
        # mirroring the scalar apply path.
        if new_lo < self._min_idx:
            self._min_idx = new_lo
        if new_hi > self._max_idx:
            self._max_idx = new_hi
        if defer_weights or self._weights_dirty:
            self._weights_dirty = True
            return old_values
        degrees = self.graph.degrees[vertices].astype(np.int64, copy=False)
        np.subtract.at(self._degree_counts, old_idx, degrees)
        np.add.at(self._degree_counts, new_idx, degrees)
        value_delta = new_values - old_values
        self._sum += int(value_delta.sum())
        self._degree_sum += int((value_delta * degrees).sum())
        return old_values

    def support_range_timeline(
        self, old_values: np.ndarray, new_values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Aggregate trajectories of a pending sequence of changes.

        Given the per-change old and new opinions of a sequence that has
        *not* been applied yet (in step order, every entry an actual
        change, each old value the changed vertex's opinion just before
        its change), return two aligned arrays: the support size and the
        range width ``ℓ - s`` the state would have *after* each change.
        This is how the block kernel reconstructs the exact step at which
        a stopping condition first fires inside a block it is about to
        commit in one pass (see :class:`~repro.core.stopping.StopTerm`).

        Cost is O(changes × current range width): the per-change count
        deltas are scattered into a dense ``(width, changes)`` matrix
        over the currently populated window and cumulatively summed
        along each row; support and width then reduce down the short
        axis. The matrix is allocated per call and released with it, so
        a state a caller keeps holds no block-sized buffers.
        """
        self._advance_extremes()
        old_idx = np.asarray(old_values, dtype=np.int64) - self._offset
        new_idx = np.asarray(new_values, dtype=np.int64) - self._offset
        changes = old_idx.size
        if changes == 0:
            return _EMPTY_I64, _EMPTY_I64
        if int(new_idx.min()) < 0 or int(new_idx.max()) >= self._counts.size:
            raise InvalidOpinionsError(
                f"value(s) outside the initial opinion range "
                f"[{self._offset}, {self._offset + self._counts.size - 1}]"
            )
        lo = min(self._min_idx, int(old_idx.min()), int(new_idx.min()))
        hi = max(self._max_idx, int(old_idx.max()), int(new_idx.max()))
        width = hi - lo + 1
        columns = np.arange(changes)
        delta = np.zeros((width, changes), dtype=np.int64)
        # Per column the two touched rows are distinct (old != new) and
        # columns are distinct, so plain flat assignments never collide.
        flat = delta.reshape(-1)
        flat[(old_idx - lo) * changes + columns] = -1
        flat[(new_idx - lo) * changes + columns] = 1
        np.cumsum(delta, axis=1, out=delta)
        delta += self._counts[lo : hi + 1, None]
        present = delta > 0
        support_sizes = present.sum(axis=0, dtype=np.int64)
        # width = (last present row) - (first present row)
        rank = np.arange(width, dtype=np.int64)[:, None]
        last = np.where(present, rank, 0).max(axis=0)
        range_widths = last - np.where(present, rank, width).min(axis=0)
        return support_sizes, range_widths

    def range_width_after(self, old_values: np.ndarray, new_values: np.ndarray) -> int:
        """The range width ``ℓ - s`` after a pending sequence of changes.

        Takes the same per-change old and new opinions as
        :meth:`support_range_timeline`, every value within the initial
        opinion range, but returns only the end state's width, from the
        net count change of the whole sequence: two ``bincount`` calls,
        O(changes + k). The block kernel tests a range-decided stop term
        (:attr:`~repro.core.stopping.StopTerm.range_ceiling`) on it,
        since no block rule widens the range.
        """
        size = self._counts.size
        old_idx = np.asarray(old_values, dtype=np.int64) - self._offset
        new_idx = np.asarray(new_values, dtype=np.int64) - self._offset
        counts = self._counts + np.bincount(new_idx, minlength=size)
        counts -= np.bincount(old_idx, minlength=size)
        present = np.flatnonzero(counts)
        return int(present[-1] - present[0])

    def min_changes_to_support(self, target: int) -> int:
        """Lower bound on single-vertex changes before support can reach
        ``target``.

        Shrinking the support by one requires emptying an entire opinion
        class, i.e. at least as many changes as that class has members;
        the cheapest route to ``target`` empties the smallest classes
        first. (Changes may also *repopulate* an empty intermediate
        class, which only pushes the support further away, so this bound
        is safe.) The block kernel uses it to skip stop-condition
        timeline reconstruction while a block provably cannot fire.
        """
        excess = self._support_size - target
        if excess <= 0:
            return 0
        counts = self._counts[self._counts > 0]
        excess = min(excess, counts.size - 1)
        if excess <= 0:
            return 0
        return int(np.partition(counts, excess - 1)[:excess].sum())

    def copy(self) -> "OpinionState":
        """An independent copy sharing the (immutable) graph.

        Clones the internal caches field by field instead of rebuilding
        through the constructor: re-deriving ``_offset`` and the counts
        width from the *current* values would narrow the valid opinion
        range once an evolved state's extreme classes have emptied, and
        :meth:`apply` documents the whole *initial* range as legal.  The
        copy therefore preserves the initial-range window, the deferred
        weight flag and the lazy extreme pointers exactly.
        """
        clone = object.__new__(OpinionState)
        clone.graph = self.graph
        clone._values = self._values.copy()
        clone._offset = self._offset
        clone._counts = self._counts.copy()
        clone._degree_counts = self._degree_counts.copy()
        clone._sum = self._sum
        clone._degree_sum = self._degree_sum
        clone._support_size = self._support_size
        clone._min_idx = self._min_idx
        clone._max_idx = self._max_idx
        clone._weights_dirty = self._weights_dirty
        # The mask is immutable (read-only array), so sharing is safe.
        clone._frozen = self._frozen
        return clone

    def rebind_graph(self, graph: Graph) -> None:
        """Swap the topology underneath the opinions (same vertex set).

        Called by the execution kernels when the
        :class:`~repro.core.substrate.Substrate` crosses an epoch
        boundary.  Opinions, counts, support and extremes are untouched
        (churn moves edges, not vertices); the degree-weighted
        aggregates are marked dirty and rebuilt exactly against the new
        degrees on the next read — the same deferred-rebuild mechanism
        :meth:`apply_block` uses, so the swap is exact and O(1).
        """
        if graph.n != self.graph.n:
            raise InvalidOpinionsError(
                f"rebind_graph needs an equal vertex set: "
                f"{self.graph.n} vertices -> {graph.n}"
            )
        self.graph = graph
        self._weights_dirty = True

    # ------------------------------------------------------------------
    # Flat-buffer interface for compiled execution kernels
    # ------------------------------------------------------------------
    def kernel_buffers(self) -> Tuple[np.ndarray, np.ndarray, int, int, int, int]:
        """Live flat buffers for a compiled execution kernel.

        Returns ``(values, counts, offset, min_idx, max_idx,
        support_size)`` where ``values`` and ``counts`` are the state's
        *own* int64 arrays (mutations are visible immediately) and the
        three scalars describe the support bookkeeping with the extreme
        pointers advanced past emptied classes.

        This is the approved mutation channel for kernels that run the
        update recurrence over flat arrays (see
        :mod:`repro.core.kernels.compiled`): a kernel may update
        ``values``/``counts`` in place provided it maintains the same
        invariants :meth:`apply` does, and it MUST report the final
        scalars back through :meth:`kernel_commit` before anything else
        reads the state.  The degree-weighted aggregates are *not* part
        of the contract — they are rebuilt exactly on the next read,
        like the deferred path of :meth:`apply_block`.
        """
        self._advance_extremes()
        return (
            self._values,
            self._counts,
            self._offset,
            self._min_idx,
            self._max_idx,
            self._support_size,
        )

    def kernel_commit(
        self, support_size: int, min_idx: int, max_idx: int, mutated: bool
    ) -> None:
        """Re-sync scalar caches after a kernel mutated the flat buffers.

        ``mutated=True`` marks the degree-weighted aggregates dirty so
        the next read rebuilds them exactly from the opinion vector
        (bit-identical to incremental maintenance, see
        :meth:`_refresh_weights`); ``False`` leaves a clean state clean.
        """
        self._support_size = int(support_size)
        self._min_idx = int(min_idx)
        self._max_idx = int(max_idx)
        if mutated:
            self._weights_dirty = True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _refresh_weights(self) -> None:
        """Rebuild the deferred weight aggregates from the opinion vector.

        Exact-integer recomputation, so a deferred-then-read aggregate is
        bit-identical to one maintained incrementally; O(n), amortized
        over the whole deferred stretch.
        """
        if not self._weights_dirty:
            return
        values = self._values
        degrees = self.graph.degrees
        shifted = values - self._offset
        self._degree_counts = _exact_degree_counts(
            shifted, degrees, self._counts.size
        )
        self._sum = int(values.sum())
        self._degree_sum = int((values * degrees).sum())
        self._weights_dirty = False

    def _advance_extremes(self) -> None:
        """Lazily move the extreme pointers past emptied opinion classes."""
        counts = self._counts
        lo, hi = self._min_idx, self._max_idx
        while counts[lo] == 0 and lo < hi:
            lo += 1
        while counts[hi] == 0 and hi > lo:
            hi -= 1
        self._min_idx, self._max_idx = lo, hi

    def check_consistency(self) -> None:
        """Recompute every aggregate from scratch and assert equality.

        Used by the property-based test-suite; O(n + k).
        """
        self._refresh_weights()
        values = self._values
        shifted = values - self._offset
        counts = np.bincount(shifted, minlength=self._counts.size)
        assert np.array_equal(counts, self._counts), "counts drifted"
        degree_counts = _exact_degree_counts(
            shifted, self.graph.degrees, self._degree_counts.size
        )
        assert np.array_equal(degree_counts, self._degree_counts), "degree counts drifted"
        assert int(values.sum()) == self._sum, "sum drifted"
        assert int((values * self.graph.degrees).sum()) == self._degree_sum, (
            "degree-weighted sum drifted"
        )
        assert int(np.count_nonzero(counts)) == self._support_size, "support size drifted"
        present = np.flatnonzero(counts)
        assert int(present[0]) + self._offset == self.min_opinion, "min drifted"
        assert int(present[-1]) + self._offset == self.max_opinion, "max drifted"
