"""Update rules (dynamics) for the asynchronous engines.

A *dynamic* consumes one interaction pair per step and mutates the
:class:`OpinionState` through :meth:`OpinionState.apply`. The package's
primary contribution is :class:`IncrementalVoting` (eq. (1) of the
paper); the rest are the comparison dynamics the paper discusses.

All dynamics implement::

    step(state, v, w, rng) -> bool   # True iff any opinion changed

``rng`` is used by dynamics that need extra neighbour samples (median
voting, best-of-k).

Dynamics whose update depends only on the pair ``(X_v, X_w)`` — DIV,
pull and push — additionally implement :meth:`Dynamics.step_block`, the
same rule as a pure function of opinion arrays writing a value between
its two inputs, and declare which endpoint it writes (``writes = "v"``
or ``"w"``). The block execution
kernel (:mod:`repro.core.kernels`) uses it to solve whole scheduler
blocks in a few numpy passes; dynamics without it (those drawing
per-step RNG or polling whole neighbourhoods) transparently run on the
per-step loop kernel instead.

Substrate contract (``docs/scenarios.md``): every dynamic treats a
frozen (zealot) target as a no-change step — the scalar ``step`` checks
:meth:`OpinionState.is_frozen` before writing, and the block and
compiled kernels mask frozen targets out of every block they solve —
so change counters, change observers and stopping checks stay
bit-identical across execution kernels.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.core.state import OpinionState
from repro.errors import ProcessError


class Dynamics(Protocol):
    """One asynchronous update rule."""

    name: str

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        """Apply one interaction where ``v`` observes ``w``."""
        ...  # pragma: no cover - protocol


class BlockDynamics(Dynamics, Protocol):
    """A dynamic whose update is a pure rule on the pair's two opinions.

    ``step_block(xv, xw)`` takes the opinions of ``v`` and ``w`` as
    aligned int64 arrays and returns the new opinion of the endpoint the
    rule writes, named by ``writes`` (``"v"`` or ``"w"``). It must be
    RNG-free, read nothing but its arguments, and agree elementwise with
    :meth:`Dynamics.step` on a non-frozen target: an element whose result
    equals the written endpoint's input is a step that changes nothing.
    Every result must lie between its two inputs,
    ``min(xv, xw) <= out <= max(xv, xw)``, so that no step widens the
    opinion range: the block kernel tests a range-decided stop term
    (:attr:`~repro.core.stopping.StopTerm.range_ceiling`) on a commit's
    end state alone and builds the support/width timeline only when it
    holds there. The block kernel evaluates the rule over a whole drawn
    block at once and solves the block's sequential dependencies itself,
    so the rule never sees a state and has no conflict precondition.
    """

    writes: str

    def step_block(self, xv: np.ndarray, xw: np.ndarray) -> np.ndarray:
        """New opinions of the written endpoints, one per pair."""
        ...  # pragma: no cover - protocol


class IncrementalVoting:
    """Discrete incremental voting — eq. (1) of the paper.

    ``v`` moves one unit toward ``w``'s opinion:
    ``X'_v = X_v + sign(X_w - X_v)``. The observed vertex ``w`` never
    changes.
    """

    name = "div"
    #: Dispatch code for the compiled kernel's machine-code pair loop
    #: (see ``repro.core.kernels.compiled``): 0 = move one unit toward
    #: the observed value. Only meaningful for RNG-free pairwise
    #: dynamics whose update depends on ``(X_v, X_w)`` alone.
    compiled_id = 0
    #: The endpoint ``step_block`` writes.
    writes = "v"

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        xv = state.value(v)
        xw = state.value(w)
        if xw == xv or state.is_frozen(v):
            return False
        state.apply(v, xv + 1 if xw > xv else xv - 1)
        return True

    def step_block(self, xv: np.ndarray, xw: np.ndarray) -> np.ndarray:
        """Eq. (1) elementwise: ``v``'s new opinion."""
        return xv + np.sign(xw - xv)


class PullVoting:
    """Classic pull voting: ``v`` adopts ``w``'s opinion wholesale.

    The paper's "Mode" baseline. Under the vertex process the opinion
    held by set ``A`` wins with probability ``d(A)/2m`` (Hassin & Peleg
    [17]), so on regular graphs the winning distribution is the initial
    empirical distribution: the mode is the single most likely winner,
    unlike DIV's concentration on the mean.
    """

    name = "pull"
    #: Compiled-kernel dispatch code: 1 = ``v`` adopts ``X_w``.
    compiled_id = 1
    writes = "v"

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        xv = state.value(v)
        xw = state.value(w)
        if xw == xv or state.is_frozen(v):
            return False
        state.apply(v, xw)
        return True

    def step_block(self, xv: np.ndarray, xw: np.ndarray) -> np.ndarray:
        """Pull elementwise: ``v``'s new opinion is ``X_w``."""
        return xw


class PushVoting:
    """Push voting: ``v`` imposes its opinion on the sampled neighbour ``w``."""

    name = "push"
    #: Compiled-kernel dispatch code: 2 = ``w`` adopts ``X_v``.
    compiled_id = 2
    writes = "w"

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        xv = state.value(v)
        xw = state.value(w)
        if xw == xv or state.is_frozen(w):
            return False
        state.apply(w, xv)
        return True

    def step_block(self, xv: np.ndarray, xw: np.ndarray) -> np.ndarray:
        """Push elementwise: ``w``'s new opinion is ``X_v``."""
        return xv


class MedianVoting:
    """Median voting (Doerr et al., SPAA 2011).

    ``v`` samples a second uniform neighbour ``u`` and replaces its value
    by ``median(X_v, X_w, X_u)``. On the complete graph the consensus
    value's rank is within ``O(√(n log n))`` of ``n/2``: the process
    approximates the *median* of the initial opinions, the middle member
    of the paper's Mode/Median/Mean trichotomy. It can be slow through
    low-conductance cuts, so give sparse-graph runs a ``max_steps``
    budget.
    """

    name = "median"

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        if state.is_frozen(v):
            return False
        graph = state.graph
        neighbors = graph.neighbors(v)
        u = int(neighbors[rng.integers(0, neighbors.size)])
        xv = state.value(v)
        values = sorted((xv, state.value(w), state.value(u)))
        new_value = values[1]
        if new_value != xv:
            state.apply(v, new_value)
            return True
        return False


class BestOfTwo:
    """Two-choices dynamics: adopt the sampled value iff two samples agree.

    ``v`` samples a second uniform neighbour ``u``; if ``X_w == X_u`` it
    adopts that value, otherwise it keeps its own. Like
    :class:`BestOfThree` it is one of the fast plurality-consensus
    dynamics the paper surveys ([2, 10, 16], ...): a vertex moves only
    when a small sample agrees, which amplifies the *plurality*, not the
    mean.
    """

    name = "best_of_two"

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        if state.is_frozen(v):
            return False
        graph = state.graph
        neighbors = graph.neighbors(v)
        u = int(neighbors[rng.integers(0, neighbors.size)])
        xw = state.value(w)
        if xw == state.value(u) and xw != state.value(v):
            state.apply(v, xw)
            return True
        return False


class BestOfThree:
    """3-majority dynamics: adopt the majority of three neighbour samples.

    ``v`` samples two additional uniform neighbours; if at least two of
    the three samples agree, ``v`` adopts that value, otherwise it adopts
    the first sample (the standard random tie-break of the 3-majority
    literature). Like :class:`BestOfTwo` it amplifies the *plurality*,
    not the mean.
    """

    name = "best_of_three"

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        if state.is_frozen(v):
            return False
        graph = state.graph
        neighbors = graph.neighbors(v)
        picks = rng.integers(0, neighbors.size, size=2)
        a = state.value(w)
        b = state.value(int(neighbors[picks[0]]))
        c = state.value(int(neighbors[picks[1]]))
        if a == b or a == c:
            new_value = a
        elif b == c:
            new_value = b
        else:
            new_value = a
        if new_value != state.value(v):
            state.apply(v, new_value)
            return True
        return False


class LocalMajority:
    """Asynchronous local majority polling (cf. [1, 21] in the paper).

    The selected vertex adopts the opinion held by the largest number of
    its neighbours (its sampled neighbour ``w`` is ignored — the rule
    polls the whole neighbourhood). Ties keep the current opinion if it
    is among the tied values, otherwise the smallest tied value wins.
    A deterministic-per-step contrast to the sampling dynamics.
    """

    name = "local_majority"

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        if state.is_frozen(v):
            return False
        neighbors = state.graph.neighbors(v)
        values = state.values[neighbors]
        candidates, counts = np.unique(values, return_counts=True)
        best = counts.max()
        tied = candidates[counts == best]
        xv = state.value(v)
        new_value = xv if xv in tied else int(tied.min())
        if new_value != xv:
            state.apply(v, new_value)
            return True
        return False


class LoadBalancing:
    """Edge-averaging load balancing (Berenbrink et al., IPDPS 2019).

    The endpoints of the selected edge set their loads to
    ``⌊(a+b)/2⌋`` and ``⌈(a+b)/2⌉``. The endpoint with the smaller prior
    load receives the floor (ties keep both unchanged), which avoids the
    degenerate churn of swapping adjacent loads back and forth. Unlike
    DIV this is a *coordinated two-vertex update*, the coordination cost
    the paper's one-sided rule avoids — and it conserves ``S(t)``
    exactly.
    """

    name = "load_balancing"

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        # A coordinated two-vertex update needs both endpoints writable;
        # a zealot on either side vetoes the whole exchange (averaging
        # against an unmovable load would not conserve S(t)).
        if state.is_frozen(v) or state.is_frozen(w):
            return False
        a = state.value(v)
        b = state.value(w)
        if abs(a - b) <= 1:
            return False
        total = a + b
        lo, hi = total // 2, (total + 1) // 2
        if a <= b:
            state.apply(v, lo)
            state.apply(w, hi)
        else:
            state.apply(v, hi)
            state.apply(w, lo)
        return True


class NoisyDynamics:
    """Communication-noise wrapper around any pairwise dynamics.

    Models two standard message faults, decided independently per step
    from the engine generator:

    * with probability ``drop`` the interaction is lost outright (the
      step changes nothing);
    * otherwise, with probability ``misread``, ``v`` misreads its
      sampled neighbour and the inner rule runs against a uniformly
      random vertex instead (a garbled sender identity — the received
      value need not even come from ``v``'s neighbourhood).

    Because every step consumes RNG for the fault decision, there is no
    pure value rule to vectorize: the wrapper deliberately implements
    neither ``step_block`` nor ``compiled_id``, so
    :func:`repro.core.kernels.resolve_kernel` degrades any block or
    compiled request down to the reference loop and records the
    degradation on ``RunResult.kernel`` — the designed behaviour for
    contract-breaking combinations, not an error (E19 asserts it).
    """

    def __init__(self, inner, drop: float = 0.0, misread: float = 0.0) -> None:
        if not 0.0 <= drop <= 1.0:
            raise ProcessError(f"drop must be in [0, 1], got {drop}")
        if not 0.0 <= misread <= 1.0:
            raise ProcessError(f"misread must be in [0, 1], got {misread}")
        self.inner = make_dynamics(inner)
        self.drop = float(drop)
        self.misread = float(misread)
        self.name = f"noisy({self.inner.name})"

    def step(
        self, state: OpinionState, v: int, w: int, rng: np.random.Generator
    ) -> bool:
        u = rng.random()
        if u < self.drop:
            return False
        if u < self.drop + self.misread:
            w = int(rng.integers(0, state.n))
            if w == v:  # a self-misread carries no information
                return False
        return self.inner.step(state, v, w, rng)


_NAMED = {
    cls.name: cls
    for cls in (
        IncrementalVoting,
        PullVoting,
        PushVoting,
        MedianVoting,
        BestOfTwo,
        BestOfThree,
        LocalMajority,
        LoadBalancing,
    )
}


def make_dynamics(spec) -> Dynamics:
    """Resolve a dynamic from its name, or pass an instance through."""
    if isinstance(spec, str):
        try:
            return _NAMED[spec]()
        except KeyError:
            known = ", ".join(sorted(_NAMED))
            raise ProcessError(f"unknown dynamics {spec!r}; known: {known}") from None
    if hasattr(spec, "step"):
        return spec
    raise ProcessError(f"cannot interpret {spec!r} as a dynamics")
