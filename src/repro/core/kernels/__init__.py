"""Backend-selectable execution kernels for the asynchronous engine.

:func:`repro.core.engine.run_dynamics` hands its hot loop to an
*execution kernel*. Three ship with the package:

``"loop"``
    The per-step reference implementation (the engine's original loop,
    extracted verbatim). Works with every dynamic.
``"block"``
    Vectorized: each drawn scheduler block is solved as one fixed point
    and committed in one batch. Needs a dynamics implementing
    :meth:`Dynamics.step_block` (DIV, pull, push); :func:`resolve_kernel`
    says which other runs go to the loop.
``"compiled"``
    The per-pair recurrence as one numba ``@njit`` machine-code loop
    over the state's flat int64 buffers. Needs numba (an optional
    extra) and a dynamics publishing a ``compiled_id`` (DIV, pull,
    push); :func:`resolve_kernel` says which other runs go to block.

All kernels consume the RNG identically and fire stopping conditions
and observers at the same steps, so results are bit-for-bit identical
for any seed — ``tests/test_kernels.py`` sweeps that guarantee.

Callers pick a kernel per run (``kernel="block"``), or ambiently for a
whole campaign::

    with use_kernel("block"):
        run_trials(...)        # every engine call resolves "auto" -> block

mirroring how :mod:`repro.obs.log` scopes its active log. The
default ``"auto"`` runs the block kernel wherever the dynamics has
:meth:`Dynamics.step_block` and the loop otherwise: solving each run's
first blocks in prefixes sized by their pass counts (see
:mod:`repro.core.kernels.block`) made block the faster kernel on every
graph measured but K_10, where it trails the loop by a small constant
(``docs/kernels.md``). The choice is made once, before the
run starts, and carries a one-line ``reason``, which the engine
records as ``RunResult.kernel_reason``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from repro.core.dynamics import Dynamics
from repro.core.kernels.base import (
    ExecutionKernel,
    KernelContext,
    KernelRun,
    epoch_window,
    supports_block,
)
from repro.core.kernels.block import BlockKernel, solve_block
from repro.core.kernels.compiled import (
    NUMBA_AVAILABLE,
    CompiledKernel,
    compiled_runtime_available,
    interpreted_compiled,
    supports_compiled,
    term_thresholds,
)
from repro.core.kernels.loop import LoopKernel
from repro.core.observers import is_timeline_observer
from repro.core.stopping import StopCondition, support_range_terms
from repro.errors import ProcessError

__all__ = [
    "KERNEL_NAMES",
    "NUMBA_AVAILABLE",
    "BlockKernel",
    "CompiledKernel",
    "ExecutionKernel",
    "KernelContext",
    "KernelRun",
    "LoopKernel",
    "active_kernel",
    "compiled_runtime_available",
    "epoch_window",
    "interpreted_compiled",
    "make_kernel",
    "resolve_kernel",
    "solve_block",
    "supports_block",
    "supports_compiled",
    "use_kernel",
]

_KERNELS = {
    LoopKernel.name: LoopKernel,
    BlockKernel.name: BlockKernel,
    CompiledKernel.name: CompiledKernel,
}

#: Kernel specs accepted by the engine entry points.
KERNEL_NAMES = ("auto",) + tuple(sorted(_KERNELS))

# Ambient kernel override for ``kernel="auto"`` calls, innermost wins —
# same scoping idiom as ``repro.obs.log._ACTIVE``. Note this stack
# is per-process: parallel campaigns ship the kernel name to their
# workers explicitly (see ``repro.parallel``).
_ACTIVE: list = []


def active_kernel() -> Optional[str]:
    """The innermost ambient kernel override, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def use_kernel(kernel: Optional[str]) -> Iterator[None]:
    """Scope an ambient kernel default for ``kernel="auto"`` engine calls.

    ``None`` is a no-op pass-through so callers can thread an optional
    setting without branching; ``"auto"`` restores the heuristic inside
    an outer override. Explicit ``kernel=`` arguments on engine entry
    points always win over the ambient value.
    """
    if kernel is None:
        yield
        return
    if kernel not in KERNEL_NAMES:
        known = ", ".join(KERNEL_NAMES)
        raise ProcessError(f"unknown kernel {kernel!r}; known: {known}")
    _ACTIVE.append(kernel)
    try:
        yield
    finally:
        _ACTIVE.pop()


def make_kernel(name: str) -> ExecutionKernel:
    """Instantiate a kernel by its registered name (no ``"auto"`` here)."""
    try:
        return _KERNELS[name]()
    except KeyError:
        known = ", ".join(KERNEL_NAMES)
        raise ProcessError(f"unknown kernel {name!r}; known: {known}") from None


def resolve_kernel(
    spec: str,
    dynamics: Dynamics,
    *,
    stop_condition: Optional[StopCondition] = None,
    change_observers: Sequence[object] = (),
) -> ExecutionKernel:
    """Resolve a kernel spec for one run, once, before it starts.

    ``"auto"`` consults the ambient :func:`use_kernel` override first and
    otherwise runs the block kernel when the dynamics has
    :meth:`step_block` and the loop when it has not, whatever the graph
    or scheduler: the block kernel solves a run's pairs in prefixes
    sized by their pass counts, so short runs and hub graphs no longer
    pay for a whole block (``docs/kernels.md``, *Prefix solves*).
    ``"compiled"`` is opt-in: its speed-up depends on numba being
    installed, so ``"auto"`` stays dependency-free and predictable.

    Requests the run cannot satisfy degrade ``compiled -> block ->
    loop``. ``"compiled"`` becomes ``"block"`` without numba, without a
    ``compiled_id``, with any change observer, or with a stop term that
    has no canonical thresholds. ``"block"`` becomes ``"loop"`` without
    :meth:`step_block`, for a stop that publishes no
    :class:`~repro.core.stopping.StopTerm`, and for a change observer
    that is not a timeline observer
    (:func:`~repro.core.observers.is_timeline_observer`). A
    ``stop_condition`` of ``None`` is not checked.

    The returned kernel's ``reason`` says why it was chosen: the origin
    of the choice (``"kernel='block'"``, ``"use_kernel('loop')"`` or
    ``"auto: dynamics has step_block"``) followed by each degradation
    applied, e.g. ``"kernel='block'; stop publishes no StopTerm"``. The
    engine records the name as ``RunResult.kernel`` and the reason as
    ``RunResult.kernel_reason``, so runs never silently diverge across
    kernels.
    """
    name, reason = spec, f"kernel={spec!r}"
    ambient = active_kernel()
    if name == "auto" and ambient not in (None, "auto"):
        name, reason = ambient, f"use_kernel({ambient!r})"
    if name == "auto" and supports_block(dynamics):
        name, reason = "block", "auto: dynamics has step_block"
    elif name == "auto":
        name, reason = "loop", "auto: dynamics has no step_block"
    checked = stop_condition is not None
    terms = support_range_terms(stop_condition) if checked else None
    if name == "compiled":
        unmet = [why for failed, why in (
            (not compiled_runtime_available(), "numba is not available"),
            (not supports_compiled(dynamics), "dynamics has no compiled_id"),
            (bool(change_observers), "change observers need the block kernel"),
            (checked and term_thresholds(terms) is None, "stop has no canonical thresholds"),
        ) if failed]
        if unmet:
            name, reason = "block", f"{reason}; {unmet[0]}"
    if name == "block":
        unmet = [why for failed, why in (
            (not supports_block(dynamics), "dynamics has no step_block"),
            (checked and terms is None, "stop publishes no StopTerm"),
            (not all(map(is_timeline_observer, change_observers)),
             "change observer is not a timeline observer"),
        ) if failed]
        if unmet:
            name, reason = "loop", f"{reason}; {unmet[0]}"
    kernel = make_kernel(name)
    kernel.reason = reason
    return kernel
