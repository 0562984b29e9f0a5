"""Backend-selectable execution kernels for the asynchronous engine.

:func:`repro.core.engine.run_dynamics` delegates its hot loop to an
*execution kernel*. Two ship with the package:

``"loop"``
    The per-step reference implementation (the engine's original loop,
    extracted verbatim). Works with every dynamic.
``"block"``
    Vectorized: each drawn scheduler block is solved as one fixed point
    and committed in one batch. Only dynamics implementing
    :meth:`Dynamics.step_block` (DIV, pull, push) can use it; for the
    rest it transparently falls back to the loop.
``"compiled"``
    The per-pair recurrence as one numba ``@njit`` machine-code loop
    over the state's flat int64 buffers. Needs numba (an optional
    extra) and a dynamics publishing a ``compiled_id`` (DIV, pull,
    push); otherwise it transparently falls back to the block kernel
    (and through it to the loop).

All kernels consume the RNG identically and fire stopping conditions
and observers at the same steps, so results are bit-for-bit identical
for any seed — ``tests/test_kernels.py`` sweeps that guarantee.

Callers pick a kernel per run (``kernel="block"``), or ambiently for a
whole campaign::

    with use_kernel("block"):
        run_trials(...)        # every engine call resolves "auto" -> block

mirroring how :mod:`repro.obs.metrics` scopes its active sink. The
default ``"auto"`` picks by cost: the block kernel solves a block in a
few numpy passes over all its pairs, which only pays off when the pairs
rarely depend on each other, so ``"auto"`` runs the loop wherever the
scheduler's expected conflict-free window (its ``expected_window()``)
is below :data:`BLOCK_MIN_WINDOW`, and the block kernel elsewhere when
the dynamics supports it. The resolved
kernel carries a one-line ``reason`` for its choice, which the engine
records as ``RunResult.kernel_reason``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.core.dynamics import Dynamics, supports_substrate
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
)
from repro.core.kernels.loop import LoopKernel
from repro.errors import ProcessError

__all__ = [
    "BLOCK_MIN_WINDOW",
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

#: Expected window length (pairs) from which ``"auto"`` picks the block
#: kernel over the loop. Calibrated on ``run_div`` to consensus, k=5,
#: both kernels alternating on the same runs, 2-vCPU host; windows from
#: the schedulers' ``expected_window()``:
#:
#: ================  =======  ===========  ==========  ============
#: graph             window   block µs     loop µs     block ÷ loop
#: ================  =======  ===========  ==========  ============
#: star(61)          1.0      3.6–4.1      2.5–3.0     1.36–1.43
#: lollipop(12,24)   2.3–3.0  1.29         1.32–1.56   0.83–0.98
#: K_10              1.6      248–349      9.6–13.9    25–26
#: RR(64,10)         4.0      2.0–2.5      2.1–2.6     0.95–0.96
#: RR(128,10)        5.7      0.72–0.90    2.0–2.6     0.34–0.36
#: RR(256,10)        8.0      0.46–0.48    2.4–2.5     0.19–0.20
#: RR(512,10)        11.3     0.26–0.33    1.5–2.0     0.16–0.18
#: RR(1000,10)       15.8     0.23–0.24    1.8         0.13
#: RR(2000,10)       22.4     0.25–0.31    2.2–2.3     0.12–0.13
#: ================  =======  ===========  ==========  ============
#:
#: The crossover lies between 4.0 and 5.7. K_10 runs end within a few
#: dozen steps but the block kernel solves the whole first block, and
#: lollipop's small gain is within noise, so hubs stay on the loop.
BLOCK_MIN_WINDOW = 5

# Ambient kernel override for ``kernel="auto"`` calls, innermost wins —
# same scoping idiom as ``repro.obs.metrics._ACTIVE``. Note this stack
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
    state=None,
    substrate=None,
    scheduler=None,
) -> ExecutionKernel:
    """Resolve a kernel spec against a concrete dynamics.

    ``"auto"`` consults the ambient :func:`use_kernel` override first and
    otherwise picks by cost. A dynamics without :meth:`step_block` runs
    the loop. Otherwise, when ``scheduler`` has an ``expected_window()``
    (every built-in scheduler does; the state-bound probes report the
    neutral vertex law they propose from), a window shorter than
    :data:`BLOCK_MIN_WINDOW` pairs runs the loop — on hubs and small
    graphs nearly every pair depends on an earlier one, so the block
    kernel's solve needs many passes and loses to the per-step loop —
    and a longer one the block kernel. Without a
    scheduler or an estimate, ``"auto"`` picks block. ``"compiled"`` is
    opt-in: its speed-up depends on numba being installed, so ``"auto"``
    stays dependency-free and predictable.

    Unsatisfiable requests degrade transparently down the chain
    ``compiled -> block -> loop``: ``"compiled"`` without an importable
    numba or without a ``compiled_id`` on the dynamics becomes
    ``"block"``; ``"block"`` for a dynamics without :meth:`step_block`
    (per-step RNG draws or whole-neighbourhood polls cannot be replayed
    vectorized) becomes ``"loop"``.

    ``state`` and ``substrate`` carry the run's scenario features: when
    zealots are frozen on the state or the substrate churns, a dynamics
    that does not *declare* the matching ``substrate_compat`` feature
    (see :func:`repro.core.dynamics.supports_substrate`) degrades to the
    reference loop — the loop's per-step :meth:`OpinionState.apply`
    honours the mask regardless of the dynamics, so it is the one
    backend that is exact for undeclared code (``tests/test_contracts.py``
    requires the declaration of every fast-path dynamics).

    The returned kernel's ``reason`` says why it was chosen: the origin
    of the choice (``"kernel='block'"``, ``"use_kernel('loop')"`` or
    ``"auto: window 3.0 < 5"``) followed by each degradation applied,
    e.g. ``"kernel='block'; dynamics has no step_block"``. The engine
    records the name as ``RunResult.kernel`` and the reason as
    ``RunResult.kernel_reason``, so scenario runs never silently
    diverge across kernels.
    """
    name, reason = spec, f"kernel={spec!r}"
    ambient = active_kernel()
    if name == "auto" and ambient not in (None, "auto"):
        name, reason = ambient, f"use_kernel({ambient!r})"
    if name == "auto":
        name, reason = _by_cost(dynamics, scheduler)
    if name != "loop":
        needs = []
        if state is not None and state.has_frozen:
            needs.append("frozen")
        if substrate is not None and not substrate.is_static:
            needs.append("churn")
        undeclared = [f for f in needs if not supports_substrate(dynamics, f)]
        if undeclared:
            name = "loop"
            reason += f"; dynamics does not declare {'+'.join(undeclared)}"
    if name == "compiled" and not compiled_runtime_available():
        name = "block"
        reason += "; numba is not available"
    elif name == "compiled" and not supports_compiled(dynamics):
        name = "block"
        reason += "; dynamics has no compiled_id"
    if name == "block" and not supports_block(dynamics):
        name = "loop"
        reason += "; dynamics has no step_block"
    kernel = make_kernel(name)
    kernel.reason = reason
    return kernel


def _by_cost(dynamics: Dynamics, scheduler) -> Tuple[str, str]:
    """``"auto"``'s ``(name, reason)``: loop where windows are short."""
    if not supports_block(dynamics):
        return "loop", "auto: dynamics has no step_block"
    expected_window = getattr(scheduler, "expected_window", None)
    if expected_window is None:
        return "block", "auto: no window estimate"
    window = expected_window()
    if window < BLOCK_MIN_WINDOW:
        return "loop", f"auto: window {window:.1f} < {BLOCK_MIN_WINDOW}"
    return "block", f"auto: window {window:.1f} >= {BLOCK_MIN_WINDOW}"
