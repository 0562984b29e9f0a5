"""Execution-kernel interface of the asynchronous engine.

A *kernel* is the strategy :func:`repro.core.engine.run_dynamics` uses
to turn scheduler blocks of interaction pairs into state updates. Every
kernel implements the same contract:

* it consumes the scheduler and RNG exactly like the reference loop
  (one ``draw_block`` of the same size per iteration), so the random
  stream — and therefore every outcome — is independent of the kernel;
* it fires stopping conditions, sampled observers and change observers
  at the exact steps the reference loop would, including the implicit
  step-0 sample and the final-step flush (the block kernel hands change
  observers whole committed stretches instead, see
  :func:`~repro.core.observers.is_timeline_observer`);
* it reports the same counters (steps, stop reason, opinion changes,
  RNG blocks) for observability.

Two kernels ship with the package: :class:`~repro.core.kernels.loop.
LoopKernel` (the per-step reference implementation) and
:class:`~repro.core.kernels.block.BlockKernel` (each drawn block solved
as one vectorized fixed point). See ``docs/kernels.md`` for the equivalence
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np

from repro.core.dynamics import Dynamics
from repro.core.observers import EngineObserver
from repro.core.schedulers import Scheduler
from repro.core.state import OpinionState
from repro.core.stopping import StopCondition
from repro.core.substrate import Substrate


@dataclass
class KernelContext:
    """Everything a kernel needs to execute one engine run.

    Built by :func:`repro.core.engine.run_dynamics` after it has resolved
    names into objects; kernels never parse user-facing specs.

    ``sampled`` and ``intervals`` are aligned: ``intervals[i]`` is the
    validated sample interval of ``sampled[i]``.

    ``substrate`` is the scheduler's substrate when it has one (else
    ``None``, the static fast path): kernels thread every outer
    iteration through :func:`epoch_window`, which crosses due churn
    boundaries and clips the next draw at the following one.
    """

    state: OpinionState
    scheduler: Scheduler
    dynamics: Dynamics
    stop_condition: StopCondition
    generator: np.random.Generator
    max_steps: Optional[int]
    block_size: int
    sampled: Sequence[EngineObserver]
    intervals: Sequence[int]
    change_observers: Sequence[EngineObserver]
    substrate: Optional[Substrate] = None


@dataclass
class KernelRun:
    """What a kernel reports back to the engine wrapper.

    ``steps`` and ``stop_reason`` become the :class:`RunResult`;
    ``blocks`` and ``changes`` feed the event-log span so all
    kernels stay comparable in the observability layer. ``solves`` and
    ``passes`` count the block kernel's fixed-point solves and their
    passes (0 on the kernels that solve nothing).
    """

    steps: int
    stop_reason: str
    blocks: int
    changes: int
    solves: int = 0
    passes: int = 0


class ExecutionKernel(Protocol):
    """One execution strategy for the asynchronous engine.

    ``reason`` is filled in by
    :func:`~repro.core.kernels.resolve_kernel`: why this kernel was
    chosen for the run (empty on a kernel built directly).
    """

    name: str
    reason: str

    def execute(self, ctx: KernelContext) -> KernelRun:
        """Run to the stopping condition or the step budget."""
        ...  # pragma: no cover - protocol


def supports_block(dynamics: Dynamics) -> bool:
    """Whether ``dynamics`` can run on the vectorized block kernel."""
    return callable(getattr(dynamics, "step_block", None))


def epoch_window(ctx: KernelContext, step: int, remaining: int) -> int:
    """Cross due epoch boundaries at ``step`` and clip the next draw.

    The dynamic-substrate half of the kernel equivalence contract, in
    one place so all three kernels share it bit for bit:

    1. apply every churn event scheduled at or before ``step`` (the
       substrate's private RNG, never the engine generator), rebinding
       the state's graph and rebuilding the scheduler's epoch caches
       when the topology changed;
    2. return ``remaining`` clipped so the upcoming ``draw_block``
       cannot reach past the *next* boundary — the same treatment
       sampled-observer due steps already get, and what keeps every
       kernel's draw sizes (hence the shared RNG stream) identical on
       dynamic substrates.

    Static substrates (or ``ctx.substrate is None``) return
    ``remaining`` unchanged at the cost of one predicate.
    """
    substrate = ctx.substrate
    if substrate is None:
        return remaining
    if substrate.advance_to(step):
        ctx.state.rebind_graph(substrate.graph)
        ctx.scheduler.rebuild()
    boundary = substrate.next_boundary(step)
    if boundary is None:
        return remaining
    return min(remaining, boundary - step)
