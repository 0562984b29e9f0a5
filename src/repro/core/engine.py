"""The asynchronous simulation engine.

Runs any :mod:`~repro.core.dynamics` under any
:mod:`~repro.core.schedulers` scheduler until a stopping condition fires
or the step budget runs out. Interaction pairs are drawn in blocks to
amortize RNG overhead; observers (see :mod:`~repro.core.observers`) hook
in without slowing down un-instrumented runs.

The hot loop itself lives in :mod:`repro.core.kernels`: this module
resolves specs into objects, picks an execution kernel (the per-step
``"loop"`` reference, the vectorized ``"block"`` kernel, or the numba
``"compiled"`` kernel — all bit-identical for any seed) and wraps the
run in the observability layer (event-log span, profiler section).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.dynamics import Dynamics, make_dynamics
from repro.core.kernels import KernelContext, resolve_kernel
from repro.core.observers import EngineObserver, resolve_interval
from repro.core.results import BaseRunResult
from repro.core.schedulers import Scheduler
from repro.core.state import OpinionState
from repro.core.stopping import StopCondition, StopLike, make_stop_condition
from repro.errors import ProcessError
from repro.obs.profile import active_profiler
from repro.obs.log import PhaseTraceObserver, active_log
from repro.rng import RngLike, make_rng

#: Default number of interaction pairs drawn per RNG block.
DEFAULT_BLOCK_SIZE = 8192


@dataclass
class RunResult(BaseRunResult):
    """Outcome of one engine run.

    Attributes
    ----------
    stop_reason:
        The reason string of the stopping condition that fired, or
        ``"max_steps"``.
    steps:
        Number of asynchronous steps executed (each step is one
        interaction, whether or not it changed an opinion).
    state:
        The final :class:`OpinionState` (the same object that was passed
        in, mutated in place).
    kernel:
        Name of the execution kernel that ran (``"loop"``, ``"block"``
        or ``"compiled"`` — the backend resolved before the run, never
        ``"auto"``).
    kernel_reason:
        Why that kernel ran: the origin of the choice (an explicit
        ``kernel=``, an ambient ``use_kernel``, or ``"auto"``) followed
        by each degradation applied, e.g.
        ``"auto: dynamics has step_block"`` or
        ``"auto: dynamics has step_block; stop publishes no StopTerm"``;
        see :func:`repro.core.kernels.resolve_kernel`.
    """

    steps: int
    state: OpinionState
    kernel: str = "loop"
    kernel_reason: str = ""


def run_dynamics(
    state: OpinionState,
    scheduler: Scheduler,
    dynamics: Dynamics,
    *,
    stop: StopLike = "consensus",
    rng: RngLike = None,
    max_steps: Optional[int] = None,
    observers: Sequence[EngineObserver] = (),
    block_size: int = DEFAULT_BLOCK_SIZE,
    kernel: str = "auto",
) -> RunResult:
    """Run ``dynamics`` on ``state`` until ``stop`` fires.

    Parameters
    ----------
    state:
        Mutated in place; pass ``state.copy()`` to preserve the original.
    scheduler:
        Source of (v, w) interaction pairs.
    dynamics:
        Update rule instance or name (see :func:`make_dynamics`).
    stop:
        Stopping condition callable or name (see
        :func:`repro.core.stopping.make_stop_condition`).
    rng:
        Seed or generator; ``None`` draws fresh entropy.
    max_steps:
        Hard step budget (``>= 0``). Mandatory when ``stop`` can never
        fire (e.g. ``"never"``).
    observers:
        Objects implementing the sampled and/or change observer hooks.
    block_size:
        Interaction pairs drawn per RNG block (identical across kernels,
        which is what keeps their random streams in lockstep). It is not
        a pure RNG grouping for the state-bound schedulers
        (:class:`~repro.core.schedulers.BiasedScheduler`,
        :class:`~repro.core.schedulers.AdversarialScheduler`): they read
        the state once per drawn block, so their pairs follow the state
        as it stood at the block's first step.
    kernel:
        Execution backend: ``"loop"``, ``"block"``, ``"compiled"`` or
        ``"auto"`` (the default — honours the ambient
        :func:`repro.core.kernels.use_kernel` override, then runs
        ``"block"`` when the dynamics has ``step_block``, else
        ``"loop"``). Requests the run cannot satisfy degrade
        ``compiled -> block -> loop`` before it starts (an opaque stop
        or a non-timeline change observer runs on the loop); kernels
        are bit-identical; the choice and its reason are recorded on
        the result; see ``docs/kernels.md``.
    """
    dynamics = make_dynamics(dynamics)
    stop_condition: StopCondition = make_stop_condition(stop)
    generator = make_rng(rng)
    if block_size < 1:
        raise ProcessError(f"block_size must be >= 1, got {block_size}")
    if max_steps is not None and max_steps < 0:
        raise ProcessError(f"max_steps must be >= 0, got {max_steps}")

    sampled = [obs for obs in observers if hasattr(obs, "sample")]
    change_observers = [obs for obs in observers if hasattr(obs, "on_change")]
    if max_steps is None and getattr(stop_condition, "__name__", "") == "never":
        raise ProcessError("stop='never' requires max_steps")

    # The scheduler owns the substrate; a static one (including every
    # bare-graph scheduler) is dropped from the context so the kernels'
    # epoch handling stays a single None check on the static hot path.
    substrate = getattr(scheduler, "substrate", None)
    if substrate is not None and substrate.is_static:
        substrate = None
    if substrate is not None and not callable(getattr(scheduler, "rebuild", None)):
        raise ProcessError(
            f"{type(scheduler).__name__} cannot run on a churning substrate: "
            f"it has no rebuild() to refresh its epoch caches"
        )

    log = active_log()
    profiler = active_profiler()
    phase_obs: Optional[PhaseTraceObserver] = None
    if log is not None:
        # Every logged run records the paper's phase structure without
        # the caller wiring an observer explicitly.
        phase_obs = PhaseTraceObserver()
        sampled.append(phase_obs)
        change_observers.append(phase_obs)

    # Resolve each observer's interval once: observers without an
    # ``interval`` attribute default to 1 here *and* at every re-arm.
    intervals = [resolve_interval(obs) for obs in sampled]

    engine_kernel = resolve_kernel(
        kernel, dynamics, stop_condition=stop_condition, change_observers=change_observers
    )
    ctx = KernelContext(
        state=state,
        scheduler=scheduler,
        dynamics=dynamics,
        stop_condition=stop_condition,
        generator=generator,
        max_steps=max_steps,
        block_size=block_size,
        sampled=sampled,
        intervals=intervals,
        change_observers=change_observers,
        substrate=substrate,
    )

    with ExitStack() as stack:
        span = (
            stack.enter_context(log.span("engine.run"))
            if log is not None
            else None
        )
        if profiler is not None:
            stack.enter_context(profiler.section("engine.run"))

        run = engine_kernel.execute(ctx)

        if span is not None:
            span.update(
                engine="generic",
                kernel=engine_kernel.name,
                kernel_reason=engine_kernel.reason,
                steps=run.steps,
                stop_reason=run.stop_reason,
                opinion_changes=run.changes,
                rng_blocks=run.blocks,
                solves=run.solves,
                passes=run.passes,
                n=state.n,
            )
            span.update(phase_obs.attrs())
    return RunResult(
        steps=run.steps,
        stop_reason=run.stop_reason,
        state=state,
        kernel=engine_kernel.name,
        kernel_reason=engine_kernel.reason,
    )
