"""The per-step reference kernel.

This is the engine's original hot loop, extracted verbatim from
``repro.core.engine``: one :meth:`Dynamics.step` call per interaction,
stopping conditions evaluated after every opinion change, sampled
observers checked after every step. It works with *every* dynamic —
including those that draw per-step RNG (median voting, best-of-k) — and
is the semantic yardstick the block kernel is tested against.
"""

from __future__ import annotations

from repro.core.kernels.base import KernelContext, KernelRun, epoch_window
from repro.core.stopping import MAX_STEPS_REASON


class LoopKernel:
    """Reference execution: one Python-level step per interaction."""

    name = "loop"
    reason = ""

    def execute(self, ctx: KernelContext) -> KernelRun:
        state = ctx.state
        generator = ctx.generator
        scheduler = ctx.scheduler
        stop_condition = ctx.stop_condition
        max_steps = ctx.max_steps
        block_size = ctx.block_size
        sampled = ctx.sampled
        intervals = ctx.intervals
        change_observers = ctx.change_observers

        for obs in sampled:
            obs.sample(0, state)
        last_sampled = {id(obs): 0 for obs in sampled}
        next_due = list(intervals)

        reason = stop_condition(state)
        step = 0
        blocks = 0
        changes = 0
        if reason is None:
            step_fn = ctx.dynamics.step
            while True:
                remaining = block_size
                if max_steps is not None:
                    remaining = min(remaining, max_steps - step)
                    if remaining <= 0:
                        reason = MAX_STEPS_REASON
                        break
                remaining = epoch_window(ctx, step, remaining)
                v_block, w_block = scheduler.draw_block(generator, remaining)
                blocks += 1
                v_list = v_block.tolist()
                w_list = w_block.tolist()
                for v, w in zip(v_list, w_list):
                    step += 1
                    changed = step_fn(state, v, w, generator)
                    if changed:
                        changes += 1
                        for obs in change_observers:
                            obs.on_change(step, v, w, state)
                        reason = stop_condition(state)
                        if reason is not None:
                            break
                    if sampled:
                        for i, obs in enumerate(sampled):
                            if step >= next_due[i]:
                                obs.sample(step, state)
                                last_sampled[id(obs)] = step
                                next_due[i] = step + intervals[i]
                if reason is not None:
                    break

        for obs in sampled:
            if last_sampled[id(obs)] != step:
                obs.sample(step, state)
        return KernelRun(
            steps=step, stop_reason=reason, blocks=blocks, changes=changes
        )
