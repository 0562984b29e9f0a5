"""Per-layer accounting for the traced benchmark run.

:class:`LayerTrace` wraps the public entry points of each ``repro`` layer
for the duration of one traced round and restores them afterwards.  The
wrappers live here, in the benchmark's own files; the program is not
edited.

* Block-grained calls (one per engine run, scheduler block, churn event,
  trial batch or journal record) become spans: name, start, end and the
  id of the enclosing span.  Spans are kept in memory and written out by
  :meth:`LayerTrace.write`.
* Per-step and per-window calls (``dynamics.step``, ``state.apply``,
  stop evaluation, ``on_change``, and the window-grained
  ``step_block``/``apply_block``/``support_range_timeline``, whose
  windows collapse to one pair on hub graphs) are aggregated as a count
  plus total time instead of one span each.

Every wrapped call, span or aggregate, adds its duration to the child
time of the call enclosing it, so a layer's self time is its own time
minus that of the wrapped calls it made.

Method wrappers are installed on the defining class and carry
``functools.wraps`` metadata; wrapped stop conditions keep their
``__dict__`` (and hence ``support_range_terms``), so kernel resolution
and the block kernel's fast paths see exactly what they see untraced.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

#: Spans kept in memory per traced round; later spans are counted only.
MAX_SPANS = 200_000

_KERNEL_NAMES = ("loop", "block", "compiled")


class LayerTrace:
    """Span recorder and call aggregator for one traced round."""

    def __init__(self) -> None:
        # name -> [calls, total seconds, child seconds]
        self.calls: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        self.kernel_runs: Dict[str, int] = defaultdict(int)
        # The TrialSets of each run_trials_over call, one list per call.
        self.batches: List[list] = []
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        self.top_level_s = 0.0
        # Open frames: [child seconds, id of the innermost enclosing span].
        self._stack: List[list] = []
        self._next_id = 1
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        span: bool,
        after: Optional[Callable] = None,
        leaf: bool = False,
    ) -> Callable:
        """A timed stand-in for ``fn`` recorded under ``name``.

        ``after(args, kwargs, result)`` runs outside the timed interval
        and may add counts.  A ``leaf`` calls no wrapped function, so it
        opens no frame; the per-step calls are leaves, and skipping the
        frame keeps tracing overhead down where it is paid millions of
        times.
        """
        stack = self._stack
        totals = self.calls[name]
        clock = time.perf_counter  # a local: this runs millions of times

        if leaf:

            @functools.wraps(fn)
            def leaf_wrapper(*args, **kwargs):
                start = clock()
                try:
                    return_value = fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    if stack:
                        stack[-1][0] += duration
                    else:
                        self.top_level_s += duration
                    totals[0] += 1
                    totals[1] += duration
                if after is not None:
                    after(args, kwargs, return_value)
                return return_value

            return leaf_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            if span:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_level_s += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += frame[0]
                if span:
                    self._record_span(span_id, parent, name, start, end)
            if after is not None:
                after(args, kwargs, return_value)
            return return_value

        return wrapper

    def _record_span(self, span_id, parent, name, start, end) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (span_id, parent, name, start - self._origin, end - self._origin)
            )
        else:
            self.dropped_spans += 1

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["LayerTrace"]:
        """Wrap every layer boundary; restore the originals on exit."""
        from repro.checkpoint import CheckpointJournal
        from repro.core import div, engine, observers, schedulers, substrate
        from repro.core.dynamics import IncrementalVoting
        from repro.core.kernels import BlockKernel, CompiledKernel, LoopKernel
        from repro.core.state import OpinionState
        from repro.experiments import e01_winning_distribution
        from repro.experiments.registry import ExperimentSpec

        counts = self.counts
        patches = []

        def patch(owner, attr, name, *, span, after=None, leaf=False):
            original = vars(owner)[attr]
            patches.append((owner, attr, original))
            wrapped = self.wrap(name, original, span=span, after=after, leaf=leaf)
            setattr(owner, attr, wrapped)

        def add(key, value):
            counts[key] += value

        def on_run_dynamics(args, kwargs, result):
            self.kernel_runs[result.kernel] += 1
            add("engine.steps", result.steps)

        def on_rewire(args, kwargs, result):
            add("substrate.rewire_edges.swaps", args[2])
            if result is not args[0]:
                add("substrate.epochs", 1)

        # Engine entry points: run_div calls run_dynamics through its
        # own module binding, the scenario workloads through engine's.
        patch(div, "run_div", "div.run_div", span=True)
        run_dynamics = engine.run_dynamics
        wrapped_run = self.wrap(
            "engine.run_dynamics", run_dynamics, span=True, after=on_run_dynamics
        )
        for module in (engine, div):
            patches.append((module, "run_dynamics", run_dynamics))
            setattr(module, "run_dynamics", wrapped_run)

        # The engine resolves the stop condition once per run; hand it a
        # counting twin that keeps the condition's metadata.
        make_stop = engine.make_stop_condition
        patches.append((engine, "make_stop_condition", make_stop))

        @functools.wraps(make_stop)
        def counting_stop(spec):
            return self.wrap("stopping.eval", make_stop(spec), span=False, leaf=True)

        engine.make_stop_condition = counting_stop

        for kernel_cls in (LoopKernel, BlockKernel, CompiledKernel):
            patch(kernel_cls, "execute", "kernels.execute", span=True)

        for cls in (
            schedulers.VertexScheduler,
            schedulers.EdgeScheduler,
            schedulers.BiasedScheduler,
            schedulers.AdversarialScheduler,
        ):
            patch(
                cls,
                "draw_block",
                "schedulers.draw_block",
                span=True,
                after=lambda a, k, r: add("schedulers.draw_block.pairs", a[2]),
            )
        patch(schedulers._EpochCached, "rebuild", "schedulers.rebuild", span=True)

        # dynamics.step commits through state.apply, so it is no leaf.
        patch(IncrementalVoting, "step", "dynamics.step", span=False)
        patch(
            IncrementalVoting,
            "step_block",
            "dynamics.step_block",
            span=False,
            leaf=True,
            after=lambda a, k, r: add("dynamics.step_block.pairs", len(a[2])),
        )

        patch(OpinionState, "apply", "state.apply", span=False, leaf=True)
        patch(
            OpinionState,
            "apply_block",
            "state.apply_block",
            span=False,
            leaf=True,
            after=lambda a, k, r: add("state.apply_block.changes", len(a[1])),
        )
        patch(
            OpinionState,
            "support_range_timeline",
            "state.support_range_timeline",
            span=False,
            leaf=True,
        )
        patch(OpinionState, "rebind_graph", "state.rebind_graph", span=True)

        for cls in vars(observers).values():
            if (
                isinstance(cls, type)
                and cls.__module__ == observers.__name__
                and not getattr(cls, "_is_protocol", False)
            ):
                if "on_change" in vars(cls):
                    patch(
                        cls, "on_change", "observers.on_change", span=False, leaf=True
                    )
                if "sample" in vars(cls):
                    patch(cls, "sample", "observers.sample", span=False, leaf=True)

        patch(substrate.Substrate, "advance_to", "substrate.advance_to", span=True)
        patch(
            substrate, "rewire_edges", "substrate.rewire_edges", span=True,
            after=on_rewire,
        )

        patch(
            e01_winning_distribution,
            "run_trials_over",
            "montecarlo.run_trials_over",
            span=True,
            after=lambda a, k, r: self.batches.append([ts for _, ts in r]),
        )
        patch(CheckpointJournal, "record", "checkpoint.record", span=True)
        patch(ExperimentSpec, "run_quick", "experiments.run_quick", span=True)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _get(self, name: str) -> List[float]:
        return self.calls.get(name, [0, 0.0, 0.0])

    def metrics(self) -> Dict[str, float]:
        """The per-layer table (every layer; zero where not exercised)."""
        out: Dict[str, float] = {}

        def calls_s(name: str, key: Optional[str] = None) -> None:
            calls, total, _ = self._get(name)
            out[f"{key or name}.calls"] = calls
            out[f"{key or name}.s"] = total

        def self_s(name: str) -> float:
            _, total, child = self._get(name)
            return total - child

        counts = self.counts
        calls_s("schedulers.draw_block")
        out["schedulers.draw_block.pairs"] = counts["schedulers.draw_block.pairs"]
        calls_s("schedulers.rebuild")

        calls_s("dynamics.step_block")
        block_calls = self._get("dynamics.step_block")[0]
        block_pairs = counts["dynamics.step_block.pairs"]
        out["dynamics.step_block.pairs"] = block_pairs
        calls_s("dynamics.step")
        out["dynamics.pairs_per_propose"] = (
            block_pairs / block_calls if block_calls else 0.0
        )

        calls_s("state.apply_block")
        block_changes = counts["state.apply_block.changes"]
        out["state.apply_block.changes"] = block_changes
        calls_s("state.apply")
        calls_s("state.support_range_timeline")
        calls_s("state.rebind_graph")

        calls_s("stopping.eval")
        calls_s("observers.on_change")
        calls_s("observers.sample")

        calls_s("kernels.execute")
        out["kernels.self_s"] = self_s("kernels.execute")
        for kernel in _KERNEL_NAMES:
            out[f"kernels.runs.{kernel}"] = self.kernel_runs.get(kernel, 0)
        proposed = block_pairs + self._get("dynamics.step")[0]
        steps = counts["engine.steps"]
        out["kernels.proposal_yield"] = steps / proposed if proposed else 0.0
        replayed = self._get("state.apply")[0]
        committed = replayed + block_changes
        out["kernels.replay_share"] = replayed / committed if committed else 0.0

        calls_s("substrate.advance_to")
        calls_s("substrate.rewire_edges")
        out["substrate.rewire_edges.swaps"] = counts["substrate.rewire_edges.swaps"]
        out["substrate.epochs"] = counts["substrate.epochs"]

        out["engine.run_dynamics.s"] = self._get("engine.run_dynamics")[1]
        out["engine.self_s"] = self_s("engine.run_dynamics")
        calls_s("div.run_div")
        out["div.self_s"] = self_s("div.run_div")

        calls_s("montecarlo.run_trials_over")
        busy = wall_slots = dispatch = 0.0
        retries = fallback = 0
        for trial_sets in self.batches:
            slices = [ts.timings for ts in trial_sets if ts.timings is not None]
            if not slices:
                continue
            # Slices of one call share its wall time, retries and
            # fallbacks; each carries only its own trials' busy time.
            timings = slices[0]
            batch_busy = sum(
                stat.busy_seconds for t in slices for stat in t.worker_stats
            )
            slots = max(1, timings.requested_workers)
            busy += batch_busy
            wall_slots += timings.total_seconds * slots
            dispatch += timings.total_seconds - batch_busy / slots
            retries += timings.retries
            fallback += timings.fallback_trials
        out["parallel.trial_busy_s"] = busy
        out["parallel.utilization"] = busy / wall_slots if wall_slots else 0.0
        out["parallel.dispatch_s"] = dispatch
        out["parallel.retries"] = retries
        out["parallel.fallback_trials"] = fallback

        calls_s("checkpoint.record")
        out["experiments.run_quick.s"] = self._get("experiments.run_quick")[1]
        out["experiments.self_s"] = self_s("experiments.run_quick")
        out["trace.spans"] = len(self.spans) + self.dropped_spans
        return out

    def write(self, path: Path, header: dict) -> None:
        """Write the recorded spans and aggregates as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = dict(header)
        document["span_fields"] = ["id", "parent", "name", "start_s", "end_s"]
        document["spans"] = self.spans
        document["dropped_spans"] = self.dropped_spans
        document["aggregates"] = {
            name: {"calls": c, "total_s": t, "child_s": ch}
            for name, (c, t, ch) in sorted(self.calls.items())
        }
        path.write_text(json.dumps(document))


def layer_fingerprint() -> tuple:
    """What kernel resolution and the fast paths read off wrapped objects.

    Equal with and without the wrappers installed, or the traced run
    would not execute the same code paths as the untraced one.
    """
    from repro.core import engine
    from repro.core.dynamics import IncrementalVoting
    from repro.core.kernels import (
        KERNEL_NAMES,
        resolve_kernel,
        supports_block,
        supports_compiled,
    )
    from repro.core.stopping import support_range_terms

    dynamics = IncrementalVoting()
    stops = [
        engine.make_stop_condition(name)
        for name in ("consensus", "two_adjacent", "never")
    ]
    return (
        tuple(resolve_kernel(spec, dynamics).name for spec in KERNEL_NAMES),
        supports_block(dynamics),
        supports_compiled(dynamics),
        getattr(dynamics, "substrate_compat", None),
        tuple((stop.__name__, support_range_terms(stop)) for stop in stops),
    )
