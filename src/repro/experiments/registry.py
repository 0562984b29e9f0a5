"""Registry of the experiment drivers E1–E19.

Maps experiment ids to their modules so the CLI and the benchmark suite
can enumerate and run them uniformly.
"""

from __future__ import annotations

import inspect
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.checkpoint import CheckpointJournal, campaign, config_fingerprint
from repro.core.kernels import use_kernel
from repro.errors import ExperimentError
from repro.faults import FaultPlan
from repro.obs.log import TELEMETRY_DIRNAME, EventLog, active_log, recording
from repro.experiments import (
    e01_winning_distribution,
    e02_graph_classes,
    e03_time_scaling,
    e04_k_scaling,
    e05_martingale,
    e06_two_opinion,
    e07_path_counterexample,
    e08_mode_median_mean,
    e09_load_balancing,
    e10_stage_evolution,
    e11_vertex_vs_edge,
    e12_lambda_k_ablation,
    e13_extreme_contraction,
    e14_corollary7,
    e15_synchronous,
    e16_strong_concentration,
    e17_zealots,
    e18_churn,
    e19_adversarial,
)
from repro.experiments.tables import ExperimentReport


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: id, title and how to run it."""

    experiment_id: str
    title: str
    config_cls: type
    run: Callable

    @property
    def supports_workers(self) -> bool:
        """Whether this experiment's driver accepts a ``workers`` argument."""
        return "workers" in inspect.signature(self.run).parameters

    def _run_kwargs(self, workers: Optional[int]) -> dict:
        if workers is None or not self.supports_workers:
            return {}
        return {"workers": workers}

    def run_full(
        self,
        seed=0,
        workers: Optional[int] = None,
        **campaign_options,
    ) -> ExperimentReport:
        """Run with the paper-scale default configuration.

        ``workers`` is forwarded to drivers that support parallel trial
        execution and silently ignored by the rest (see
        :attr:`supports_workers`). Keyword-only campaign options
        (``checkpoint_dir``, ``resume``, ``kernel``, ``fault_plan`` …)
        are described on :meth:`run_campaign`.
        """
        return self.run_campaign("full", seed=seed, workers=workers, **campaign_options)

    def run_quick(
        self,
        seed=0,
        workers: Optional[int] = None,
        **campaign_options,
    ) -> ExperimentReport:
        """Run with the benchmark-scale configuration."""
        return self.run_campaign("quick", seed=seed, workers=workers, **campaign_options)

    def run_campaign(
        self,
        scale: str,
        *,
        seed=0,
        workers: Optional[int] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        discard_corrupt: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        trial_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        kernel: Optional[str] = None,
        executor: Optional[str] = None,
        telemetry: bool = False,
    ) -> ExperimentReport:
        """Run one scale ("full"/"quick") as a crash-safe campaign.

        With ``checkpoint_dir`` set, every completed Monte-Carlo trial
        is journaled under ``<checkpoint_dir>/<experiment id>`` (see
        :mod:`repro.checkpoint`) and ``resume=True`` skips trials an
        interrupted run already finished — the resumed report is
        bit-for-bit identical to an uninterrupted one because per-trial
        seeds derive from the manifest parameters, never from progress.
        A campaign directory recorded with a different config, seed or
        scale is refused (``CheckpointMismatchError``). The remaining
        options inject deterministic faults and tune the parallel layer
        for chaos drills (``div-repro run --inject-faults``).

        ``kernel`` scopes an execution-kernel choice over the whole
        campaign via :func:`repro.core.kernels.use_kernel` — every
        engine call the driver makes with ``kernel="auto"`` resolves to
        it, including inside worker processes. Reports are identical
        across kernels (the backends are bit-for-bit equivalent), which
        is exactly what the CI kernel-equivalence drill asserts.

        ``executor`` selects how every Monte-Carlo batch of the campaign
        runs (``"auto"``, ``"serial"`` or ``"pool"``; see
        :func:`repro.parallel.execute_tasks`). Reports are identical
        across executors, like kernels. A driver without ``workers``
        support (see :attr:`supports_workers`) runs its batches
        serially whatever the executor.

        ``telemetry=True`` (CLI: ``--telemetry``) records the campaign in
        an event log under ``<campaign dir>/telemetry/`` (see
        :mod:`repro.obs.log`) so ``div-repro campaign status`` can report
        its progress and ETA, live or post-hoc, and ``trace summarize``
        its phases. It requires a ``checkpoint_dir`` — the logs live
        next to the campaign's journal. Without it, an ambient log
        (``--trace-dir``) records the campaign instead.
        """
        if scale not in ("full", "quick"):
            raise ExperimentError(f"unknown campaign scale {scale!r}")
        if telemetry and checkpoint_dir is None:
            raise ExperimentError(
                "telemetry feeds live under the campaign checkpoint "
                "directory; pass checkpoint_dir (CLI: --checkpoint-dir) "
                "or drop --telemetry"
            )
        if executor is not None and not self.supports_workers:
            # The driver's trials are closures that only run in process.
            executor = "serial"
        config = self.config_cls() if scale == "full" else self.config_cls.quick()
        journal = None
        if checkpoint_dir is not None:
            journal = CheckpointJournal(
                Path(checkpoint_dir) / self.experiment_id.lower(),
                on_corrupt="discard" if discard_corrupt else "raise",
            )
            journal.open(
                fingerprint=config_fingerprint(
                    self.experiment_id, scale, seed, config
                ),
                resume=resume,
                experiment_id=self.experiment_id,
                scale=scale,
                seed=seed,
                config=repr(config),
            )
        with ExitStack() as stack:
            # Ambient, not per-call: drivers thread kernel="auto" down to
            # the engine, and the trial dispatcher ships the ambient
            # choice to worker processes.
            stack.enter_context(use_kernel(kernel))
            if telemetry:
                stack.enter_context(
                    recording(
                        EventLog(
                            journal.directory / TELEMETRY_DIRNAME,
                            experiment=self.experiment_id,
                            scale=scale,
                            seed=repr(seed),
                            workers=0 if workers is None else workers,
                            executor="auto" if executor is None else executor,
                        )
                    )
                )
            log = active_log()
            if log is not None:
                stack.enter_context(log.span("campaign")).update(
                    experiment=self.experiment_id,
                    scale=scale,
                    seed=repr(seed),
                    workers=0 if workers is None else workers,
                    checkpointed=journal is not None,
                    kernel="auto" if kernel is None else kernel,
                )
            with campaign(
                journal,
                fault_plan,
                timeout=trial_timeout,
                max_retries=max_retries,
                executor=executor,
            ):
                return self.run(config, seed=seed, **self._run_kwargs(workers))


_MODULES = (
    e01_winning_distribution,
    e02_graph_classes,
    e03_time_scaling,
    e04_k_scaling,
    e05_martingale,
    e06_two_opinion,
    e07_path_counterexample,
    e08_mode_median_mean,
    e09_load_balancing,
    e10_stage_evolution,
    e11_vertex_vs_edge,
    e12_lambda_k_ablation,
    e13_extreme_contraction,
    e14_corollary7,
    e15_synchronous,
    e16_strong_concentration,
    e17_zealots,
    e18_churn,
    e19_adversarial,
)

REGISTRY: Dict[str, ExperimentSpec] = {
    module.EXPERIMENT_ID: ExperimentSpec(
        experiment_id=module.EXPERIMENT_ID,
        title=module.TITLE,
        config_cls=module.Config,
        run=module.run,
    )
    for module in _MODULES
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment by id (case-insensitive)."""
    key = experiment_id.upper()
    try:
        return REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(REGISTRY, key=lambda e: int(e[1:])))
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def all_experiments() -> List[ExperimentSpec]:
    """All experiments in numeric order."""
    return [REGISTRY[key] for key in sorted(REGISTRY, key=lambda e: int(e[1:]))]
