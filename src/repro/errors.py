"""Exception hierarchy for the repro package.

Every error raised intentionally by this package derives from
:class:`ReproError`, so downstream users can catch a single type.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Invalid graph construction or graph arguments."""


class GraphConstructionError(GraphError):
    """A graph could not be built (bad edge list, unsatisfiable request)."""


class DisconnectedGraphError(GraphError):
    """An operation requiring a connected graph received a disconnected one."""


class ProcessError(ReproError):
    """Invalid process configuration or state."""


class InvalidOpinionsError(ProcessError):
    """An opinion vector does not match the graph or contains bad values."""


class StoppingConditionError(ProcessError):
    """An unknown or malformed stopping condition was requested."""


class ExperimentError(ReproError):
    """An experiment driver received an invalid configuration."""


class AnalysisError(ReproError):
    """Invalid statistical analysis request (e.g. empty sample)."""


class ParallelExecutionError(AnalysisError):
    """The parallel trial layer lost trials it cannot recover.

    Raised only for infrastructure-level inconsistencies (e.g. a record
    count mismatch after retries and fallback); exceptions raised by a
    trial function itself always propagate unchanged.
    """


class FaultSpecError(ReproError):
    """A fault-injection SPEC string could not be parsed."""


class ObservabilityError(ReproError):
    """Invalid tracing/profiling request or artifact."""


class EventLogError(ObservabilityError):
    """An event log is missing, malformed, or internally inconsistent."""


class BenchCompareError(ObservabilityError):
    """A benchmark snapshot is missing, malformed, or not comparable."""


class CheckpointError(ReproError):
    """Invalid checkpoint/journal state or request."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint record failed its integrity check (corrupt/truncated)."""


class CheckpointMismatchError(CheckpointError):
    """A resume targeted a campaign recorded with different parameters."""
