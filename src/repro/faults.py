"""Deterministic fault injection for Monte-Carlo campaigns.

Reproducing Theorem 1 / Theorem 2 at paper scale means campaigns of
hundreds of trials — exactly the workloads where worker crashes, hung
chunks and interrupted runs show up. This module scripts those failures
so they are *reproducible*: a :class:`FaultPlan` names faults by trial
index, the same index used for per-trial seed derivation, so a chaos
drill fails the same trial on every run.

The plan is consulted in two places:

* **worker side** — :meth:`FaultPlan.worker_fault` runs inside a worker
  process just before a trial executes and can kill the worker
  (``crash``), stall it past the chunk timeout (``hang``) or merely
  delay it (``slow``). Faults never fire in the parent process, so the
  in-process fallback path and serial reference runs are unaffected.
* **parent side** — :meth:`FaultPlan.damage_record` vandalizes the
  just-written checkpoint record file holding a trial (``corrupt`` /
  ``truncate``) and :meth:`FaultPlan.maybe_abort` raises
  :class:`InjectedAbort` after the chunk holding a trial is recorded
  (``abort``), simulating process death mid-campaign deterministically.

SPEC grammar (``div-repro run --inject-faults SPEC``)::

    SPEC   := clause (";" clause)*
    clause := KIND "@" INDEX [":" ARG]
    KIND   := crash | hang | slow | corrupt | truncate | abort

``crash@I[:N]`` kills the worker executing trial ``I`` (first ``N``
attempts only, default every attempt); ``hang@I[:N]`` stalls it for
``hang_seconds``; ``slow@I[:S]`` sleeps ``S`` seconds (default 0.05)
then runs normally; ``corrupt@I`` / ``truncate@I`` damage the
checkpoint record file holding trial ``I`` (its whole chunk) after it
is written; ``abort@I`` aborts the campaign in the parent right after
the chunk holding trial ``I`` is journaled and logged. Duplicate
``(KIND, INDEX)`` clauses are rejected — a doubled clause is always a
typo, never a feature.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import FaultSpecError

#: Fault kinds that execute inside a worker process.
WORKER_KINDS = ("crash", "hang", "slow")

#: Fault kinds that damage a checkpoint record after it is written.
RECORD_KINDS = ("corrupt", "truncate")

#: All valid clause kinds.
ALL_KINDS = WORKER_KINDS + RECORD_KINDS + ("abort",)

#: Exit code of a worker killed by a ``crash`` fault.
CRASH_EXIT_CODE = 23

#: Bytes scribbled over a record by a ``corrupt`` fault.
CORRUPTION = b"\x00chaos\x00" * 4


class InjectedAbort(RuntimeError):
    """A scripted ``abort`` fault fired: the campaign stops here.

    Deliberately *not* a :class:`~repro.errors.ReproError`: an abort
    stands in for process death, so it must escape ``except ReproError``
    recovery paths exactly as a real crash would.
    """


@dataclass(frozen=True)
class FaultClause:
    """One scripted fault: what happens, at which trial index."""

    kind: str
    index: int
    #: ``crash``/``hang``: number of attempts that fault (None = every
    #: attempt). ``slow``: delay in seconds. Unused by the rest.
    arg: Optional[float] = None

    def render(self) -> str:
        if self.arg is None:
            return f"{self.kind}@{self.index}"
        arg = int(self.arg) if float(self.arg).is_integer() else self.arg
        return f"{self.kind}@{self.index}:{arg}"


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, picklable fault script keyed by trial index.

    The plan captures the parent pid at construction; worker faults
    check it so they only ever fire in a *different* process. Attempt
    budgets (``crash@I:1`` — crash the first attempt, let the retry
    succeed) are tracked in ``scratch`` files because worker processes
    share no memory across retry rounds.
    """

    clauses: Tuple[FaultClause, ...]
    main_pid: int = field(default_factory=os.getpid)
    scratch: Optional[str] = None
    #: How long a ``hang`` fault stalls its worker; keep it above the
    #: chunk timeout but small enough that stray workers exit promptly.
    hang_seconds: float = 8.0

    @classmethod
    def parse(
        cls,
        spec: str,
        *,
        scratch: Optional[str] = None,
        hang_seconds: float = 8.0,
    ) -> "FaultPlan":
        """Parse a SPEC string (see module docstring for the grammar)."""
        clauses = []
        for raw in spec.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            kind, _, location = raw.partition("@")
            kind = kind.strip()
            if kind not in ALL_KINDS:
                raise FaultSpecError(
                    f"unknown fault kind {kind!r} in clause {raw!r} "
                    f"(known: {', '.join(ALL_KINDS)})"
                )
            index_text, _, arg_text = location.partition(":")
            try:
                index = int(index_text)
            except ValueError:
                raise FaultSpecError(
                    f"clause {raw!r}: expected KIND@INDEX[:ARG] with an "
                    f"integer trial index, got {index_text!r}"
                ) from None
            if index < 0:
                raise FaultSpecError(f"clause {raw!r}: trial index must be >= 0")
            arg: Optional[float] = None
            if arg_text:
                try:
                    arg = float(arg_text)
                except ValueError:
                    raise FaultSpecError(
                        f"clause {raw!r}: argument must be numeric, got "
                        f"{arg_text!r}"
                    ) from None
                if arg <= 0:
                    raise FaultSpecError(
                        f"clause {raw!r}: argument must be positive"
                    )
            if kind in RECORD_KINDS + ("abort",) and arg is not None:
                raise FaultSpecError(
                    f"clause {raw!r}: {kind} takes no argument"
                )
            clauses.append(FaultClause(kind=kind, index=index, arg=arg))
        if not clauses:
            raise FaultSpecError(f"empty fault spec {spec!r}")
        seen = set()
        for clause in clauses:
            key = (clause.kind, clause.index)
            if key in seen:
                raise FaultSpecError(
                    f"duplicate clause {clause.render()!r} in spec "
                    f"{spec!r}: each (kind, index) pair may appear once"
                )
            seen.add(key)
        if scratch is None and any(
            c.kind in ("crash", "hang") and c.arg is not None for c in clauses
        ):
            # Attempt-bounded faults need cross-process bookkeeping.
            scratch = tempfile.mkdtemp(prefix="div-repro-faults-")
        return cls(
            clauses=tuple(clauses), scratch=scratch, hang_seconds=hang_seconds
        )

    def render(self) -> str:
        """The plan as a SPEC string (parse/render round-trips)."""
        return ";".join(clause.render() for clause in self.clauses)

    def _for(self, index: int, *kinds: str) -> Optional[FaultClause]:
        for clause in self.clauses:
            if clause.index == index and clause.kind in kinds:
                return clause
        return None

    # -- worker side ------------------------------------------------------

    def worker_fault(self, index: int) -> None:
        """Apply any scripted worker fault for trial ``index``.

        Called by the parallel layer just before the trial runs. A
        no-op in the parent process (serial path, in-process fallback),
        so injected failures never block the recovery path they test.
        """
        if os.getpid() == self.main_pid:
            return
        clause = self._for(index, *WORKER_KINDS)
        if clause is None:
            return
        if clause.kind == "slow":
            time.sleep(clause.arg if clause.arg is not None else 0.05)
            return
        if clause.arg is not None and not self._take_attempt(clause):
            return
        if clause.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        time.sleep(self.hang_seconds)  # hang: outlive the chunk timeout

    def _take_attempt(self, clause: FaultClause) -> bool:
        """Consume one attempt of a bounded fault; False once exhausted.

        Retry rounds are sequential and at most one worker runs a given
        trial at a time, so a plain counter file is race-free.
        """
        assert self.scratch is not None
        counter = os.path.join(
            self.scratch, f"{clause.kind}-{clause.index}.attempts"
        )
        try:
            with open(counter, "r", encoding="utf-8") as handle:
                used = int(handle.read() or 0)
        except FileNotFoundError:
            used = 0
        if used >= clause.arg:
            return False
        with open(counter, "w", encoding="utf-8") as handle:
            handle.write(str(used + 1))
        return True

    # -- parent side ------------------------------------------------------

    def damage_record(self, index: int, path: "os.PathLike") -> Optional[str]:
        """Corrupt or truncate the record file ``path`` holding trial ``index``.

        Called by the checkpoint journal for each trial of a chunk after
        the chunk's file is durably written; returns the fault kind
        applied, or ``None``. A file is damaged only as it is written;
        journaling its chunk again repairs it.
        """
        clause = self._for(index, *RECORD_KINDS)
        if clause is None:
            return None
        if clause.kind == "corrupt":
            with open(path, "r+b") as handle:
                handle.seek(0)
                handle.write(CORRUPTION)
        else:
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(size // 2)
        return clause.kind

    def maybe_abort(self, index: int) -> None:
        """Raise :class:`InjectedAbort` if an ``abort`` is scripted here.

        Fired in the parent once the chunk holding trial ``index`` is
        journaled and reported — the deterministic stand-in for a
        SIGKILL mid-campaign.
        """
        if self._for(index, "abort") is not None:
            raise InjectedAbort(
                f"injected abort after trial {index} (fault plan "
                f"{self.render()!r})"
            )

    #: Indices with worker-side faults, for tests and diagnostics.
    def worker_fault_indices(self) -> Tuple[int, ...]:
        return tuple(
            sorted({c.index for c in self.clauses if c.kind in WORKER_KINDS})
        )

    def summary(self) -> Dict[str, int]:
        """Clause counts per kind, for logs and reports."""
        counts: Dict[str, int] = {}
        for clause in self.clauses:
            counts[clause.kind] = counts.get(clause.kind, 0) + 1
        return counts
