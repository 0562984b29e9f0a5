"""Crash-safe checkpoint journal for Monte-Carlo campaigns.

A paper-scale campaign (hundreds of `o(n²)`-step trials per row) can be
killed hours in by an OOM, a preempted node or a ctrl-C. This module
makes that survivable: every completed trial is journaled as its own
atomically-written record, so a resumed campaign re-executes only the
trials that never finished — and produces output **bit-for-bit
identical** to an uninterrupted run.

Layout of a campaign directory::

    <dir>/manifest.json            campaign identity + config fingerprint
    <dir>/trials/<batch>/t<i>.rec  one record per completed trial
    <dir>/telemetry/*.jsonl        progress feeds (``run --telemetry``)

Any other entry in a campaign directory is ignored, so directories left
by older versions keep resuming.

Determinism guarantee
---------------------
Per-trial ``SeedSequence`` children are derived from the campaign's
master seed exactly as on a fresh run — *never* from resume progress.
The Monte-Carlo drivers always spawn the full seed tree and only skip
the *execution* of journaled trials, merging cached outcomes by trial
index. Batch keys are assigned in driver call order, which is itself
deterministic, so an interrupted-and-resumed campaign replays the same
(batch, index, seed) triples as an uninterrupted one.

Safety
------
* Records and the manifest are written via
  :func:`repro.io.atomic_write_bytes` (same-directory temp file +
  ``os.replace``), so a crash mid-write never leaves a truncated file.
* Each record carries a SHA-256 of its payload; a corrupt or truncated
  record raises :class:`~repro.errors.CheckpointCorruptError` on load
  (or is discarded and re-run with ``on_corrupt="discard"``).
* The manifest stores a fingerprint of ``(experiment, scale, seed,
  config)``; resuming with mismatched parameters raises
  :class:`~repro.errors.CheckpointMismatchError` instead of silently
  mixing incompatible trials.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
)
from repro.faults import FaultPlan
from repro.io import atomic_write_bytes, atomic_write_text
from repro.obs.metrics import active_metrics
from repro.obs.telemetry import active_telemetry
from repro.obs.tracing import current_tracer

PathLike = Union[str, Path]

#: Journal format version, stored in the manifest and record headers.
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
TRIALS_DIRNAME = "trials"

#: Record files are ``t<index>.rec`` inside their batch directory.
_RECORD_NAME = re.compile(r"^t(\d+)\.rec$")

#: Pickle protocol pinned so identical outcomes give identical bytes
#: across runs of the same interpreter (the journal-diff invariant).
_PICKLE_PROTOCOL = 4

_HEADER_PREFIX = b"div-repro-record"


def config_fingerprint(
    experiment_id: str, scale: str, seed: object, config: object
) -> str:
    """Stable digest of everything that determines a campaign's trials.

    Any change to the experiment, scale, master seed or config dataclass
    changes the fingerprint, which makes a resume against the old
    journal refuse loudly instead of splicing incompatible outcomes.
    """
    payload = (
        f"v{FORMAT_VERSION}|{experiment_id}|{scale}|seed={seed!r}|{config!r}"
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _encode_record(outcome: object) -> bytes:
    payload = pickle.dumps(outcome, protocol=_PICKLE_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest()
    header = (
        f"{_HEADER_PREFIX.decode()} v{FORMAT_VERSION} "
        f"sha256={digest} bytes={len(payload)}\n"
    )
    return header.encode("ascii") + payload


def _decode_record(path: Path, blob: bytes) -> object:
    newline = blob.find(b"\n")
    if newline < 0 or not blob.startswith(_HEADER_PREFIX):
        raise CheckpointCorruptError(f"{path}: not a checkpoint record")
    fields = blob[:newline].decode("ascii", errors="replace").split()
    try:
        declared = dict(part.split("=", 1) for part in fields[2:])
        expected_digest = declared["sha256"]
        expected_bytes = int(declared["bytes"])
    except (KeyError, ValueError):
        raise CheckpointCorruptError(f"{path}: malformed record header") from None
    payload = blob[newline + 1 :]
    if len(payload) != expected_bytes:
        raise CheckpointCorruptError(
            f"{path}: truncated record ({len(payload)} of "
            f"{expected_bytes} payload bytes)"
        )
    if hashlib.sha256(payload).hexdigest() != expected_digest:
        raise CheckpointCorruptError(f"{path}: record checksum mismatch")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise CheckpointCorruptError(f"{path}: undecodable record payload") from exc


class CheckpointJournal:
    """The durable trial journal of one campaign.

    Parameters
    ----------
    directory:
        Campaign directory (created on :meth:`open`).
    on_corrupt:
        ``"raise"`` (default) surfaces a damaged record as
        :class:`CheckpointCorruptError`; ``"discard"`` deletes it so the
        trial is simply re-executed on resume.
    """

    def __init__(self, directory: PathLike, *, on_corrupt: str = "raise"):
        if on_corrupt not in ("raise", "discard"):
            raise CheckpointError(
                f"on_corrupt must be 'raise' or 'discard', got {on_corrupt!r}"
            )
        self.directory = Path(directory)
        self.on_corrupt = on_corrupt

    # -- manifest ---------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def read_manifest(self) -> dict:
        """Load and validate the campaign manifest."""
        try:
            text = self.manifest_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise CheckpointError(
                f"{self.directory} has no {MANIFEST_NAME}; not a campaign "
                "directory"
            ) from None
        try:
            manifest = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointCorruptError(
                f"{self.manifest_path}: unreadable manifest"
            ) from exc
        if manifest.get("format") != "div-repro-checkpoint":
            raise CheckpointError(
                f"{self.manifest_path}: not a div-repro checkpoint manifest"
            )
        return manifest

    def open(
        self,
        *,
        fingerprint: str,
        resume: bool = False,
        **identity: object,
    ) -> dict:
        """Create the campaign (or validate it for resume); return the manifest.

        ``identity`` fields (experiment id, scale, seed, config repr …)
        are stored verbatim for humans; only ``fingerprint`` decides
        compatibility. An existing campaign with a different fingerprint
        raises :class:`CheckpointMismatchError`; one that already holds
        records requires ``resume=True`` so a fresh run cannot silently
        reuse stale trials.
        """
        if self.manifest_path.exists():
            manifest = self.read_manifest()
            if manifest.get("fingerprint") != fingerprint:
                theirs = ", ".join(
                    f"{k}={manifest.get(k)!r}" for k in sorted(identity)
                )
                raise CheckpointMismatchError(
                    f"{self.directory}: campaign was recorded with different "
                    f"parameters ({theirs}); refusing to mix trials. Use a "
                    "fresh --checkpoint-dir or rerun with the original "
                    "parameters."
                )
            if not resume and self.has_records():
                raise CheckpointError(
                    f"{self.directory}: campaign already has completed "
                    "trials; pass --resume to continue it (or point "
                    "--checkpoint-dir at a fresh directory)."
                )
            return manifest
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": "div-repro-checkpoint",
            "version": FORMAT_VERSION,
            "fingerprint": fingerprint,
        }
        manifest.update({key: value for key, value in identity.items()})
        atomic_write_text(
            self.manifest_path, json.dumps(manifest, indent=2, default=str) + "\n"
        )
        return manifest

    # -- records ----------------------------------------------------------

    def _batch_dir(self, batch: str) -> Path:
        return self.directory / TRIALS_DIRNAME / batch

    def _record_path(self, batch: str, index: int) -> Path:
        return self._batch_dir(batch) / f"t{index}.rec"

    def record(
        self,
        batch: str,
        index: int,
        outcome: object,
        fault_plan: Optional[FaultPlan] = None,
    ) -> Path:
        """Durably journal one completed trial (atomic write-then-rename).

        ``fault_plan`` lets chaos drills damage the record *after* it is
        written, exercising the corruption-detection path on resume.
        """
        path = self._record_path(batch, index)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            blob = _encode_record(outcome)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise CheckpointError(
                f"trial outcome for {batch}/t{index} is not picklable, so it "
                "cannot be journaled; return plain data from trials or run "
                "without a checkpoint directory"
            ) from exc
        atomic_write_bytes(path, blob)
        if fault_plan is not None:
            fault_plan.damage_record(index, path)
        return path

    def completed(self, batch: str) -> Dict[int, object]:
        """Outcomes of every journaled trial of ``batch``, keyed by index.

        Damaged records raise :class:`CheckpointCorruptError` (or, with
        ``on_corrupt="discard"``, are deleted and left to re-run).
        """
        outcomes: Dict[int, object] = {}
        batch_dir = self._batch_dir(batch)
        if not batch_dir.is_dir():
            return outcomes
        for path in sorted(batch_dir.iterdir()):
            match = _RECORD_NAME.match(path.name)
            if match is None:
                continue
            try:
                outcomes[int(match.group(1))] = _decode_record(
                    path, path.read_bytes()
                )
            except CheckpointCorruptError:
                if self.on_corrupt == "raise":
                    raise
                path.unlink()
        return outcomes

    def has_records(self) -> bool:
        for _ in self.iter_records():
            return True
        return False

    def iter_records(self) -> Iterator[Tuple[str, int, Path]]:
        """Yield ``(batch, index, path)`` for every journaled record."""
        trials_dir = self.directory / TRIALS_DIRNAME
        if not trials_dir.is_dir():
            return
        for batch_dir in sorted(p for p in trials_dir.iterdir() if p.is_dir()):
            for path in sorted(batch_dir.iterdir()):
                match = _RECORD_NAME.match(path.name)
                if match is not None:
                    yield batch_dir.name, int(match.group(1)), path

    def batches(self) -> List[str]:
        return sorted({batch for batch, _, _ in self.iter_records()})


def diff_journals(
    left: CheckpointJournal, right: CheckpointJournal
) -> List[str]:
    """Compare two journals' trial records bit-for-bit.

    Returns human-readable difference lines (empty = identical). Record
    *payload bytes* are compared, so this is the strongest form of the
    determinism guarantee: a faulted, killed-and-resumed parallel
    campaign must journal exactly the bytes of a pristine serial one.
    """
    left_records = {(b, i): p for b, i, p in left.iter_records()}
    right_records = {(b, i): p for b, i, p in right.iter_records()}
    differences = []
    for key in sorted(set(left_records) | set(right_records)):
        batch, index = key
        label = f"{batch}/t{index}"
        if key not in left_records:
            differences.append(f"only in {right.directory}: {label}")
        elif key not in right_records:
            differences.append(f"only in {left.directory}: {label}")
        elif (
            left_records[key].read_bytes() != right_records[key].read_bytes()
        ):
            differences.append(f"record differs: {label}")
    return differences


# ---------------------------------------------------------------------------
# Ambient campaign session
# ---------------------------------------------------------------------------


@dataclass
class CampaignSession:
    """The active campaign the Monte-Carlo drivers consult.

    Installed by :func:`campaign`; ``run_trials`` / ``run_trials_over``
    pick up the journal (skip + record trials), the fault plan and the
    parallel-layer overrides without any experiment-driver signature
    changes. Batch keys are handed out in call order, which is
    deterministic for a given driver, so they are stable across resume.
    """

    journal: Optional[CheckpointJournal] = None
    fault_plan: Optional[FaultPlan] = None
    timeout: Optional[float] = None
    max_retries: Optional[int] = None
    #: Requested executor backend name (``"auto"``/``None`` = resolve
    #: from the worker count; see ``repro.parallel.execute_tasks``).
    executor: Optional[str] = None
    _next_batch: int = field(default=0, repr=False)

    def begin_batch(self, kind: str, size: int) -> str:
        """Reserve the next batch key (``b0003-grid-360``)."""
        key = f"b{self._next_batch:04d}-{kind}-{size}"
        self._next_batch += 1
        return key

    def completed(self, batch: str) -> Dict[int, object]:
        if self.journal is None:
            return {}
        outcomes = self.journal.completed(batch)
        if outcomes:
            metrics = active_metrics()
            if metrics is not None:
                metrics.inc("checkpoint.cache_hits", len(outcomes))
            tracer = current_tracer()
            if tracer is not None:
                tracer.event("checkpoint.resume", batch=batch, cached=len(outcomes))
            feed = active_telemetry()
            if feed is not None:
                feed.event(
                    "checkpoint.resume", batch=batch, cached=len(outcomes)
                )
        return outcomes

    def record(self, batch: str, index: int, outcome: object) -> None:
        """Journal one finished trial (a no-op without a journal)."""
        if self.journal is not None:
            started = time.perf_counter()
            self.journal.record(
                batch, index, outcome, fault_plan=self.fault_plan
            )
            metrics = active_metrics()
            if metrics is not None:
                metrics.inc("checkpoint.records")
                metrics.observe(
                    "checkpoint.record_seconds", time.perf_counter() - started
                )

    def trial_delivered(self, index: int) -> None:
        """A trial is journaled and reported: fire a scripted ``abort``.

        The abort stands for a launcher dying after a fully recorded
        trial, so its feed and its journal hold the same trials.
        """
        if self.fault_plan is not None:
            self.fault_plan.maybe_abort(index)


_ACTIVE: List[CampaignSession] = []


def current_session() -> Optional[CampaignSession]:
    """The innermost active campaign session, if any."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def campaign(
    journal: Optional[CheckpointJournal] = None,
    fault_plan: Optional[FaultPlan] = None,
    *,
    timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    executor: Optional[str] = None,
) -> Iterator[CampaignSession]:
    """Install a campaign session for the enclosed driver run.

    Sessions nest (an experiment driving a sub-experiment gets its own
    batch numbering); the previous session is restored on exit even
    when the campaign dies mid-run.
    """
    session = CampaignSession(
        journal=journal,
        fault_plan=fault_plan,
        timeout=timeout,
        max_retries=max_retries,
        executor=executor,
    )
    _ACTIVE.append(session)
    try:
        yield session
    finally:
        _ACTIVE.pop()
