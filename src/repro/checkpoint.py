"""Crash-safe checkpoint journal for Monte-Carlo campaigns.

A paper-scale campaign (hundreds of `o(n²)`-step trials per row) can be
killed hours in by an OOM, a preempted node or a ctrl-C. This module
makes that survivable: every finished chunk of trials is journaled as
one atomically-written record file, so a resumed campaign re-executes
only the trials that never finished — and produces output
**bit-for-bit identical** to an uninterrupted run.

Layout of a campaign directory::

    <dir>/manifest.json            campaign identity + config fingerprint
    <dir>/trials/<batch>/          made when the batch begins; the key
                                   ends in the batch size (b0000-grid-40)
    <dir>/trials/<batch>/t<i>.rec  one record file per journaled chunk,
                                   named after its first trial
    <dir>/telemetry/*.jsonl        event logs (``run --telemetry``)

A record file holds one checksummed frame per trial: a header line
``div-repro-record v1 index=<i> frames=<n> sha256=<hex> bytes=<b>``
followed by the trial's pinned-protocol pickle. The serial path
journals chunks of one trial, so a serial kill keeps every finished
trial; the pool journals the chunks it dispatched. One-trial files
written before chunked journaling (no ``index`` or ``frames`` field;
the index is the file name's) are read the same way. Any other entry
in a campaign directory is ignored, so directories left by older
versions keep resuming.

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
* Record files and the manifest are written via
  :func:`repro.io.atomic_write_bytes` (same-directory temp file,
  ``fsync``, ``os.replace``), so a crash mid-write never leaves a
  truncated file: a chunk is journaled whole or not at all.
* Each frame carries a SHA-256 and the length of its payload, and every
  header repeats the file's frame count; a corrupt or truncated file
  raises :class:`~repro.errors.CheckpointCorruptError` on load (or,
  with ``on_corrupt="discard"``, is deleted and its whole chunk re-run).
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
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
)
from repro.faults import FaultPlan
from repro.io import atomic_write_bytes, atomic_write_text

PathLike = Union[str, Path]

#: Journal format version, stored in the manifest and record headers.
#: It is part of every campaign's fingerprint, so a bump would refuse to
#: resume any older campaign; header fields are added without one.
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
TRIALS_DIRNAME = "trials"

#: Record files are ``t<index>.rec`` inside their batch directory, named
#: after the first trial they hold.
_RECORD_NAME = re.compile(r"^t(\d+)\.rec$")

#: Pickle protocol pinned so identical outcomes give identical bytes
#: across runs of the same interpreter (the journal-diff invariant).
_PICKLE_PROTOCOL = 4

_HEADER_PREFIX = b"div-repro-record"

#: A batch key as :meth:`CampaignSession.begin_batch` makes it; the last
#: field is the batch size.
_BATCH_KEY = re.compile(r"^b\d+-.+-(\d+)$")

#: Trailing seconds of journal writes that :meth:`Census.recent_rate`
#: counts.
RATE_WINDOW = 10.0

#: One frame's header line. One-trial files written before chunked
#: journaling have no ``index`` or ``frames`` field.
_HEADER = re.compile(
    _HEADER_PREFIX + rb" v\d+ (?:index=(\d+) frames=([1-9]\d*) )?"
    rb"sha256=([0-9a-f]{64}) bytes=(\d+)\n"
)


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


def _encode_frame(index: int, frames: int, payload: bytes) -> bytes:
    digest = hashlib.sha256(payload).hexdigest()
    header = (
        f"{_HEADER_PREFIX.decode()} v{FORMAT_VERSION} index={index} "
        f"frames={frames} sha256={digest} bytes={len(payload)}\n"
    )
    return header.encode("ascii") + payload


def _decode_frames(
    path: Path, blob: bytes, name_index: int
) -> List[Tuple[int, bytes]]:
    """The verified ``(index, payload)`` frames of one record file.

    A header without ``index``/``frames`` is a one-trial file from before
    chunked journaling; its trial index is ``name_index``.
    """
    frames: List[Tuple[int, bytes]] = []
    expected = 1
    offset = 0
    while len(frames) < expected:
        header = _HEADER.match(blob, offset)
        if header is None:
            raise CheckpointCorruptError(
                f"{path}: not a checkpoint record"
                if offset == 0
                else f"{path}: truncated record ({len(frames)} of "
                f"{expected} frames)"
            )
        index, count, digest, size = header.groups()
        index = name_index if index is None else int(index)
        count = 1 if count is None else int(count)
        if offset == 0:
            expected = count
        elif count != expected:
            raise CheckpointCorruptError(f"{path}: inconsistent record headers")
        offset = header.end() + int(size)
        payload = blob[header.end() : offset]
        if len(payload) != int(size):
            raise CheckpointCorruptError(
                f"{path}: truncated record ({len(payload)} of "
                f"{size.decode()} payload bytes of trial {index})"
            )
        if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
            raise CheckpointCorruptError(f"{path}: record checksum mismatch")
        frames.append((index, payload))
    if offset != len(blob):
        raise CheckpointCorruptError(
            f"{path}: {len(blob) - offset} stray bytes after the record"
        )
    return frames


def _decode_payload(path: Path, index: int, payload: bytes) -> object:
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise CheckpointCorruptError(
            f"{path}: undecodable payload of trial {index}"
        ) from exc


@dataclass
class Census:
    """A journal's progress, read without unpickling a trial: a trial is
    completed once an intact record holds it, and a batch counts toward
    the total from the moment it begins."""

    #: Intact trials of every begun batch (0 until its first chunk lands).
    per_batch: Dict[str, int] = field(default_factory=dict)
    #: Record files that fail their integrity check.
    damaged: List[Path] = field(default_factory=list)
    #: ``(write time, trials)`` of every intact record file.
    writes: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return sum(self.per_batch.values())

    @property
    def total(self) -> int:
        """The sizes of the begun batches, read off their keys. A key
        without a size (older or hand-made journals) counts the trials
        it holds."""
        total = 0
        for batch, count in self.per_batch.items():
            match = _BATCH_KEY.match(batch)
            total += max(int(match.group(1)) if match else 0, count)
        return total

    def recent_rate(self, now: float) -> float:
        """Trials/sec journaled over :data:`RATE_WINDOW` before ``now``.

        The trials of the record files written after the window's first
        one, over the time from that write to the newest, so the idle
        time before a campaign that started or resumed inside the window
        does not dilute the rate. Fewer than two writes give 0.
        """
        start = now - RATE_WINDOW
        recent = sorted(write for write in self.writes if write[0] >= start)
        if len(recent) < 2:
            return 0.0
        span = recent[-1][0] - recent[0][0]
        trials = sum(count for _, count in recent[1:])
        return trials / span if span > 0.0 else 0.0

    def eta_seconds(self, now: float) -> Optional[float]:
        """Seconds to journal the remaining trials at the recent rate:
        0 when none remain, ``None`` without a rate."""
        remaining = self.total - self.completed
        if remaining <= 0:
            return 0.0
        rate = self.recent_rate(now)
        return remaining / rate if rate > 0.0 else None


class CheckpointJournal:
    """The durable trial journal of one campaign.

    Parameters
    ----------
    directory:
        Campaign directory (created on :meth:`open`).
    on_corrupt:
        ``"raise"`` (default) surfaces a damaged record file as
        :class:`CheckpointCorruptError`; ``"discard"`` deletes it so
        every trial it held is simply re-executed on resume.
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

    def _batch_dirs(self) -> List[Path]:
        trials_dir = self.directory / TRIALS_DIRNAME
        if not trials_dir.is_dir():
            return []
        return [path for path in sorted(trials_dir.iterdir()) if path.is_dir()]

    def begin(self, batch: str) -> None:
        """Make the batch's directory, so it counts toward the campaign's
        total before its first chunk is journaled."""
        self._batch_dir(batch).mkdir(parents=True, exist_ok=True)

    def record(
        self,
        batch: str,
        outcomes: Mapping[int, object],
        fault_plan: Optional[FaultPlan] = None,
    ) -> Path:
        """Durably journal one finished chunk of trials with one atomic write.

        ``outcomes`` maps trial index to outcome. The chunk lands in one
        record file, named after its first trial, through one
        write-then-rename, so it is journaled whole or not at all.
        ``fault_plan`` lets chaos drills damage the file *after* it is
        written, exercising the corruption-detection path on resume.
        """
        indices = sorted(outcomes)
        path = self._record_path(batch, indices[0])
        path.parent.mkdir(parents=True, exist_ok=True)
        frames = []
        for index in indices:
            try:
                payload = pickle.dumps(outcomes[index], protocol=_PICKLE_PROTOCOL)
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                raise CheckpointError(
                    f"trial outcome for {batch}/t{index} is not picklable, so "
                    "it cannot be journaled; return plain data from trials or "
                    "run without a checkpoint directory"
                ) from exc
            frames.append(_encode_frame(index, len(indices), payload))
        atomic_write_bytes(path, b"".join(frames))
        if fault_plan is not None:
            for index in indices:
                fault_plan.damage_record(index, path)
        return path

    def _record_files(
        self, batch: Optional[str] = None
    ) -> Iterator[Tuple[str, int, Path]]:
        """``(batch, name index, path)`` of every record file, in order."""
        batch_dirs = self._batch_dirs() if batch is None else [self._batch_dir(batch)]
        for batch_dir in batch_dirs:
            if not batch_dir.is_dir():
                continue
            for path in sorted(batch_dir.iterdir()):
                match = _RECORD_NAME.match(path.name)
                if match is not None:
                    yield batch_dir.name, int(match.group(1)), path

    def _frames(
        self, batch: Optional[str] = None
    ) -> Iterator[Tuple[str, int, Path, bytes]]:
        """``(batch, index, path, payload)`` of every journaled trial.

        A damaged file raises :class:`CheckpointCorruptError` or, with
        ``on_corrupt="discard"``, is deleted so its chunk re-runs.
        """
        for batch_name, name_index, path in self._record_files(batch):
            try:
                frames = _decode_frames(path, path.read_bytes(), name_index)
            except CheckpointCorruptError:
                if self.on_corrupt == "raise":
                    raise
                path.unlink()
                continue
            for index, payload in frames:
                yield batch_name, index, path, payload

    def completed(self, batch: str) -> Dict[int, object]:
        """Outcomes of every journaled trial of ``batch``, keyed by index.

        Damaged record files raise :class:`CheckpointCorruptError` (or,
        with ``on_corrupt="discard"``, are deleted and left to re-run).
        """
        return {
            index: _decode_payload(path, index, payload)
            for _, index, path, payload in self._frames(batch)
        }

    def has_records(self) -> bool:
        """Whether any record file exists (damaged ones included)."""
        return next(self._record_files(), None) is not None

    def census(self) -> Census:
        """Intact trials per begun batch, damaged files and write times.

        Unlike :meth:`iter_records` this never raises on, or deletes, a
        damaged file: it lists it, as one whose chunk a resume with
        ``on_corrupt="discard"`` would delete and rerun.
        """
        census = Census(per_batch={path.name: 0 for path in self._batch_dirs()})
        for batch, name_index, path in self._record_files():
            try:
                frames = _decode_frames(path, path.read_bytes(), name_index)
            except CheckpointCorruptError:
                census.damaged.append(path)
                continue
            census.per_batch[batch] += len(frames)
            census.writes.append((path.stat().st_mtime, len(frames)))
        return census

    def iter_records(self) -> Iterator[Tuple[str, int, Path]]:
        """Yield ``(batch, index, path)`` for every journaled trial.

        ``path`` is the record file holding the trial; one pool chunk's
        trials share it.
        """
        for batch, index, path, _ in self._frames():
            yield batch, index, path

    def batches(self) -> List[str]:
        return sorted({batch for batch, _, _ in self._record_files()})


def diff_journals(
    left: CheckpointJournal, right: CheckpointJournal
) -> List[str]:
    """Compare two journals trial by trial, bit-for-bit.

    Returns human-readable difference lines (empty = identical). Each
    trial's *payload bytes* are compared, whatever chunk file holds
    them, so this is the strongest form of the determinism guarantee: a
    faulted, killed-and-resumed parallel campaign must journal exactly
    the bytes of a pristine serial one.
    """
    left_payloads = {(b, i): p for b, i, _, p in left._frames()}
    right_payloads = {(b, i): p for b, i, _, p in right._frames()}
    differences = []
    for key in sorted(set(left_payloads) | set(right_payloads)):
        batch, index = key
        label = f"{batch}/t{index}"
        if key not in left_payloads:
            differences.append(f"only in {right.directory}: {label}")
        elif key not in right_payloads:
            differences.append(f"only in {left.directory}: {label}")
        elif left_payloads[key] != right_payloads[key]:
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
    dispatch settings (``timeout``, ``max_retries``, ``executor``) from
    it alone, so no experiment driver threads them through. Batch keys
    are handed out in call order, which is deterministic for a given
    driver, so they are stable across resume.
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
        """Reserve the next batch key (``b0003-grid-360``) and begin the
        batch in the journal."""
        key = f"b{self._next_batch:04d}-{kind}-{size}"
        self._next_batch += 1
        if self.journal is not None:
            self.journal.begin(key)
        return key

    def completed(self, batch: str) -> Dict[int, object]:
        """Journaled outcomes of ``batch`` (none without a journal)."""
        return {} if self.journal is None else self.journal.completed(batch)

    def record(self, batch: str, outcomes: Mapping[int, object]) -> None:
        """Journal one finished chunk in one write (a no-op without a journal)."""
        if self.journal is not None:
            self.journal.record(batch, outcomes, fault_plan=self.fault_plan)

    def chunk_delivered(self, indices: Sequence[int]) -> None:
        """A chunk is journaled and reported: fire any scripted ``abort``.

        The abort stands for a launcher dying after a fully recorded
        chunk, so its event log and its journal hold the same trials.
        """
        if self.fault_plan is not None:
            for index in indices:
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
