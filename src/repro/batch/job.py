"""The on-disk half of a batch job: one append-only journal.

Layout of a job directory::

    <job-dir>/
    ├── job.json       spec + config snapshot + model identity
    ├── journal.log    append-only records: attempts, commits,
    │                  quarantines, fault-injection fires
    └── results.json   merged output, written once on completion

Each journal record is one ``\\n``-terminated line::

    <kind> <subject> <sha256> <body>

``body`` is the canonical JSON (:func:`repro.batch.spec.canonical_json`,
which escapes newlines) of an object that names the subject again, and
``sha256`` digests that text.  A record is *verified* when its digest
holds, its body parses and the body names the header's subject.  Kinds:

* ``attempt <shard>`` — body ``{"shard": N}``; a shard's attempt count
  is the number of its verified attempt records after its last verified
  commit, stale or not (an attempt whose commit is torn or damaged
  still counts);
* ``commit <shard>`` — body is the shard's checkpoint payload;
* ``quarantine <shard>`` — body ``{"shard", "reason", "attempts",
  "failures"}``;
* ``fault <fault-id>`` — body ``{"fault": id}``; only
  ``REPRO_BATCH_FAULT`` writes these.

Durability contract:

* **every append is durable before its call returns** — written,
  flushed and fsynced to the journal, which the store opens once per
  job; the job directory is fsynced once, when the journal is created;
* **attempts are charged BEFORE the shard runs**, so a shard that
  SIGKILLs the process still consumes an attempt on resume; a shard
  whose count reaches ``max_retries + 1`` without a committed
  checkpoint is quarantined instead of re-run forever (poison-shard
  protection);
* **commits bind to their inputs**: the payload records
  ``inputs_sha256`` (shard items + model content key); a shard's last
  verified commit wins, and one whose digest does not match the current
  job is stale and ignored;
* **damage costs one record**: a reader scans the journal line by line
  and skips (logs and counts under ``batch.checkpoints.invalid``) every
  line that does not verify; an unterminated last line — a kill
  mid-append, or a writer still appending — is ignored, and a writer
  cuts it off (truncate + fsync) before its first append, so a torn
  record never merges with the next one.
"""

from __future__ import annotations

import json
import logging
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.batch.spec import JobSpec, canonical_json, sha256_hex
from repro.core import observability
from repro.core.errors import BatchError
from repro.core.fsutil import atomic_write, fsync_dir

logger = logging.getLogger(__name__)

JOB_FORMAT = "cati-batch-job/1"
JOURNAL_NAME = "journal.log"

#: Record kind → the body field that names the record's subject.
_SUBJECT_FIELDS = {"attempt": "shard", "commit": "shard",
                   "quarantine": "shard", "fault": "fault"}


def journal_line(kind: str, subject: int | str, body: dict) -> bytes:
    """One journal record: ``<kind> <subject> <sha256> <body>\\n``."""
    canonical = canonical_json(body)
    return (f"{kind} {subject} {sha256_hex(canonical)} {canonical}\n"
            .encode("utf-8"))


def _verified(line: bytes) -> tuple[str, int | str, dict] | None:
    """(kind, subject, body) of one complete journal line, or None.

    ``line`` has no newline.  The digest is checked against the body
    bytes as written, which are the canonical text it was taken over.
    """
    parts = line.split(b" ", 3)
    if len(parts) != 4 or sha256_hex(parts[3]).encode("ascii") != parts[2]:
        return None
    try:
        kind = parts[0].decode("ascii")
        body = json.loads(parts[3])
    except ValueError:  # includes UnicodeDecodeError
        return None
    name = _SUBJECT_FIELDS.get(kind)
    if name is None or not isinstance(body, dict):
        return None
    subject = body.get(name)
    wanted = int if name == "shard" else str
    if type(subject) is not wanted or str(subject).encode("utf-8") != parts[1]:
        return None
    return kind, subject, body


@dataclass
class _Journal:
    """What one scan of the journal found, kept current by appends."""

    #: shard → verified attempts since its last verified commit
    attempts: Counter = field(default_factory=Counter)
    #: shard → its last verified commit payload
    commits: dict[int, dict] = field(default_factory=dict)
    #: shards some commit line names, verified or damaged
    named: set[int] = field(default_factory=set)
    quarantined: dict[int, dict] = field(default_factory=dict)
    fault_fires: Counter = field(default_factory=Counter)
    #: bytes up to the end of the last complete line
    end: int = 0

    def damaged(self, line: bytes, number: int) -> None:
        """Skip and count a line that does not verify.

        A damaged commit whose header still names its shard marks that
        shard for ``batch status``.
        """
        head = line.split(b" ", 2)
        if head[0] == b"commit" and len(head) > 1 and head[1].isdigit():
            self.named.add(int(head[1]))
        logger.warning("journal line %d is damaged; ignoring that record",
                       number)
        observability.inc("batch.checkpoints.invalid")

    def add(self, kind: str, subject: int | str, body: dict) -> None:
        """Fold one verified record into the state."""
        if kind == "attempt":
            self.attempts[subject] += 1
        elif kind == "commit":
            self.commits[subject] = body
            self.named.add(subject)
            # A commit settles the attempts before it, even once a model
            # re-bind makes it stale: only uncommitted attempts count.
            self.attempts[subject] = 0
        elif kind == "quarantine":
            self.quarantined[subject] = body
        else:
            self.fault_fires[subject] += 1


class BatchJobStore:
    """Filesystem state machine for one batch job.

    The journal is scanned once, on first use, and appends keep that
    state current; :meth:`close` releases the journal's handle.
    """

    def __init__(self, job_dir: str | Path) -> None:
        self.job_dir = Path(job_dir)
        self._state: _Journal | None = None
        self._handle = None

    # -- creation / opening ------------------------------------------------------

    @property
    def job_path(self) -> Path:
        return self.job_dir / "job.json"

    @property
    def journal_path(self) -> Path:
        return self.job_dir / JOURNAL_NAME

    @property
    def results_path(self) -> Path:
        return self.job_dir / "results.json"

    def exists(self) -> bool:
        return self.job_path.exists()

    def create(self, spec: JobSpec, *, config: dict, model_dir: str,
               model_key: str, cache_dir: str | None) -> dict:
        """Persist a new job; refuses to clobber an existing one."""
        if self.exists():
            raise BatchError(
                f"{self.job_dir} already holds a job; use 'batch resume' "
                "(or point --job-dir somewhere fresh)",
                job_dir=str(self.job_dir), stage="batch")
        body = {
            "format": JOB_FORMAT,
            "spec": spec.to_dict(),
            "config": config,
            "model_dir": str(model_dir),
            "model_key": model_key,
            "cache_dir": cache_dir,
        }
        atomic_write(self.job_path, json.dumps(body, indent=2, sort_keys=True))
        return body

    def open(self) -> dict:
        """Load and validate ``job.json``."""
        try:
            body = json.loads(self.job_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise BatchError(
                f"{self.job_dir} holds no job.json; run 'batch run' first",
                job_dir=str(self.job_dir), stage="batch") from None
        except (OSError, ValueError) as error:
            raise BatchError(
                f"{self.job_path} is unreadable: {error}",
                job_dir=str(self.job_dir), stage="batch") from error
        if not isinstance(body, dict) or body.get("format") != JOB_FORMAT:
            raise BatchError(
                f"{self.job_path} is not a {JOB_FORMAT} document",
                job_dir=str(self.job_dir), stage="batch")
        return body

    # -- the journal -------------------------------------------------------------

    def _journal(self) -> _Journal:
        """The journal's state, scanned line by line on first use."""
        if self._state is not None:
            return self._state
        state = _Journal()
        try:
            with open(self.journal_path, "rb") as handle:
                for number, line in enumerate(handle, 1):
                    if not line.endswith(b"\n"):
                        break  # a torn tail, or a record still being written
                    state.end += len(line)
                    record = _verified(line[:-1])
                    if record is None:
                        state.damaged(line[:-1], number)
                    else:
                        state.add(*record)
        except FileNotFoundError:
            pass
        except OSError as error:
            raise BatchError(f"{self.journal_path} is unreadable: {error}",
                             job_dir=str(self.job_dir),
                             stage="batch") from error
        self._state = state
        return state

    def append(self, record: bytes) -> None:
        """Append ``record`` to the journal and make it durable.

        Every record goes through here; fault injection also appends a
        torn one.  The first append opens the journal, first cutting off
        any unterminated tail the scan found.
        """
        state = self._journal()
        if self._handle is None:
            created = not self.journal_path.exists()
            self._handle = open(self.journal_path, "ab")
            if created:
                fsync_dir(self.job_dir)
            elif os.fstat(self._handle.fileno()).st_size > state.end:
                logger.warning("journal %s: torn tail after byte %d cut off",
                               self.journal_path, state.end)
                self._handle.truncate(state.end)
                os.fsync(self._handle.fileno())
        self._handle.write(record)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        if record.endswith(b"\n"):
            state.end += len(record)

    def _record(self, kind: str, subject: int | str, body: dict) -> _Journal:
        """Append one record durably, then fold it into the state."""
        self.append(journal_line(kind, subject, body))
        state = self._journal()
        state.add(kind, subject, body)
        return state

    def close(self) -> None:
        """Release the journal's handle; a later append reopens it."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- checkpoints -------------------------------------------------------------

    def write_checkpoint(self, index: int, payload: dict) -> None:
        """Commit one shard's results: one durable, self-checksummed record.

        The payload names its shard, which a reader checks against the
        record's header.
        """
        if payload.get("shard") != index:
            raise ValueError(f"payload names shard {payload.get('shard')!r}, "
                             f"not {index}")
        self._record("commit", index, payload)
        observability.inc("batch.checkpoints.committed")

    def read_checkpoint(self, index: int, *,
                        expected_inputs: str | None = None) -> dict | None:
        """A shard's last verified commit, or ``None``.

        ``None`` covers three situations, each counted separately: no
        commit was written; every commit of the shard is damaged
        (counted under ``batch.checkpoints.invalid`` when the journal is
        scanned); or the last verified one is stale (``inputs_sha256``
        no longer matches ``expected_inputs`` — manifest or model drift).
        """
        payload = self._journal().commits.get(index)
        if (payload is not None and expected_inputs is not None
                and payload.get("inputs_sha256") != expected_inputs):
            logger.warning(
                "checkpoint of shard %d was computed from different inputs "
                "(manifest or model drift); recomputing", index)
            observability.inc("batch.checkpoints.stale")
            return None
        return payload

    # -- attempts / quarantine ---------------------------------------------------

    def attempts(self, index: int) -> int:
        return self._journal().attempts[index]

    def bump_attempts(self, index: int) -> int:
        """Charge one attempt, durably, *before* the shard runs.

        The fsynced write ordering is the crash-accounting invariant: if
        the process dies mid-shard, the consumed attempt is already on
        disk, so a poisoned shard cannot SIGKILL the job forever — the
        resume path sees the count and quarantines it.
        """
        return self._record("attempt", index, {"shard": index}).attempts[index]

    def is_quarantined(self, index: int) -> bool:
        return index in self._journal().quarantined

    def quarantine(self, index: int, *, reason: str,
                   failure_records: list[dict]) -> None:
        body = {"shard": index, "reason": reason,
                "attempts": self.attempts(index),
                "failures": failure_records}
        self._record("quarantine", index, body)
        observability.inc("batch.shards.quarantined")
        logger.error("shard %d quarantined after %d attempt(s): %s",
                     index, body["attempts"], reason)

    def read_quarantine(self, index: int) -> dict | None:
        return self._journal().quarantined.get(index)

    # -- fault-injection counters ------------------------------------------------

    def fault_fires(self, fault_id: str) -> int:
        return self._journal().fault_fires[fault_id]

    def record_fault_fire(self, fault_id: str) -> int:
        return self._record("fault", fault_id, {"fault": fault_id}).fault_fires[fault_id]

    # -- results / status --------------------------------------------------------

    def write_results(self, body: dict) -> None:
        atomic_write(self.results_path, canonical_json(body))

    def status(self) -> dict:
        """Scan the job directory into a human/machine-readable summary."""
        body = self.open()
        spec = JobSpec.from_dict(body["spec"])
        model_key = body.get("model_key", "")
        total = len(spec.shards())
        named = self._journal().named
        committed: list[int] = []
        invalid: list[int] = []
        quarantined: list[int] = []
        pending: list[int] = []
        for index in range(total):
            if self.is_quarantined(index):
                quarantined.append(index)
                continue
            expected = spec.shard_inputs_sha256(index, model_key)
            if self.read_checkpoint(index, expected_inputs=expected) is not None:
                committed.append(index)
                continue
            pending.append(index)
            if index in named:
                invalid.append(index)
        return {
            "job_dir": str(self.job_dir),
            "model_dir": body.get("model_dir"),
            "model_key": model_key,
            "on_error": spec.on_error,
            "shards": {
                "total": total,
                "committed": len(committed),
                "pending": pending,
                "invalid": invalid,
                "quarantined": quarantined,
            },
            "items": len(spec.items),
            "complete": (len(committed) + len(quarantined)) == total,
            "has_results": self.results_path.exists(),
        }
