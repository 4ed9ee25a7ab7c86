"""The on-disk half of a batch job: checkpoints, attempts, quarantine.

Layout of a job directory::

    <job-dir>/
    ├── job.json               spec + config snapshot + model identity
    ├── shards/shard-0007.json committed per-shard checkpoints
    ├── attempts/shard-0007    crash-surviving attempt counters
    ├── quarantine/shard-0007.json   poisoned shards, with their history
    ├── faults/<fault-id>      persisted fault-injection fire counters
    └── results.json           merged output, written once on completion

Durability contract:

* **checkpoints commit atomically** (:func:`repro.core.fsutil
  .atomic_write`) and are wrapped in a self-checksum envelope
  (``{"format", "sha256", "payload"}`` where ``sha256`` digests the
  canonical JSON of the payload), so a reader can distinguish "never
  written" from "partially written" from "committed" — a torn or
  tampered checkpoint is *detected*, counted, and recomputed, never
  trusted;
* **attempt counters are bumped and fsynced BEFORE the shard runs**, so
  a shard that SIGKILLs the process still consumes an attempt on
  resume; a shard whose counter exceeds ``max_retries + 1`` without a
  committed checkpoint is quarantined instead of re-run forever
  (poison-shard protection);
* **checkpoints bind to their inputs**: the payload records
  ``inputs_sha256`` (shard items + model content key); a checkpoint
  whose digest does not match the current job is stale and ignored.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

from repro.batch.spec import JobSpec, canonical_json, sha256_hex
from repro.core import observability
from repro.core.errors import BatchError
from repro.core.fsutil import atomic_write

logger = logging.getLogger(__name__)

JOB_FORMAT = "cati-batch-job/1"
CHECKPOINT_FORMAT = "cati-batch-checkpoint/1"


def _shard_name(index: int) -> str:
    return f"shard-{index:04d}"


class BatchJobStore:
    """Filesystem state machine for one batch job."""

    def __init__(self, job_dir: str | Path) -> None:
        self.job_dir = Path(job_dir)
        self.shards_dir = self.job_dir / "shards"
        self.attempts_dir = self.job_dir / "attempts"
        self.quarantine_dir = self.job_dir / "quarantine"
        self.faults_dir = self.job_dir / "faults"

    # -- creation / opening ------------------------------------------------------

    @property
    def job_path(self) -> Path:
        return self.job_dir / "job.json"

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
        for directory in (self.shards_dir, self.attempts_dir,
                          self.quarantine_dir, self.faults_dir):
            directory.mkdir(parents=True, exist_ok=True)
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
        for directory in (self.shards_dir, self.attempts_dir,
                          self.quarantine_dir, self.faults_dir):
            directory.mkdir(parents=True, exist_ok=True)
        return body

    # -- checkpoints -------------------------------------------------------------

    def checkpoint_path(self, index: int) -> Path:
        return self.shards_dir / f"{_shard_name(index)}.json"

    def write_checkpoint(self, index: int, payload: dict) -> None:
        """Commit one shard's results atomically, self-checksummed.

        The envelope is written around the payload's canonical JSON, the
        text its checksum digests, so the payload is encoded once.
        """
        canonical = canonical_json(payload)
        atomic_write(self.checkpoint_path(index),
                     f'{{"format": "{CHECKPOINT_FORMAT}", '
                     f'"sha256": "{sha256_hex(canonical)}", '
                     f'"payload": {canonical}}}')
        observability.inc("batch.checkpoints.committed")

    def read_checkpoint(self, index: int, *,
                        expected_inputs: str | None = None) -> dict | None:
        """A shard's committed payload, or ``None`` with the reason logged.

        ``None`` covers three distinct situations, each counted
        separately: the checkpoint was never written; it exists but is
        torn, corrupt or undecodable (caught by the envelope checks and
        checksum); or it is valid but stale (``inputs_sha256`` no longer
        matches ``expected_inputs`` — manifest or model drift).
        """
        path = self.checkpoint_path(index)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as error:
            logger.warning("checkpoint %s unreadable (%s); will recompute",
                           path.name, error)
            observability.inc("batch.checkpoints.invalid")
            return None
        payload = None
        try:
            envelope = json.loads(raw.decode("utf-8"))
            if (isinstance(envelope, dict)
                    and envelope.get("format") == CHECKPOINT_FORMAT
                    and isinstance(envelope.get("payload"), dict)
                    and envelope.get("sha256")
                    == sha256_hex(canonical_json(envelope["payload"]))):
                payload = envelope["payload"]
        except ValueError:  # includes UnicodeDecodeError
            pass
        if payload is None:
            logger.warning(
                "checkpoint %s is partial or corrupt; discarding and "
                "recomputing the shard", path.name)
            observability.inc("batch.checkpoints.invalid")
            return None
        if (expected_inputs is not None
                and payload.get("inputs_sha256") != expected_inputs):
            logger.warning(
                "checkpoint %s was computed from different inputs "
                "(manifest or model drift); recomputing", path.name)
            observability.inc("batch.checkpoints.stale")
            return None
        return payload

    # -- attempts / quarantine ---------------------------------------------------

    def attempts_path(self, index: int) -> Path:
        return self.attempts_dir / _shard_name(index)

    def attempts(self, index: int) -> int:
        try:
            return int(self.attempts_path(index).read_text())
        except (OSError, ValueError):
            return 0

    def bump_attempts(self, index: int) -> int:
        """Charge one attempt, durably, *before* the shard runs.

        The fsynced write ordering is the crash-accounting invariant: if
        the process dies mid-shard, the consumed attempt is already on
        disk, so a poisoned shard cannot SIGKILL the job forever — the
        resume path sees the count and quarantines it.
        """
        count = self.attempts(index) + 1
        atomic_write(self.attempts_path(index), str(count))
        return count

    def quarantine_path(self, index: int) -> Path:
        return self.quarantine_dir / f"{_shard_name(index)}.json"

    def is_quarantined(self, index: int) -> bool:
        return self.quarantine_path(index).exists()

    def quarantine(self, index: int, *, reason: str,
                   failure_records: list[dict]) -> None:
        body = {"shard": index, "reason": reason,
                "attempts": self.attempts(index),
                "failures": failure_records}
        atomic_write(self.quarantine_path(index),
                     json.dumps(body, indent=2, sort_keys=True))
        observability.inc("batch.shards.quarantined")
        logger.error("shard %d quarantined after %d attempt(s): %s",
                     index, body["attempts"], reason)

    def read_quarantine(self, index: int) -> dict | None:
        try:
            return json.loads(self.quarantine_path(index).read_text())
        except (OSError, ValueError):
            return None

    # -- fault-injection counters ------------------------------------------------

    def fault_fires(self, fault_id: str) -> int:
        try:
            return int((self.faults_dir / fault_id).read_text())
        except (OSError, ValueError):
            return 0

    def record_fault_fire(self, fault_id: str) -> int:
        count = self.fault_fires(fault_id) + 1
        self.faults_dir.mkdir(parents=True, exist_ok=True)
        atomic_write(self.faults_dir / fault_id, str(count))
        return count

    # -- results / status --------------------------------------------------------

    def write_results(self, body: dict) -> None:
        atomic_write(self.results_path,
                     json.dumps(body, indent=2, sort_keys=True))

    def status(self) -> dict:
        """Scan the job directory into a human/machine-readable summary."""
        body = self.open()
        spec = JobSpec.from_dict(body["spec"])
        model_key = body.get("model_key", "")
        total = len(spec.shards())
        committed: list[int] = []
        invalid: list[int] = []
        quarantined: list[int] = []
        pending: list[int] = []
        for index in range(total):
            if self.is_quarantined(index):
                quarantined.append(index)
                continue
            expected = spec.shard_inputs_sha256(index, model_key)
            had_file = self.checkpoint_path(index).exists()
            payload = self.read_checkpoint(index, expected_inputs=expected)
            if payload is not None:
                committed.append(index)
            elif had_file:
                invalid.append(index)
                pending.append(index)
            else:
                pending.append(index)
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
