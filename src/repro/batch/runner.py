"""Batch-job execution: shard loop, retries, drift checks, fault hooks.

:func:`run_job` compiles a :class:`~repro.batch.spec.JobSpec` into
binary-level shards on the :class:`~repro.batch.job.BatchJobStore`
queue and drives each shard's binaries, one at a time, through
:meth:`~repro.core.engine.InferenceEngine.infer_binary`, committing one
checkpoint record per shard to the job's journal.  :func:`resume_job` replays
a job directory after *any* interruption — SIGKILL, OOM, power cut —
recomputing only shards without a valid committed checkpoint, so the
final merged result is bit-identical to an uninterrupted run (asserted
by ``tests/test_batch.py``).

Drift protection: a resume re-opens the model bundle and compares its
content key (per-file SHA-256 digest) and structural config against
what ``job.json`` recorded at creation.  Any mismatch raises
:class:`~repro.core.errors.ConfigMismatchError` unless ``force=True``,
in which case ``job.json`` is rewritten to the new identity and every
existing checkpoint automatically goes stale (their ``inputs_sha256``
binds the old model key) and is recomputed.

Fault injection (tests/smokes only): the ``REPRO_BATCH_FAULT`` env var
installs one scripted fault::

    REPRO_BATCH_FAULT="kill:shard=1:point=pre-commit"
    REPRO_BATCH_FAULT="torn:shard=2:point=torn-commit:times=2"
    REPRO_BATCH_FAULT="raise:shard=0:point=pre-commit"

``kill`` SIGKILLs the process at the point; ``torn`` appends half a
commit record to the job's journal, without its newline, fsyncs it and
then SIGKILLs, simulating a kill mid-append; ``raise`` throws a
transient error into the shard retry loop.  Fire counts persist in the
journal so a fault fires exactly ``times`` times across resumes.
"""

from __future__ import annotations

import json
import logging
import os
import random
import signal
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.batch.cache import WindowCacheStore
from repro.batch.job import BatchJobStore, journal_line
from repro.batch.spec import JobSpec, ManifestItem
from repro.core import observability
from repro.core.artifacts import ModelBundle
from repro.core.config import CatiConfig
from repro.core.errors import (
    BatchError,
    ConfigMismatchError,
    FailureReport,
    handle_failure,
)
from repro.core.fsutil import atomic_write
from repro.core.pipeline import Cati
from repro.core.toolchain import retry_delays
from repro.core.types import ALL_TYPES

logger = logging.getLogger(__name__)

FAULT_ENV = "REPRO_BATCH_FAULT"
FAULT_POINTS = ("pre-commit", "torn-commit", "post-commit")
FAULT_MODES = ("kill", "raise", "torn")
RESULTS_FORMAT = "cati-batch-results/1"


# -- fault injection ---------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """One scripted fault parsed from ``REPRO_BATCH_FAULT``."""

    mode: str    # kill | raise | torn
    shard: int
    point: str   # pre-commit | torn-commit | post-commit
    times: int = 1

    @property
    def fault_id(self) -> str:
        return f"{self.mode}-shard{self.shard}-{self.point}"

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        raw = os.environ.get(FAULT_ENV, "").strip()
        if not raw:
            return None
        mode, _, rest = raw.partition(":")
        fields = {"times": "1"}
        for piece in rest.split(":"):
            key, _, value = piece.partition("=")
            fields[key] = value
        try:
            plan = cls(mode=mode, shard=int(fields["shard"]),
                       point=fields["point"], times=int(fields["times"]))
        except (KeyError, ValueError) as error:
            raise BatchError(f"bad {FAULT_ENV}={raw!r}: {error}",
                             stage="batch") from error
        if plan.mode not in FAULT_MODES or plan.point not in FAULT_POINTS:
            raise BatchError(
                f"bad {FAULT_ENV}={raw!r}: mode must be one of "
                f"{FAULT_MODES}, point one of {FAULT_POINTS}", stage="batch")
        return plan

    def fire(self, store: BatchJobStore, shard: int, point: str) -> None:
        """Act if this plan targets (shard, point) and has fires left."""
        if shard != self.shard or point != self.point:
            return
        if store.fault_fires(self.fault_id) >= self.times:
            return
        store.record_fault_fire(self.fault_id)
        logger.warning("fault injection: %s at shard %d %s",
                       self.mode, shard, point)
        if self.mode == "raise":
            raise BatchError(
                f"injected fault at shard {shard} {point}",
                shard=shard, stage="batch")
        if self.mode == "torn":
            # Simulate a kill mid-append: half a commit record, no newline.
            record = journal_line("commit", shard, {"shard": shard})
            store.append(record[:len(record) // 2])
        os.kill(os.getpid(), signal.SIGKILL)


# -- model / drift -----------------------------------------------------------------


def _check_drift(body: dict, model_dir: str, *, force: bool,
                 store: BatchJobStore) -> tuple[Cati, dict]:
    """Reject model/config drift on resume; ``force`` re-binds the job."""
    saved_config = CatiConfig.from_dict(body["config"])
    bundle = ModelBundle.open(model_dir)
    current_key = bundle.content_key()
    drifted = current_key != body.get("model_key")
    if drifted and not force:
        raise ConfigMismatchError(
            f"model at {model_dir} (content key {current_key[:12]}...) is "
            f"not the model this job was created against "
            f"(key {str(body.get('model_key'))[:12]}...); pass --force to "
            "re-bind the job (checkpoints will be recomputed)",
            path=str(model_dir), stage="batch")
    try:
        cati = Cati.load(model_dir, config=saved_config)
    except ConfigMismatchError:
        if not force:
            raise
        # Forced: the bundle's own config snapshot wins.
        cati = Cati.load(model_dir, config=None)
    if drifted or str(model_dir) != body.get("model_dir"):
        body = dict(body)
        body["model_key"] = current_key
        body["model_dir"] = str(model_dir)
        body["config"] = cati.config.to_dict()
        atomic_write(store.job_path,
                     json.dumps(body, indent=2, sort_keys=True))
        logger.warning("job re-bound to model %s (key %s...); stale "
                       "checkpoints will be recomputed",
                       model_dir, current_key[:12])
    return cati, body


# -- shard execution ---------------------------------------------------------------


def _serialize_predictions(result) -> list[dict]:
    return [
        {"variable_id": p.variable_id, "predicted": str(p.predicted),
         "n_vucs": p.n_vucs, "scores": [float(s) for s in p.scores]}
        for p in result
    ]


def _serialize_layouts(result) -> list[dict] | None:
    """One result's layout block (None = posterior stage did not run)."""
    from repro.serve.protocol import layout_to_dict

    if result.layouts is None:
        return None
    return [layout_to_dict(layout) for layout in result.layouts]


def _run_shard(
    cati: Cati, shard: tuple[ManifestItem, ...], on_error: str,
    structs: bool = False,
) -> tuple[list[list[dict]], list[list[dict] | None], FailureReport]:
    """Load + infer every item of one shard, in manifest order.

    An item that fails to load yields no predictions and no layouts.
    """
    report = FailureReport()
    predictions: list[list[dict]] = []
    layouts: list[list[dict] | None] = []
    for item in shard:
        try:
            stripped, extents = item.load()
        except Exception as exc:
            handle_failure(exc, on_error=on_error, failures=report,
                           stage="batch", binary=item.name)
            predictions.append([])
            layouts.append(None)
            continue
        result = cati.engine.infer_binary(
            stripped, extents, on_error=on_error, failures=report,
            structs=structs)
        predictions.append(_serialize_predictions(result))
        layouts.append(_serialize_layouts(result))
    return predictions, layouts, report


def _execute(store: BatchJobStore, body: dict, cati: Cati, *,
             sleep: Callable[[float], None] = time.sleep) -> dict:
    """The shard loop shared by run and resume."""
    spec = JobSpec.from_dict(body["spec"])
    model_key = str(body["model_key"])
    fault = FaultPlan.from_env()
    cache: WindowCacheStore | None = None
    cache_dir = body.get("cache_dir")
    if cache_dir:
        cache = WindowCacheStore(cache_dir, model_key,
                                 row_len=len(ALL_TYPES))
        cati.engine.attach_window_store(cache)
    began = time.perf_counter()
    shards = spec.shards()
    ran = reused = 0
    # Per shard: the payload reused from disk or committed by this run,
    # None when quarantined.
    payloads: list[dict | None] = []
    try:
        for index, shard in enumerate(shards):
            if store.is_quarantined(index):
                logger.warning("shard %d is quarantined; skipping", index)
                payloads.append(None)
                continue
            expected = spec.shard_inputs_sha256(index, model_key)
            payload = store.read_checkpoint(index, expected_inputs=expected)
            if payload is not None:
                reused += 1
                observability.inc("batch.shards.reused")
            else:
                payload = _attempt_shard(store, spec, cati, index, shard, expected,
                                         fault=fault, sleep=sleep)
                ran += 1
            payloads.append(payload)
    finally:
        store.close()
        if cache is not None:
            cache.close()
            cati.engine.attach_window_store(None)
    elapsed = time.perf_counter() - began
    results = _merge(store, spec, model_key, payloads)
    results["elapsed_s"] = round(elapsed, 6)
    results["shards_run"] = ran
    results["shards_reused"] = reused
    if cache is not None:
        results["window_cache"] = dict(cache.stats)
    store.write_results(results)
    observability.inc("batch.jobs.completed")
    return results


def _attempt_shard(store: BatchJobStore, spec: JobSpec, cati: Cati,
                   index: int, shard: tuple[ManifestItem, ...],
                   expected: str, *, fault: FaultPlan | None,
                   sleep: Callable[[float], None]) -> dict | None:
    """Run one shard to a committed checkpoint or into quarantine.

    Returns the committed payload, or None when the shard was quarantined.
    """
    budget = spec.max_retries + 1
    # Seed per (job, shard): str seeding is stable across processes, so
    # the backoff schedule a resumed job sleeps is the schedule the
    # original job would have slept — fault-injection tests assert it.
    rng = random.Random(f"{spec.seed}:{index}")
    delays = list(retry_delays(spec.backoff, spec.max_retries,
                               jitter=spec.jitter, rng=rng))
    interrupted = store.attempts(index)
    history = FailureReport()
    if interrupted > 0:
        # Earlier attempts consumed budget but committed nothing: the
        # process died mid-shard (crash, OOM, SIGKILL).  Enumerate them
        # so the merged report accounts for every interruption.
        history.record(
            BatchError(
                f"{interrupted} earlier attempt(s) died without "
                "committing a checkpoint (killed or crashed mid-shard)",
                shard=index, stage="batch"),
            stage="batch")
        observability.inc("batch.shards.interrupted_attempts", interrupted)
    while True:
        used = store.attempts(index)
        if used >= budget:
            store.quarantine(
                index,
                reason=f"attempt budget exhausted ({used}/{budget})",
                failure_records=history.records_to_dicts())
            if spec.on_error == "raise":
                raise BatchError(
                    f"shard {index} exhausted its {budget} attempt(s) "
                    "and was quarantined",
                    job_dir=str(store.job_dir), shard=index, stage="batch")
            return None
        attempt = store.bump_attempts(index)
        observability.inc("batch.shards.attempts")
        try:
            if fault is not None:
                fault.fire(store, index, "pre-commit")
            predictions, layouts, report = _run_shard(
                cati, shard, spec.on_error, structs=spec.structs)
            if cati.engine.window_store is not None:
                cati.engine.window_store.flush()
            payload = {
                "shard": index,
                "inputs_sha256": expected,
                "items": [item.name for item in shard],
                "predictions": predictions,
                "failures": (history.records_to_dicts()
                             + report.records_to_dicts()),
                "attempts": attempt,
            }
            if any(entry is not None for entry in layouts):
                payload["layouts"] = layouts
            if fault is not None:
                fault.fire(store, index, "torn-commit")
            store.write_checkpoint(index, payload)
            if fault is not None:
                fault.fire(store, index, "post-commit")
            observability.inc("batch.shards.committed")
            return payload
        except Exception as exc:
            history.record(exc, stage="batch")
            remaining = budget - store.attempts(index)
            logger.warning("shard %d attempt %d failed (%s); %d attempt(s) "
                           "left", index, attempt, exc, remaining)
            observability.inc("batch.shards.retries")
            if remaining > 0 and delays:
                sleep(delays[min(attempt - 1, len(delays) - 1)])


def _merge(store: BatchJobStore, spec: JobSpec, model_key: str,
           payloads: list[dict | None]) -> dict:
    """Fold the shards' checkpoint payloads into one results document.

    ``payloads`` holds one entry per shard, as :func:`_execute` collected
    them: reused from disk, committed by this run, or None.
    """
    shards = spec.shards()
    predictions: dict[str, list[dict]] = {}
    layouts: dict[str, list[dict]] = {}
    failure_dicts: list[dict] = []
    quarantined: list[int] = []
    missing: list[int] = []
    for index, (shard, payload) in enumerate(zip(shards, payloads)):
        if store.is_quarantined(index):
            quarantined.append(index)
            info = store.read_quarantine(index) or {}
            failure_dicts.extend(info.get("failures", []))
            continue
        if payload is None:
            missing.append(index)
            continue
        failure_dicts.extend(payload.get("failures", []))
        for item, preds in zip(shard, payload.get("predictions", [])):
            predictions[item.name] = preds
        # Pre-structs checkpoints have no "layouts" key; absent = stage off.
        for item, entry in zip(shard, payload.get("layouts") or []):
            if entry is not None:
                layouts[item.name] = entry
    report = FailureReport.from_records(failure_dicts)
    n_predictions = sum(len(preds) for preds in predictions.values())
    observability.inc("batch.predictions", n_predictions)
    out_layouts = {"layouts": layouts} if layouts else {}
    return {
        "format": RESULTS_FORMAT,
        "model_key": model_key,
        "items": len(spec.items),
        "predictions": predictions,
        **out_layouts,
        "n_predictions": n_predictions,
        "failures": {
            "total": len(report),
            "by_stage": report.by_stage(),
            "by_kind": report.by_kind(),
            "records": failure_dicts,
        },
        "shards": {
            "total": len(shards),
            "quarantined": quarantined,
            "missing": missing,
        },
    }


# -- public API --------------------------------------------------------------------


def run_job(job_dir: str | Path, spec: JobSpec, *, model_dir: str,
            cache_dir: str | Path | None = None,
            sleep: Callable[[float], None] = time.sleep) -> dict:
    """Create a fresh batch job and drive it to completion.

    Refuses a ``job_dir`` that already holds a job (use
    :func:`resume_job`).  ``cache_dir=None`` disables the durable window
    cache.  Returns the merged results document (also committed to
    ``<job_dir>/results.json``).
    """
    store = BatchJobStore(job_dir)
    cati = Cati.load(str(model_dir))
    body = store.create(
        spec, config=cati.config.to_dict(), model_dir=str(model_dir),
        model_key=ModelBundle.open(str(model_dir)).content_key(),
        cache_dir=str(cache_dir) if cache_dir else None)
    logger.info("batch job created at %s: %d item(s) in %d shard(s)",
                job_dir, len(spec.items), len(spec.shards()))
    observability.inc("batch.jobs.created")
    return _execute(store, body, cati, sleep=sleep)


def resume_job(job_dir: str | Path, *, model_dir: str | None = None,
               force: bool = False,
               sleep: Callable[[float], None] = time.sleep) -> dict:
    """Resume an interrupted job exactly where it died.

    Shards with a valid committed checkpoint are reused verbatim;
    torn or damaged commit records are detected (checksum), discarded
    and recomputed.  Model or structural-config drift since
    job creation raises :class:`ConfigMismatchError` unless ``force``.
    """
    store = BatchJobStore(job_dir)
    body = store.open()
    target = str(model_dir) if model_dir else str(body["model_dir"])
    cati, body = _check_drift(body, target, force=force, store=store)
    observability.inc("batch.jobs.resumed")
    return _execute(store, body, cati, sleep=sleep)


def job_status(job_dir: str | Path) -> dict:
    """A scan-based summary of a job directory (no model load)."""
    return BatchJobStore(job_dir).status()
