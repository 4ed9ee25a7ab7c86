"""Resumable corpus-scale batch analysis (``python -m repro batch ...``).

The batch subsystem turns a JSON job spec — corpus manifest, config
snapshot, failure policy — into binary-level shards on an on-disk
queue, runs them through the inference engine, and commits one
fsynced, self-checksummed checkpoint record per shard to the job's
append-only journal.  A job that is SIGKILL'd,
OOM-killed, or power-cut resumes exactly where it died; a durable
content-addressed window cache carries the engine's dedup work across
runs and survives recompiles of overlapping corpora.

Module map: :mod:`repro.batch.spec` (job spec + manifest),
:mod:`repro.batch.job` (on-disk job store: one journal of attempts,
checkpoints and quarantines), :mod:`repro.batch.cache` (durable window
cache), :mod:`repro.batch.runner` (shard loop, drift checks, fault
hooks).  See ``docs/OPERATIONS.md`` §8 for the operational story.
"""

from repro.batch.cache import WindowCacheStore
from repro.batch.job import BatchJobStore
from repro.batch.runner import job_status, resume_job, run_job
from repro.batch.spec import JobSpec, ManifestItem, demo_corpus, load_manifest

__all__ = [
    "BatchJobStore",
    "JobSpec",
    "ManifestItem",
    "WindowCacheStore",
    "demo_corpus",
    "job_status",
    "load_manifest",
    "resume_job",
    "run_job",
]
