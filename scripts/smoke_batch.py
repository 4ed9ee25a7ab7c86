#!/usr/bin/env python
"""End-to-end smoke for batch jobs (``scripts/check.sh --batch``).

Walks the crash-recovery story the way an unlucky operator would:

1. train a throwaway mini model and save it as a bundle;
2. ``python -m repro batch run`` over a tiny demo corpus with a
   scripted SIGKILL mid-job (``REPRO_BATCH_FAULT``) — the process dies;
3. ``batch status`` — the job is incomplete, checkpoints partial;
4. ``batch resume`` — the job completes;
5. verify the merged results are bit-identical to an uninterrupted
   reference run of the same corpus, that the injected kill is
   enumerated in the merged failure report, and that the job directory
   holds only ``job.json``, the journal and ``results.json``.

Exit status is the smoke's verdict, so CI can run it directly.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.config import CatiConfig  # noqa: E402
from repro.core.pipeline import Cati  # noqa: E402
from repro.datasets.corpus import build_small_corpus  # noqa: E402
from repro.embedding.word2vec import Word2VecConfig  # noqa: E402


#: Everything a finished job leaves in its directory.
JOB_DIR_ENTRIES = ["job.json", "journal.log", "results.json"]


def fail(message: str) -> None:
    print(f"smoke_batch: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def batch(args, *, fault=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    env.pop("REPRO_BATCH_FAULT", None)
    if fault:
        env["REPRO_BATCH_FAULT"] = fault
    return subprocess.run([sys.executable, "-m", "repro", "batch", *args],
                          env=env, capture_output=True, text=True,
                          timeout=600)


def main() -> None:
    print("smoke_batch: training mini model ...", flush=True)
    corpus = build_small_corpus()
    config = CatiConfig(
        epochs=5, fc_width=64,
        word2vec=Word2VecConfig(dim=32, window=5, epochs=1,
                                subsample_pairs=0.4))
    cati = Cati(config).train(corpus.train)

    with tempfile.TemporaryDirectory(prefix="smoke-batch-") as scratch:
        model_dir = os.path.join(scratch, "model")
        cati.save(model_dir)
        job_dir = os.path.join(scratch, "job")
        ref_dir = os.path.join(scratch, "ref")
        cache_dir = os.path.join(scratch, "cache")
        base = ["--model-dir", model_dir, "--demo-corpus", "4",
                "--shard-size", "2", "--max-retries", "2",
                "--cache-dir", cache_dir]

        print("smoke_batch: uninterrupted reference run ...", flush=True)
        ref = batch(["run", "--job-dir", ref_dir, *base])
        if ref.returncode != 0:
            fail(f"reference run exited {ref.returncode}: {ref.stderr}")

        print("smoke_batch: run with SIGKILL at shard 1 ...", flush=True)
        killed = batch(["run", "--job-dir", job_dir, *base],
                       fault="kill:shard=1:point=pre-commit")
        if killed.returncode != -signal.SIGKILL:
            fail(f"expected the injected SIGKILL, got exit "
                 f"{killed.returncode}: {killed.stderr}")

        status = batch(["status", "--job-dir", job_dir, "--json"])
        if status.returncode != 0:
            fail(f"status exited {status.returncode}: {status.stderr}")
        snapshot = json.loads(status.stdout)
        if snapshot["complete"]:
            fail("job reports complete right after being SIGKILL'd")
        if snapshot["shards"]["committed"] != 1:
            fail(f"expected 1 committed shard after the kill, got "
                 f"{snapshot['shards']}")

        print("smoke_batch: resume ...", flush=True)
        resumed = batch(["resume", "--job-dir", job_dir])
        if resumed.returncode != 0:
            fail(f"resume exited {resumed.returncode}: {resumed.stderr}")

        results = json.loads(
            open(os.path.join(job_dir, "results.json")).read())
        reference = json.loads(
            open(os.path.join(ref_dir, "results.json")).read())
        if results["predictions"] != reference["predictions"]:
            fail("resumed predictions differ from the uninterrupted run")
        if not results["predictions"]:
            fail("no predictions produced")
        interrupted = [r for r in results["failures"]["records"]
                       if "died without committing" in r["message"]]
        if len(interrupted) != 1:
            fail(f"expected the kill to be enumerated once in the merged "
                 f"failure report, found {len(interrupted)}")
        if results["shards"]["quarantined"]:
            fail(f"unexpected quarantine: {results['shards']}")

        final = batch(["status", "--job-dir", job_dir, "--json"])
        if not json.loads(final.stdout)["complete"]:
            fail("job not complete after resume")
        entries = sorted(os.listdir(job_dir))
        if entries != JOB_DIR_ENTRIES:
            fail(f"job directory holds {entries}, expected {JOB_DIR_ENTRIES}")

    print("smoke_batch: OK (kill -> resume -> bit-identical results, "
          "interruption enumerated, job directory holds three files)")


if __name__ == "__main__":
    main()
