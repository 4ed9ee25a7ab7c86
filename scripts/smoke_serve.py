#!/usr/bin/env python
"""End-to-end smoke for the serving daemon (``scripts/check.sh --serve``).

Trains a throwaway mini model, saves it as a bundle, then walks the
serving surface the way an operator would — twice: once against the
classic in-process daemon (``--workers 1``) and once against the
pre-fork router with two worker processes (``--workers 2``), both
launched as real ``python -m repro serve`` subprocesses:

1. ``GET /healthz`` — version, model generation, queue snapshot (and,
   multi-worker, per-worker liveness);
2. a packed ``windows`` job — predictions must match offline
   ``Cati.infer_binary`` on the binary the windows come from;
3. ``POST /v1/reload`` — generation bumps without dropping traffic
   (multi-worker: the generation fence rolls every worker);
4. SIGTERM — the daemon drains and exits 0;
5. the bundle directory still holds exactly its manifest and the
   payloads it lists: serving writes nothing into it.

Exit status is the smoke's verdict, so CI can run it directly.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.codegen.compilers import GccCompiler  # noqa: E402
from repro.codegen.strip import strip  # noqa: E402
from repro.core.artifacts import MANIFEST_NAME, ModelBundle  # noqa: E402
from repro.core.config import CatiConfig  # noqa: E402
from repro.core.pipeline import Cati  # noqa: E402
from repro.datasets.corpus import build_small_corpus  # noqa: E402
from repro.embedding.word2vec import Word2VecConfig  # noqa: E402
from repro.experiments.speed import extents_from_debug  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.vuc.dataset import extract_unlabeled_vucs  # noqa: E402


def fail(message: str) -> None:
    print(f"smoke_serve: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def walk(bundle_dir: str, workers: int, windows, variable_ids,
         expected) -> None:
    """One full operator walk against ``--workers N``."""
    tag = f"--workers {workers}"
    print(f"smoke_serve: starting daemon ({tag}) ...", flush=True)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--model-dir", bundle_dir, "--port", "0",
         "--workers", str(workers)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ,
             "PYTHONPATH": os.path.join(os.path.dirname(__file__),
                                        "..", "src")})
    try:
        port = None
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                fail(f"daemon ({tag}) exited before binding "
                     f"(rc={process.poll()})")
            print(f"  [daemon] {line.rstrip()}", flush=True)
            if line.startswith("serving on http://"):
                port = int(line.rsplit(":", 1)[1])
                break
        if port is None:
            fail(f"daemon ({tag}) never printed its address")

        client = ServeClient("127.0.0.1", port, timeout=120)

        health = client.health()
        if health["status"] != "ok":
            fail(f"healthz status {health['status']!r} ({tag})")
        generation = health["model"]["generation"]
        print(f"smoke_serve: healthz ok (repro {health['version']}, "
              f"model generation {generation})", flush=True)
        if workers > 1:
            live = health.get("workers_live")
            if live != workers:
                fail(f"expected {workers} live workers, healthz says {live}")
            print(f"smoke_serve: {live} workers live", flush=True)

        response = client.infer_windows(windows, variable_ids)
        served = [(p["variable_id"], p["type"], p["n_vucs"])
                  for p in response["predictions"]]
        if served != expected:
            fail(f"served predictions diverge from the offline engine ({tag})")
        print(f"smoke_serve: {len(served)} served predictions match "
              "offline", flush=True)

        reloaded = client.reload()
        new_generation = (reloaded.get("model") or reloaded)["generation"]
        if new_generation != generation + 1:
            fail(f"reload did not bump the generation ({tag}): {reloaded}")
        response = client.infer_windows(windows, variable_ids)
        served = [(p["variable_id"], p["type"], p["n_vucs"])
                  for p in response["predictions"]]
        if served != expected:
            fail(f"post-reload predictions diverge ({tag})")
        print(f"smoke_serve: hot reload ok (generation {new_generation})",
              flush=True)

        process.send_signal(signal.SIGTERM)
        try:
            rc = process.wait(timeout=120)
        except subprocess.TimeoutExpired:
            fail(f"daemon ({tag}) did not drain within 120s of SIGTERM")
        for line in process.stdout:
            print(f"  [daemon] {line.rstrip()}", flush=True)
        if rc != 0:
            fail(f"daemon ({tag}) exited {rc} after SIGTERM")
        print(f"smoke_serve: SIGTERM drain ok ({tag})", flush=True)
    finally:
        if process.poll() is None:
            process.kill()
    check_bundle_untouched(bundle_dir, tag)


def check_bundle_untouched(bundle_dir: str, tag: str) -> None:
    """The bundle lists exactly its manifest and the manifest's payloads."""
    root = Path(bundle_dir)
    listed = sorted(str(path.relative_to(root))
                    for path in root.rglob("*") if path.is_file())
    expected = sorted([MANIFEST_NAME, *ModelBundle.open(root).manifest["files"]])
    if listed != expected:
        fail(f"serving ({tag}) changed the bundle directory: extra "
             f"{sorted(set(listed) - set(expected))}, missing "
             f"{sorted(set(expected) - set(listed))}")
    print(f"smoke_serve: bundle directory untouched ({tag})", flush=True)


def main() -> None:
    print("smoke_serve: training mini model ...", flush=True)
    corpus = build_small_corpus()
    config = CatiConfig(
        epochs=5, fc_width=64,
        word2vec=Word2VecConfig(dim=32, window=5, epochs=1,
                                subsample_pairs=0.4))
    cati = Cati(config).train(corpus.train)

    compiler = GccCompiler()
    binary = compiler.compile_fresh(seed=77, name="smoke-serve", opt_level=1)
    stripped, extents = strip(binary), extents_from_debug(binary)
    pairs = extract_unlabeled_vucs(stripped, extents, config.window)
    windows = [tokens for _variable_id, tokens in pairs]
    variable_ids = [variable_id for variable_id, _tokens in pairs]
    offline = cati.infer_binary(stripped, extents)
    expected = [(p.variable_id, str(p.predicted), p.n_vucs) for p in offline]

    with tempfile.TemporaryDirectory(prefix="smoke-serve-") as scratch:
        bundle_dir = os.path.join(scratch, "bundle")
        cati.save(bundle_dir)
        for workers in (1, 2):
            walk(bundle_dir, workers, windows, variable_ids, expected)

    print("smoke_serve: PASS", flush=True)


if __name__ == "__main__":
    main()
