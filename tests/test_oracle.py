"""One differential oracle across the entry points that type a binary.

A small seeded corpus of well-formed binaries (-O0 to -O2) runs through
offline ``Cati.infer_binary(structs=True)``, the reference, and through
each other entry point: the daemon's ``binary``, ``windows_packed`` and
``demo`` jobs, an analysis session (``type_variable`` for every
variable, then ``struct_layouts``), ``repro infer --json --structs``,
a two-worker router serving ``binary`` jobs and a session walk (sticky
routing), ``batch.run_job(structs=True)``, a second ``run_job`` over
a window cache the first filled (every leaf row read back from disk),
a ``repro batch run`` SIGKILLed right after a shard commits, then
resumed (its results merge shards read back from disk with a shard
computed in memory), and a job over poisoned copies of the corpus under
``on_error="skip"``, resumed so that every shard, failure records
included, is read back from the journal; its reference is offline
inference over the same poisoned copies.  Every entry point is reduced to one canonical
form and compared with the reference: variable id, type and VUC count
exactly, vote scores to 1e-6 (a request coalesced into another batch
composition may move leaf probabilities at the ~1e-8 level), struct
layouts where the entry point recovers them, and failures as (stage,
kind, function).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.batch import JobSpec, resume_job, run_job
from repro.batch.spec import ManifestItem
from repro.cli import main as cli_main
from repro.serve import protocol
from repro.serve.client import ServeClient, SessionHandle
from repro.serve.router import RouterDaemon
from repro.vuc.stream import extract_vuc_stream
from tests.faultinject import poison_binary
from tests.test_serve import start_daemon, stop_daemon

#: One seeded binary per optimization level.
CORPUS = tuple(ManifestItem(kind="demo", name=f"oracle-{seed}", seed=seed,
                            opt_level=level)
               for level, seed in enumerate((301, 302, 303)))

TOLERANCE = 1e-6
REPO = Path(__file__).resolve().parent.parent


def canonical(predictions, layouts=None, failures=()) -> dict:
    """The comparable form of one binary's answer at any entry point.

    ``predictions`` are wire-style dicts (``type`` or batch's
    ``predicted``), keyed here by variable id; ``layouts`` is None when
    the entry point does not run the posterior stage.
    """
    return {
        "predictions": {
            p["variable_id"]: (p.get("type", p.get("predicted")), p["n_vucs"],
                               [float(s) for s in p["scores"]])
            for p in predictions},
        "layouts": layouts,
        "failures": sorted((f["stage"], f["kind"], f["function"]) for f in failures),
    }


def assert_close(ours, theirs, path="answer") -> None:
    """Equal, except floats may differ by :data:`TOLERANCE`."""
    if isinstance(ours, float) or isinstance(theirs, float):
        assert ours == pytest.approx(theirs, abs=TOLERANCE), path
    elif isinstance(ours, dict):
        assert isinstance(theirs, dict) and ours.keys() == theirs.keys(), path
        for key in ours:
            assert_close(ours[key], theirs[key], f"{path}[{key!r}]")
    elif isinstance(ours, (list, tuple)):
        assert isinstance(theirs, (list, tuple)) and len(ours) == len(theirs), path
        for index, (a, b) in enumerate(zip(ours, theirs)):
            assert_close(a, b, f"{path}[{index}]")
    else:
        assert ours == theirs, path


@pytest.fixture(scope="module")
def jobs():
    return {item.name: item.load() for item in CORPUS}


def offline(cati, stripped, extents, on_error="raise") -> dict:
    result = cati.infer_binary(stripped, extents, on_error=on_error, structs=True)
    return canonical(
        [protocol.prediction_to_dict(p) for p in result],
        [protocol.layout_to_dict(layout) for layout in result.layouts],
        [r.to_dict() for r in result.failures.records])


@pytest.fixture(scope="module")
def reference(mini_cati, jobs) -> dict:
    return {name: offline(mini_cati, *job) for name, job in jobs.items()}


@pytest.fixture(scope="module")
def poisoned_jobs(jobs) -> dict:
    """Each corpus binary with ~20% of its functions undecodable."""
    return {name: (poison_binary(stripped)[0], extents)
            for name, (stripped, extents) in jobs.items()}


@pytest.fixture(scope="module")
def poisoned_reference(mini_cati, poisoned_jobs) -> dict:
    return {name: offline(mini_cati, *job, on_error="skip")
            for name, job in poisoned_jobs.items()}


@pytest.fixture(scope="module")
def cli_reference(mini_cati) -> dict:
    """The reference for each item compiled under the CLI's fixed name.

    The CLI names every binary ``cli-demo``, and the name seeds code
    generation, so ``repro infer --seed S`` types a different binary
    than the corpus item with seed S.
    """
    return {item.name: offline(mini_cati, *dataclasses.replace(item, name="cli-demo").load())
            for item in CORPUS}


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory, mini_cati):
    directory = tmp_path_factory.mktemp("oracle") / "bundle"
    mini_cati.save(str(directory))
    return directory


@pytest.fixture(scope="module")
def client(bundle_dir):
    daemon, thread, client = start_daemon(bundle_dir, queue_limit=32)
    yield client
    stop_daemon(daemon, thread)


@pytest.fixture(scope="module")
def router_client(bundle_dir):
    router = RouterDaemon(str(bundle_dir), port=0, workers=2, queue_limit=32)
    thread = threading.Thread(target=router.run, daemon=True)
    thread.start()
    client = ServeClient(router.host, router.port, timeout=120)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        try:
            if client.health()["workers_live"] == 2:
                break
        except OSError:
            pass
        time.sleep(0.05)
    yield client
    router.request_shutdown()
    thread.join(timeout=60)
    assert not thread.is_alive(), "router did not drain"


def _served(name: str, response: dict) -> dict:
    assert response["schema"] == protocol.RESPONSE_SCHEMA
    assert response["binary"] == name
    return canonical(response["predictions"],
                     failures=response["failures"]["records"])


def _binary_jobs(client, jobs) -> dict:
    return {name: _served(name, client.infer_binary(*job)) for name, job in jobs.items()}


def _session_walks(client, jobs) -> dict:
    out = {}
    for name, (stripped, extents) in jobs.items():
        opened = client._request("POST", "/v1/session/open", {
            "binary": protocol.binary_to_wire(stripped),
            "extents": protocol.extents_to_wire(extents)})
        handle = SessionHandle(client, opened["session"])
        try:
            predictions = [handle.type_variable(variable_id)["prediction"]
                           for variable_id in handle.variables]
            layouts = handle.struct_layouts()["layouts"]
        finally:
            handle.close()
        out[name] = canonical(predictions, layouts,
                              opened["failures"]["records"])
    return out


def _daemon_binary(env) -> dict:
    return _binary_jobs(env.request.getfixturevalue("client"), env.jobs)


def _daemon_windows_packed(env) -> dict:
    client = env.request.getfixturevalue("client")
    out = {}
    for name, (stripped, extents) in env.jobs.items():
        stream = extract_vuc_stream(stripped, extents, env.window)
        response = client.infer_windows(stream.windows(), stream.variable_ids)
        out[name] = canonical(response["predictions"],
                              failures=response["failures"]["records"])
    return out


def _daemon_demo(env) -> dict:
    client = env.request.getfixturevalue("client")
    return {item.name: _served(item.name, client.infer({"demo": {
                "seed": item.seed, "compiler": item.compiler,
                "opt_level": item.opt_level, "name": item.name}}))
            for item in CORPUS}


def _session(env) -> dict:
    return _session_walks(env.request.getfixturevalue("client"), env.jobs)


def _cli_json(env) -> dict:
    out = {}
    for item in CORPUS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli_main(["infer", "--model-dir", str(env.bundle_dir),
                             "--compiler", item.compiler,
                             "--opt-level", str(item.opt_level),
                             "--seed", str(item.seed), "--json", "--structs"]) == 0
        body = json.loads(stdout.getvalue())
        assert body["schema"] == protocol.RESPONSE_SCHEMA
        assert body["binary"] == "cli-demo"
        out[item.name] = canonical(body["predictions"], body["layouts"],
                                   body["failures"]["records"])
    return out


def _router_2w_binary(env) -> dict:
    return _binary_jobs(env.request.getfixturevalue("router_client"), env.jobs)


def _router_2w_session(env) -> dict:
    return _session_walks(env.request.getfixturevalue("router_client"), env.jobs)


def _batch(env) -> dict:
    spec = JobSpec(items=CORPUS, structs=True, shard_size=2)
    return _batch_answers(run_job(env.tmp_path / "job", spec,
                                  model_dir=str(env.bundle_dir)))


def _batch_warm_cache(env) -> dict:
    """Two jobs share one window cache; the second reads every row back."""
    spec = JobSpec(items=CORPUS, structs=True, shard_size=2)
    cache_dir = env.tmp_path / "cache"
    run_job(env.tmp_path / "cold", spec, model_dir=str(env.bundle_dir),
            cache_dir=cache_dir)
    results = run_job(env.tmp_path / "warm", spec, model_dir=str(env.bundle_dir),
                      cache_dir=cache_dir)
    cache = results["window_cache"]
    assert cache["hits"] > 0 and cache["misses"] == cache["appends"] == 0, cache
    return _batch_answers(results)


def _batch_resume(env) -> dict:
    """One shard per binary; killed right after shard 1 commits, then resumed."""
    manifest = env.tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"items": [item.to_dict() for item in CORPUS]}))
    job_dir = env.tmp_path / "job"
    killed = subprocess.run(
        [sys.executable, "-m", "repro", "batch", "run", "--job-dir", str(job_dir),
         "--model-dir", str(env.bundle_dir), "--manifest", str(manifest),
         "--shard-size", "1", "--structs", "--no-cache"],
        env={**os.environ, "PYTHONPATH": str(REPO / "src"),
             "REPRO_BATCH_FAULT": "kill:shard=1:point=post-commit"},
        cwd=REPO, capture_output=True, text=True, timeout=600)
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    results = resume_job(job_dir)
    assert (results["shards_reused"], results["shards_run"]) == (2, 1)
    return _batch_answers(results)


def _batch_poisoned(env) -> dict:
    """Poisoned binaries, one shard each, skipped per function; the
    resume reads every shard's payload back from the journal."""
    poisoned = env.request.getfixturevalue("poisoned_jobs")
    env.request.getfixturevalue("monkeypatch").setattr(
        ManifestItem, "load", lambda item: poisoned[item.name])
    spec = JobSpec(items=CORPUS, structs=True, shard_size=1,
                   on_error="skip")
    job_dir = env.tmp_path / "job"
    first = run_job(job_dir, spec, model_dir=str(env.bundle_dir))
    results = resume_job(job_dir)
    assert (results["shards_reused"], results["shards_run"]) == (3, 0)
    answers = _batch_answers(results)
    assert answers == _batch_answers(first)
    return answers


def _batch_answers(results: dict) -> dict:
    records = results["failures"]["records"]
    return {item.name: canonical(
                results["predictions"][item.name],
                results.get("layouts", {}).get(item.name),
                [r for r in records if r["binary"] == item.name])
            for item in CORPUS}


RUNNERS = {
    "daemon-binary": _daemon_binary,
    "daemon-windows_packed": _daemon_windows_packed,
    "daemon-demo": _daemon_demo,
    "session": _session,
    "cli-json": _cli_json,
    "router-2w-binary": _router_2w_binary,
    "router-2w-session": _router_2w_session,
    "batch": _batch,
    "batch-warm-cache": _batch_warm_cache,
    "batch-resume": _batch_resume,
    "batch-poisoned": _batch_poisoned,
}

#: Entry points that run the posterior stage and answer with layouts.
POSTERIOR = ("session", "cli-json", "router-2w-session", "batch", "batch-warm-cache",
             "batch-resume", "batch-poisoned")


@pytest.mark.parametrize("entry", tuple(RUNNERS))
def test_entry_point_matches_offline(entry, request, jobs, reference, mini_cati,
                                     tmp_path, bundle_dir):
    env = SimpleNamespace(request=request, jobs=jobs, window=mini_cati.config.window,
                          tmp_path=tmp_path, bundle_dir=bundle_dir)
    answers = RUNNERS[entry](env)
    if entry == "cli-json":
        reference = request.getfixturevalue("cli_reference")
    elif entry == "batch-poisoned":
        reference = request.getfixturevalue("poisoned_reference")
        assert all(answer["failures"] for answer in reference.values())
    assert answers.keys() == reference.keys()
    for name, answer in answers.items():
        assert answer["predictions"], f"{name}: no predictions to compare"
        expected = dict(reference[name])
        if entry not in POSTERIOR:
            expected["layouts"] = None
        assert_close(answer, expected, f"{entry}:{name}")
