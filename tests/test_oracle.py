"""One differential oracle across the entry points that type a binary.

A small seeded corpus of well-formed binaries (-O0 to -O2) runs through
offline ``Cati.infer_binary(structs=True)``, the reference, and through
each other entry point: the daemon's ``binary`` and ``windows_packed``
jobs, an analysis session (``type_variable`` for every variable, then
``struct_layouts``) and ``batch.run_job(structs=True)``.  Every entry
point is reduced to one canonical form and compared with the reference:
variable id, type and VUC count exactly, vote scores to 1e-6 (a request
coalesced into another batch composition may move leaf probabilities at
the ~1e-8 level), struct layouts where the entry point recovers them,
and failures as (stage, kind, function).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.batch import JobSpec, run_job
from repro.batch.spec import ManifestItem
from repro.serve import protocol
from repro.serve.client import SessionHandle
from repro.vuc.stream import extract_vuc_stream
from tests.test_serve import start_daemon, stop_daemon

#: One seeded binary per optimization level.
CORPUS = tuple(ManifestItem(kind="demo", name=f"oracle-{seed}", seed=seed,
                            opt_level=level)
               for level, seed in enumerate((301, 302, 303)))

TOLERANCE = 1e-6


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


@pytest.fixture(scope="module")
def reference(mini_cati, jobs) -> dict:
    out = {}
    for name, (stripped, extents) in jobs.items():
        result = mini_cati.infer_binary(stripped, extents, structs=True)
        out[name] = canonical(
            [protocol.prediction_to_dict(p) for p in result],
            [protocol.layout_to_dict(layout) for layout in result.layouts],
            [r.to_dict() for r in result.failures.records])
    return out


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


def _daemon_binary(env) -> dict:
    out = {}
    for name, (stripped, extents) in env.jobs.items():
        response = env.client.infer_binary(stripped, extents)
        out[name] = canonical(response["predictions"],
                              failures=response["failures"]["records"])
    return out


def _daemon_windows_packed(env) -> dict:
    out = {}
    for name, (stripped, extents) in env.jobs.items():
        stream = extract_vuc_stream(stripped, extents, env.window)
        response = env.client.infer_windows(stream.windows(), stream.variable_ids)
        out[name] = canonical(response["predictions"],
                              failures=response["failures"]["records"])
    return out


def _session(env) -> dict:
    out = {}
    for name, (stripped, extents) in env.jobs.items():
        opened = env.client._request("POST", "/v1/session/open", {
            "binary": protocol.binary_to_wire(stripped),
            "extents": protocol.extents_to_wire(extents)})
        handle = SessionHandle(env.client, opened["session"])
        try:
            predictions = [handle.type_variable(variable_id)["prediction"]
                           for variable_id in handle.variables]
            layouts = handle.struct_layouts()["layouts"]
        finally:
            handle.close()
        out[name] = canonical(predictions, layouts,
                              opened["failures"]["records"])
    return out


def _batch(env) -> dict:
    spec = JobSpec(items=CORPUS, structs=True, shard_size=2, backoff=0.0)
    results = run_job(env.tmp_path / "job", spec, model_dir=str(env.bundle_dir))
    records = results["failures"]["records"]
    return {item.name: canonical(
                results["predictions"][item.name],
                results.get("layouts", {}).get(item.name),
                [r for r in records if r["binary"] == item.name])
            for item in CORPUS}


RUNNERS = {
    "daemon-binary": _daemon_binary,
    "daemon-windows_packed": _daemon_windows_packed,
    "session": _session,
    "batch": _batch,
}

#: Entry points that run the posterior stage and answer with layouts.
POSTERIOR = ("session", "batch")


@pytest.mark.parametrize("entry", tuple(RUNNERS))
def test_entry_point_matches_offline(entry, client, jobs, reference, mini_cati,
                                     tmp_path, bundle_dir):
    env = SimpleNamespace(client=client, jobs=jobs, window=mini_cati.config.window,
                          tmp_path=tmp_path, bundle_dir=bundle_dir)
    answers = RUNNERS[entry](env)
    assert answers.keys() == reference.keys()
    for name, answer in answers.items():
        assert answer["predictions"], f"{name}: no predictions to compare"
        expected = dict(reference[name])
        if entry not in POSTERIOR:
            expected["layouts"] = None
        assert_close(answer, expected, f"{entry}:{name}")
