"""Seed handling of the end-to-end benchmark's inputs.

    python3 -m pytest e2ebench/test_seeds.py

The same seed must give byte-identical corpora, request bodies and
manifests; another seed must give different ones; and the codegen seed
streams of the three workloads must never overlap.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
from repro.serve import protocol  # noqa: E402
from repro.vuc.dataset import extract_unlabeled_vucs  # noqa: E402

WINDOW = inputs.model_config().window


def corpus_bytes(items) -> bytes:
    return json.dumps([inputs.wire_job(item) for item in items],
                      sort_keys=True).encode()


def request_bytes(items) -> bytes:
    bodies = [inputs.request_body(item, extract_unlabeled_vucs(
        item.stripped, item.extents, WINDOW)) for item in items]
    return json.dumps(bodies, sort_keys=True).encode()


def manifest_bytes(items, directory: Path) -> bytes:
    manifest = inputs.write_manifest(directory, items, "m")
    files = sorted(directory.iterdir())
    return manifest.read_bytes() + b"".join(p.read_bytes() for p in files)


def all_inputs(seed: int, directory: Path) -> dict[str, bytes]:
    bulk, sessions = inputs.serve_inputs(seed, 3, 1)
    corpus_a, corpus_b = inputs.batch_inputs(seed, 3, 1)
    return {
        "offline corpus": corpus_bytes(inputs.offline_inputs(seed, 3)),
        "serve requests": request_bytes(bulk),
        "serve sessions": corpus_bytes(sessions),
        "batch manifest A": manifest_bytes(corpus_a, directory / "a"),
        "batch manifest B": manifest_bytes(corpus_b, directory / "b"),
    }


def test_same_seed_gives_identical_inputs(tmp_path):
    first = all_inputs(7, tmp_path / "first")
    second = all_inputs(7, tmp_path / "second")
    assert first == second


def test_other_seed_gives_different_inputs(tmp_path):
    first = all_inputs(7, tmp_path / "first")
    other = all_inputs(8, tmp_path / "other")
    for name in first:
        assert first[name] != other[name], name


def test_workload_streams_do_not_overlap():
    streams = {w: set() for w in inputs.WORKLOAD_TAGS}
    for workload in streams:
        for seed in range(20):
            streams[workload].update(inputs.workload_seeds(workload, seed, 50))
    names = list(streams)
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            assert not streams[first] & streams[second], (first, second)


def test_seeds_within_a_run_are_distinct():
    seeds = inputs.workload_seeds("serve-mixed", 3, 500)
    assert len(set(seeds)) == 500


def test_training_corpus_ignores_the_seed():
    # The model is the system under test; only its inputs follow --seed.
    windows = [sample.tokens for sample in inputs.training_corpus()]
    assert windows == [sample.tokens for sample in inputs.training_corpus()]


def test_packed_bodies_round_trip():
    bulk, _sessions = inputs.serve_inputs(5, 1, 0)
    pairs = extract_unlabeled_vucs(bulk[0].stripped, bulk[0].extents, WINDOW)
    body = inputs.request_body(bulk[0], pairs)
    assert protocol.unpack_windows(body["windows_packed"]) == [t for _v, t in pairs]
