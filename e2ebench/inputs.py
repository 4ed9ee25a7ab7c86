"""Seeded inputs for the end-to-end benchmark.

One ``--seed`` generates every input of a run.  Each workload draws its
codegen seeds from its own stream: a ``random.Random`` keyed by the
workload name and the seed, offset by a per-workload tag into a range no
other workload (and no training corpus) can reach, so the three streams
never overlap.  The program only ever sees the generated binaries, wire
files and request bodies; it never sees the seed.

The mini model is part of the system under test, not an input: it is
trained on a fixed corpus that does not depend on ``--seed``, so every
run measures the same model.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro.codegen.binary import Binary, debug_variables
from repro.codegen.compilers import GccCompiler
from repro.codegen.progen import GeneratorConfig
from repro.codegen.strip import strip
from repro.core.config import CatiConfig
from repro.datasets.corpus import build_dataset
from repro.datasets.projects import TRAINING_PROJECTS, ProjectProfile
from repro.embedding.word2vec import Word2VecConfig
from repro.experiments.speed import extents_from_debug
from repro.frontend.native import LoadedBinary
from repro.serve import protocol
from repro.vuc.dataflow import VariableExtent
from repro.vuc.dataset import VucDataset

WORKLOAD_TAGS = {"offline-corpus": 1, "serve-mixed": 2, "batch-recompile": 3}
#: Codegen seeds of workload ``tag`` lie in [tag * SPAN, (tag + 1) * SPAN).
SEED_SPAN = 10 ** 12
OPT_LEVELS = (0, 1, 2)


def workload_seeds(workload: str, seed: int, count: int) -> list[int]:
    """``count`` distinct codegen seeds from ``workload``'s own stream."""
    tag = WORKLOAD_TAGS[workload]
    rng = random.Random(f"cati-e2e:{workload}:{seed}")
    return [tag * SEED_SPAN + s for s in rng.sample(range(SEED_SPAN), count)]


@dataclass
class Item:
    """One binary to analyse: stripped view, given extents and DWARF truth."""

    name: str
    stripped: Binary
    extents: list[list[VariableExtent]]
    truth: dict[str, str]   # variable id -> leaf type name


def truth_by_variable(binary: Binary) -> dict[str, str]:
    """DWARF truth keyed by the pipeline's variable ids (``name/fn::base±off``)."""
    index_of = {func.name: i for i, func in enumerate(binary.functions)}
    truth = {}
    for record in debug_variables(binary):
        base = "rbp" if record.frame_offset < 0 else "rsp"
        func_index = index_of.get(record.function)
        if func_index is not None:
            key = f"{binary.name}/{func_index}::{base}{record.frame_offset:+d}"
            truth[key] = str(record.type_label)
    return truth


def synthetic_item(codegen_seed: int, name: str, opt_level: int,
                   config: GeneratorConfig | None = None) -> Item:
    binary = GccCompiler().compile_fresh(seed=codegen_seed, name=name,
                                         opt_level=opt_level, config=config)
    return Item(name, strip(binary), extents_from_debug(binary),
                truth_by_variable(binary))


def synthetic_corpus(workload: str, seed: int, count: int, prefix: str,
                     config: GeneratorConfig | None = None) -> list[Item]:
    """``count`` seeded GccCompiler binaries cycling -O0/-O1/-O2."""
    return [synthetic_item(codegen_seed, f"{prefix}-{i}",
                           OPT_LEVELS[i % len(OPT_LEVELS)], config)
            for i, codegen_seed in enumerate(workload_seeds(workload, seed, count))]


#: Small programs (2-5 functions instead of 6-14) let every workload
#: cover enough distinct binaries in a run for a p95 with about ten
#: samples beyond it.
SMALL_PROGRAMS = GeneratorConfig(functions_per_binary=(2, 5))


def offline_inputs(seed: int, count: int) -> list[Item]:
    """The offline-corpus workload's synthetic binaries."""
    return synthetic_corpus("offline-corpus", seed, count, "off", SMALL_PROGRAMS)


def serve_inputs(seed: int, n_bulk: int, n_sessions: int) -> tuple[list[Item], list[Item]]:
    """(bulk binaries, session binaries) of the serve-mixed workload."""
    seeds = workload_seeds("serve-mixed", seed, n_bulk + n_sessions)
    items = [synthetic_item(s, f"srv-{i}", OPT_LEVELS[i % len(OPT_LEVELS)],
                            SMALL_PROGRAMS if i < n_bulk else None)
             for i, s in enumerate(seeds)]
    return items[:n_bulk], items[n_bulk:]


def batch_inputs(seed: int, count: int, changed: int) -> tuple[list[Item], list[Item]]:
    """(corpus A, corpus B): B drops A's first ``changed`` binaries and adds
    ``changed`` new ones, the shape of a recompile."""
    corpus = synthetic_corpus("batch-recompile", seed, count + changed, "bat",
                              SMALL_PROGRAMS)
    return corpus[:count], corpus[changed:]


def batch_orders(seed: int, corpus: list[Item], count: int) -> list[list[Item]]:
    """``count`` seeded shuffles of ``corpus``, one manifest order per pass.

    A job's per-binary cost grows with the binary's position in the job,
    so the slowest latencies come from the last positions; shuffling per
    pass spreads them over every binary instead of the same few.
    """
    rng = random.Random(f"cati-e2e:batch-order:{seed}:{corpus[0].name}")
    orders = []
    for _ in range(count):
        order = list(corpus)
        rng.shuffle(order)
        orders.append(order)
    return orders


def native_item(loaded: LoadedBinary, name: str, opt_level: int) -> Item:
    """A natively loaded real ELF as a stripped binary + extents + truth."""
    functions = list(loaded.functions)
    by_function: dict[str, list] = {}
    for variable in loaded.variables:
        by_function.setdefault(variable.function, []).append(variable)
    extents = []
    truth = {}
    for index, func in enumerate(functions):
        row = []
        for variable in by_function.get(func.name, []):
            row.append(VariableExtent(variable.name, "rbp", variable.rbp_offset,
                                      max(variable.size, 1)))
            truth[f"{name}/{index}::rbp{variable.rbp_offset:+d}"] = str(variable.label)
        extents.append(row)
    stripped = Binary(name=name, compiler="gcc", opt_level=opt_level,
                      functions=functions)
    return Item(name, stripped, extents, truth)


def request_body(item: Item, pairs) -> dict:
    """The bulk client's ``windows_packed`` /v1/infer body for one binary."""
    return {"windows_packed": protocol.pack_windows([tokens for _vid, tokens in pairs]),
            "variable_ids": [vid for vid, _tokens in pairs]}


def wire_job(item: Item) -> dict:
    """A batch manifest ``file`` item body (serve wire format)."""
    return {"binary": protocol.binary_to_wire(item.stripped),
            "extents": protocol.extents_to_wire(item.extents)}


def write_manifest(directory: Path, items: list[Item], name: str) -> Path:
    """Write one wire file per item plus the manifest ``name`` listing them."""
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for item in items:
        path = directory / f"{item.name}.json"
        if not path.exists():
            path.write_text(json.dumps(wire_job(item), sort_keys=True))
        entries.append({"kind": "file", "name": item.name, "path": path.name})
    manifest = directory / f"manifest-{name}.json"
    manifest.write_text(json.dumps({"items": entries}, sort_keys=True))
    return manifest


# -- the mini model ------------------------------------------------------------


def model_config() -> CatiConfig:
    """The mini model: one epoch, narrow heads, 32-dim embeddings."""
    return CatiConfig(
        epochs=1, fc_width=64,
        word2vec=Word2VecConfig(dim=32, window=5, epochs=1, subsample_pairs=0.4))


def training_corpus() -> VucDataset:
    """Fixed training set: ~1000 VUCs of two projects at -O0/-O1/-O2."""
    profiles = [ProjectProfile(p.name, p.seed, 1, dict(p.weight_overrides),
                               p.size_scale)
                for p in TRAINING_PROJECTS[:2]]
    dataset, _binaries = build_dataset(profiles, GccCompiler(),
                                       opt_levels=OPT_LEVELS)
    return dataset.subsample(1000, seed=0)
