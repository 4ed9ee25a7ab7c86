"""Struct-layout recovery quality -> BENCH_structs.json.

Trains a mini model on a struct-heavy synthetic corpus, then measures
the posterior stage (:mod:`repro.posterior`) on held-out binaries:

1. **extract** — per-binary VUC windows with row-aligned access sites;
2. **posterior** — :func:`recover_layouts` with cross-function pooling
   and the ``min_accesses`` evidence floor (the PR's tentpole);
3. **baseline** — :func:`flat_baseline_layouts`: the same leaf
   posteriors voted per object with no pooling and no evidence floor,
   i.e. what a flat per-slot argmax gives;
4. **truth** — ``DW_AT_data_member_location`` layouts from the unstripped
   twins, keyed exactly like the pipeline keys objects.

Both recovered layout sets are scored field-by-field
(:func:`repro.eval.metrics.evaluate_layouts`); the acceptance gate is
the posterior's field-level F1 **strictly above** the flat baseline's.
A second gate asserts the engine path (``infer_binary(structs=True)``)
attaches layouts end to end.

Run directly: ``PYTHONPATH=src python benchmarks/bench_structs.py``
(``--smoke`` shrinks both corpora; the gates still apply).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

from repro.codegen.compilers import GccCompiler
from repro.codegen.progen import DEFAULT_TYPE_WEIGHTS, GeneratorConfig
from repro.codegen.strip import strip
from repro.core.config import CatiConfig
from repro.core.pipeline import Cati, predictions_from_probs
from repro.core.types import TypeName
from repro.embedding.word2vec import Word2VecConfig
from repro.eval.metrics import FieldReport, evaluate_layouts
from repro.eval.reports import render_field_report
from repro.experiments.speed import extents_from_debug
from repro.posterior import (
    flat_baseline_layouts,
    layouts_to_fields,
    recover_layouts,
    truth_layouts,
)
from repro.vuc.dataset import VucDataset, extract_labeled_vucs, extract_unlabeled_vucs

_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_structs.json"


def _gate(condition: bool, message: str) -> None:
    if not condition:
        print(f"bench_structs: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def _struct_heavy_config() -> GeneratorConfig:
    """A generator profile where struct objects dominate the frame.

    Struct and struct-pointer locals are heavily over-weighted, every
    second struct pointer becomes a spilled parameter, and access counts
    are raised so field offsets accumulate pooled evidence.
    """
    weights = dict(DEFAULT_TYPE_WEIGHTS)
    weights[TypeName.STRUCT] = 30.0
    weights[TypeName.STRUCT_POINTER] = 30.0
    return GeneratorConfig(
        type_weights=weights,
        orphan_fraction=0.15,
        normal_accesses=(4, 10),
        array_fraction=0.0,
        struct_param_fraction=0.5,
    )


def _train(seeds: range, gen: GeneratorConfig, config: CatiConfig) -> Cati:
    compiler = GccCompiler()
    dataset = VucDataset(window=config.window)
    for seed in seeds:
        binary = compiler.compile_fresh(
            seed=seed, name=f"train-{seed}", opt_level=0, config=gen)
        dataset.extend(extract_labeled_vucs(binary, app="structs",
                                            window=config.window,
                                            member_labels=True))
    print(f"bench_structs: training on {len(dataset)} VUCs "
          f"({dataset.n_variables()} variables)", flush=True)
    return Cati(config).train(dataset)


def _report_dict(report: FieldReport) -> dict:
    return {k: (round(v, 4) if isinstance(v, float) else v)
            for k, v in dataclasses.asdict(report).items()}


def main() -> None:
    smoke = "--smoke" in sys.argv
    train_seeds = range(9000, 9008 if smoke else 9012)
    eval_seeds = range(9500, 9503 if smoke else 9508)

    gen = _struct_heavy_config()
    config = CatiConfig(
        epochs=15, fc_width=128,
        word2vec=Word2VecConfig(dim=32, window=5, epochs=3,
                                subsample_pairs=0.4))
    cati = _train(train_seeds, gen, config)
    engine = cati.engine
    compiler = GccCompiler()

    pooled_fields: dict = {}
    baseline_fields: dict = {}
    truth_fields: dict = {}
    n_layouts = n_engine_layouts = 0
    for seed in eval_seeds:
        binary = compiler.compile_fresh(
            seed=seed, name=f"eval-{seed}", opt_level=0, config=gen)
        stripped = strip(binary)
        extents = extents_from_debug(binary)

        sites: list = []
        pairs = extract_unlabeled_vucs(stripped, extents, config.window,
                                       sites=sites)
        windows = [tokens for _vid, tokens in pairs]
        variable_ids = [vid for vid, _tokens in pairs]
        probs = engine.leaf_proba(windows)
        predictions = predictions_from_probs(
            probs, variable_ids, config.confidence_threshold)

        posterior = recover_layouts(
            predictions, probs, variable_ids, sites,
            threshold=config.confidence_threshold)
        baseline = flat_baseline_layouts(
            predictions, probs, variable_ids, sites,
            threshold=config.confidence_threshold)
        n_layouts += len(posterior)
        pooled_fields.update(layouts_to_fields(posterior))
        baseline_fields.update(layouts_to_fields(baseline))
        truth_fields.update(truth_layouts(binary, scope_name=stripped.name))

        # End-to-end path: the engine must attach the same stage's output.
        result = cati.infer_binary(stripped, extents, structs=True)
        _gate(result.layouts is not None,
              "infer_binary(structs=True) attached no layouts")
        n_engine_layouts += len(result.layouts)

    _gate(bool(truth_fields), "eval corpus produced no true struct layouts")
    _gate(n_layouts > 0, "posterior stage recovered no layouts")
    _gate(n_engine_layouts == n_layouts,
          "engine path and library path disagree on layout count")

    posterior_report = evaluate_layouts(pooled_fields, truth_fields)
    baseline_report = evaluate_layouts(baseline_fields, truth_fields)
    print(render_field_report(posterior_report, title="posterior (pooled)"))
    print()
    print(render_field_report(baseline_report, title="flat per-slot baseline"))

    _gate(posterior_report.field_f1 > baseline_report.field_f1,
          f"posterior field F1 ({posterior_report.field_f1:.4f}) must beat "
          f"the flat baseline ({baseline_report.field_f1:.4f})")

    body = {
        "bench": "structs",
        "smoke": smoke,
        "corpus": {"train_binaries": len(train_seeds),
                   "eval_binaries": len(eval_seeds),
                   "true_objects": posterior_report.n_objects,
                   "true_fields": posterior_report.n_true_fields},
        "posterior": _report_dict(posterior_report),
        "baseline": _report_dict(baseline_report),
        "field_f1_lift": round(
            posterior_report.field_f1 - baseline_report.field_f1, 4),
    }
    _ARTIFACT.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    print(f"bench_structs: OK -> {_ARTIFACT}")


if __name__ == "__main__":
    main()
