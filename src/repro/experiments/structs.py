"""Extension — struct-layout recovery via the posterior stage.

The paper's pipeline stops at one leaf type per variable; this
extension evaluates :mod:`repro.posterior`, which re-aggregates the
same leaf posteriors per *field offset* inside struct objects and pools
evidence across functions.  A member-labeled mini model is trained on a
struct-heavy corpus, then held-out binaries are scored field-by-field
against ``DW_AT_data_member_location`` ground truth — once with the
posterior stage (pooling + evidence floor) and once with the flat
per-slot baseline (no pooling, no floor).

``benchmarks/bench_structs.py`` runs the same comparison at a larger
scale and gates the posterior's field F1 strictly above the baseline's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.compilers import GccCompiler
from repro.codegen.progen import DEFAULT_TYPE_WEIGHTS, GeneratorConfig
from repro.codegen.strip import strip
from repro.core.config import CatiConfig
from repro.core.pipeline import Cati
from repro.core.types import TypeName
from repro.embedding.word2vec import Word2VecConfig
from repro.eval.metrics import FieldReport, evaluate_layouts
from repro.eval.reports import render_field_report
from repro.experiments.speed import extents_from_debug
from repro.posterior import flat_baseline_layouts, layouts_to_fields, truth_layouts
from repro.vuc.dataset import VucDataset, extract_labeled_vucs
from repro.vuc.stream import extract_vuc_stream


@dataclass
class StructsResult:
    posterior: FieldReport
    baseline: FieldReport
    n_train_vucs: int

    @property
    def field_f1_lift(self) -> float:
        return self.posterior.field_f1 - self.baseline.field_f1

    def render(self) -> str:
        return (
            render_field_report(self.posterior, title="posterior (pooled)")
            + "\n\n"
            + render_field_report(self.baseline, title="flat per-slot baseline")
            + f"\n\nfield F1 lift over the flat baseline: {self.field_f1_lift:+.2f} "
            f"(member-labeled mini model, {self.n_train_vucs} training VUCs)"
        )


def struct_heavy_config() -> GeneratorConfig:
    """Generator profile where struct objects dominate the frame."""
    weights = dict(DEFAULT_TYPE_WEIGHTS)
    weights[TypeName.STRUCT] = 30.0
    weights[TypeName.STRUCT_POINTER] = 30.0
    return GeneratorConfig(type_weights=weights, orphan_fraction=0.15,
                           normal_accesses=(4, 10), array_fraction=0.0,
                           struct_param_fraction=0.5)


def run(n_train: int = 8, n_eval: int = 3, epochs: int = 15) -> StructsResult:
    gen = struct_heavy_config()
    config = CatiConfig(
        epochs=epochs, fc_width=128,
        word2vec=Word2VecConfig(dim=32, window=5, epochs=3,
                                subsample_pairs=0.4))
    compiler = GccCompiler()
    dataset = VucDataset(window=config.window)
    for seed in range(9000, 9000 + n_train):
        binary = compiler.compile_fresh(seed=seed, name=f"train-{seed}",
                                        opt_level=0, config=gen)
        dataset.extend(extract_labeled_vucs(binary, app="structs",
                                            window=config.window,
                                            member_labels=True))
    cati = Cati(config).train(dataset)

    pooled: dict = {}
    flat: dict = {}
    truth: dict = {}
    for seed in range(9500, 9500 + n_eval):
        binary = compiler.compile_fresh(seed=seed, name=f"eval-{seed}",
                                        opt_level=0, config=gen)
        stripped = strip(binary)
        stream = extract_vuc_stream(stripped, extents_from_debug(binary),
                                    config.window, sites=True)
        analysis = cati.engine.score([stream])[0]
        pooled.update(layouts_to_fields(analysis.layouts))
        flat.update(layouts_to_fields(flat_baseline_layouts(
            analysis.predictions, analysis.probs, stream.variable_ids,
            stream.sites, threshold=config.confidence_threshold)))
        truth.update(truth_layouts(binary, scope_name=stripped.name))

    return StructsResult(
        posterior=evaluate_layouts(pooled, truth),
        baseline=evaluate_layouts(flat, truth),
        n_train_vucs=len(dataset),
    )
