#!/usr/bin/env python
"""Real-binary scenario: run the pipeline on genuine GCC output.

Compiles the bundled C sample with the system toolchain (gcc -g -O0),
parses real objdump/readelf output, extracts labeled VUCs from the real
DWARF, and evaluates both the rule-ladder baseline and a CATI model
trained on the real binary's own functions (leave-one-function-out).

Skips cleanly when gcc/objdump/readelf are unavailable.
"""

import sys

from repro.core import Cati, CatiConfig, TypeName
from repro.frontend import (
    compile_sample,
    extract_real_variables,
    parse_disassembly,
    toolchain_available,
    user_functions,
)
from repro.vuc import (
    VariableExtent,
    VucDataset,
    VucStream,
    group_targets,
    locate_targets,
)
from repro.vuc.dataset import LabeledVuc
from repro.baselines import rules_predict


def build_real_dataset() -> VucDataset:
    """Labeled VUCs from the real compiled sample."""
    artifact = compile_sample()
    functions = user_functions(parse_disassembly(artifact.disassembly))
    variables = extract_real_variables(artifact.dwarf_dump)
    stream = VucStream()
    labels = []
    for func in functions:
        func_vars = [v for v in variables if v.function == func.name]
        if not func_vars:
            continue
        extents = [VariableExtent(v.name, "rbp", v.rbp_offset, max(v.size, 1))
                   for v in func_vars]
        by_extent = {(e.base, e.offset): v.label for e, v in zip(extents, func_vars)}
        targets = locate_targets(func)
        indices, variable_ids = [], []
        for group in group_targets(targets, extents, f"real/{func.name}"):
            label = by_extent[(group.extent.base, group.extent.offset)]
            for target in group.targets:
                indices.append(target.index)
                variable_ids.append(group.variable_id)
                labels.append(label)
        # One token stream per binary: each covered instruction is
        # generalized once, and every VUC is a 21-instruction slice of it.
        stream.add_function(func, indices, variable_ids)
    return VucDataset(samples=[
        LabeledVuc(tokens=tokens, label=label, variable_id=variable_id,
                   binary="real/sample", app="sample", compiler="gcc")
        for tokens, label, variable_id in zip(stream.windows(), labels, stream.variable_ids)
    ])


def main() -> None:
    if not toolchain_available():
        print("gcc/objdump/readelf not found - skipping real-binary example")
        sys.exit(0)

    dataset = build_real_dataset()
    groups = dataset.by_variable()
    print(f"real binary: {len(dataset)} VUCs over {len(groups)} variables")
    print("type distribution:", {str(k): v for k, v in dataset.variable_label_counts().items()})

    truth = {vid: vucs[0].label for vid, vucs in groups.items()}
    rule_preds = rules_predict(groups)
    rule_hits = sum(rule_preds[vid] is truth[vid] for vid in rule_preds)
    print(f"\nrule-ladder baseline: {rule_hits}/{len(rule_preds)} variables correct "
          f"({rule_hits / len(rule_preds):.0%})")

    print("\ntraining CATI on synthetic corpus, predicting real variables...")
    from repro.datasets import build_small_corpus

    corpus = build_small_corpus()
    cati = Cati(CatiConfig(epochs=8)).train(corpus.train)
    predictions = cati.predict_variables(
        [s.tokens for s in dataset.samples],
        [s.variable_id for s in dataset.samples],
    )
    hits = sum(p.predicted is truth[p.variable_id] for p in predictions)
    print(f"CATI (synthetic-trained) on real GCC output: {hits}/{len(predictions)} "
          f"({hits / len(predictions):.0%})")
    for p in predictions[:12]:
        mark = "ok " if p.predicted is truth[p.variable_id] else "   "
        print(f"  {mark} {p.variable_id:34s} -> {str(p.predicted):16s} "
              f"(truth: {truth[p.variable_id]})")


if __name__ == "__main__":
    main()
