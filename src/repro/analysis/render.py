"""Shared text renderers for analysis output (Fig. 2 listings, eq. 5 ε).

The session tools (:mod:`repro.analysis.tools`) and the offline example
scripts (``examples/annotate_disassembly.py``,
``examples/explain_prediction.py``) both render through these helpers,
so "served output equals offline output" is a *byte* equality the tests
can assert on the rendered lines, not an approximate one.
"""

from __future__ import annotations

from repro.asm.instruction import FunctionListing
from repro.vuc import group_targets, locate_targets, tokens_to_text
from repro.vuc.dataflow import VariableExtent


def annotation_variable_ids(func: FunctionListing,
                            extents: list[VariableExtent],
                            scope: str) -> dict[int, str]:
    """Instruction index → variable id for one function's located targets.

    Runs the same locate/group pass extraction runs
    (:func:`repro.vuc.stream.extract_vuc_stream` uses the identical
    ``scope`` convention, ``"{binary}/{func_index}"``), so the ids here
    join exactly against per-variable predictions.
    """
    targets = locate_targets(func)
    mapping: dict[int, str] = {}
    for group in group_targets(targets, extents, scope):
        for target in group.targets:
            mapping[target.index] = group.variable_id
    return mapping


def render_listing(func: FunctionListing,
                   annotation: dict[int, str] | None = None) -> list[str]:
    """Fig. 2-style disassembly lines, type comments inline when given."""
    notes = annotation or {}
    return [f"  {ins.address:6x}:  {str(ins):42s} {notes.get(index, '')}"
            for index, ins in enumerate(func.instructions)]


def render_epsilons(window, epsilons) -> list[str]:
    """Fig. 6-style per-instruction ε lines for one VUC window.

    ``'#'`` bars mark instructions whose removal hurts the prediction;
    the center row (the located target) is flagged.
    """
    center = len(window) // 2
    lines = [f"{'epsilon':>8s}  instruction"]
    for position, (eps, tokens) in enumerate(zip(epsilons, window)):
        eps = float(eps)
        marker = "  <= target" if position == center else ""
        bar = "#" * int(max(0.0, (1.0 - min(eps, 1.0))) * 20)
        lines.append(f"{eps:8.4f}  {tokens_to_text(tokens):40s} {bar}{marker}")
    return lines
