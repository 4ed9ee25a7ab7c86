"""The session tool surface: one dispatch table, six tools.

``POST /v1/session/<id>/call`` bodies are ``{"tool": <name>, "args":
{...}}`` (schema ``cati-tool-call/1``); :func:`call_tool` dispatches to
the handlers below, each of which returns the JSON-ready ``result``
object.  The tools are the CATI primitives reverse-engineering
assistants consume:

* ``list_functions``        — the binary's functions + their variables;
* ``disassemble``           — one function's raw listing;
* ``type_variable``         — eq. 3-4 vote for one variable, through
  the micro-batcher's small-batch path (this is the single-question
  interactive workload the scheduler's delay budget bounds);
* ``explain``               — eq. 5 occlusion ε per instruction of one
  of the variable's VUCs, on the id-level batched engine path;
* ``annotate_disassembly``  — the Fig. 2 listing with inferred types
  inline;
* ``struct_layouts``        — the posterior struct-recovery stage
  scoped to this session's binary.

Handlers raise :class:`~repro.core.errors.RequestError` (400) for bad
arguments; anything session-existence shaped was already settled by the
store lookup before dispatch.  ``repro.serve`` is imported lazily
inside functions — the serve server imports this package at module
level, so the reverse edge must stay function-local.
"""

from __future__ import annotations

from repro.analysis.render import render_epsilons, render_listing
from repro.analysis.session import AnalysisSession
from repro.core.errors import RequestError


def _tool_list_functions(daemon, session: AnalysisSession, args: dict) -> dict:
    functions = []
    for index, func in enumerate(session.binary.functions):
        functions.append({
            "index": index,
            "name": func.name,
            "address": func.address,
            "n_instructions": len(func.instructions),
            "variables": session.function_variables(index),
        })
    return {
        "binary": session.binary.name,
        "n_functions": len(functions),
        "n_variables": len(session.rows),
        "functions": functions,
    }


def _tool_disassemble(daemon, session: AnalysisSession, args: dict) -> dict:
    index, func = session.function_by_ref(args.get("function", 0))
    return {
        "function": func.name,
        "index": index,
        "address": func.address,
        "lines": render_listing(func),
    }


def _tool_type_variable(daemon, session: AnalysisSession, args: dict) -> dict:
    from repro.serve import protocol

    variable_id = args.get("variable_id")
    if not isinstance(variable_id, str):
        raise RequestError("'variable_id' must be a string", stage="serve")
    rows = session.variable_rows(variable_id)
    ids, _engine, generation = session.encoded(daemon.model_host)
    # One variable's windows through the scheduler: the small-batch path
    # the interactive latency benchmark measures.  A per-variable slice
    # votes identically to the full-binary matrix (eq. 3-4 sums per
    # variable), so this equals the offline prediction byte-for-byte.
    pending = daemon.scheduler.submit(
        session.stream.subset(rows), deadline_s=daemon.default_deadline_s,
        ids=ids[rows], generation=generation)
    predictions = daemon.scheduler.wait(pending,
                                        timeout=daemon.default_deadline_s)
    return {
        "variable_id": variable_id,
        "prediction": protocol.prediction_to_dict(predictions[0]),
    }


def _tool_explain(daemon, session: AnalysisSession, args: dict) -> dict:
    from repro.core.types import ALL_TYPES

    variable_id = args.get("variable_id")
    if not isinstance(variable_id, str):
        raise RequestError("'variable_id' must be a string", stage="serve")
    rows = session.variable_rows(variable_id)
    try:
        vuc = int(args.get("vuc", 0))
    except (TypeError, ValueError) as error:
        raise RequestError("'vuc' must be an integer index",
                           stage="serve") from error
    if not 0 <= vuc < len(rows):
        raise RequestError(
            f"variable {variable_id!r} has {len(rows)} VUCs; "
            f"'vuc' {vuc} is out of range", stage="serve")
    window = session.stream.subset([rows[vuc]]).windows()[0]
    ids, engine, _generation = session.encoded(daemon.model_host)
    batched = engine.occlusion_epsilons_many(ids[[rows[vuc]]])
    epsilons = batched.epsilons[0]
    return {
        "variable_id": variable_id,
        "vuc": vuc,
        "n_vucs": len(rows),
        "predicted": str(ALL_TYPES[int(batched.predicted_indices[0])]),
        "base_confidence": float(batched.base_confidences[0]),
        "epsilons": [float(eps) for eps in epsilons],
        "lines": render_epsilons(window, epsilons),
    }


def _tool_annotate_disassembly(daemon, session: AnalysisSession,
                               args: dict) -> dict:
    index, func = session.function_by_ref(args.get("function", 0))
    predictions = session.ensure_scored(daemon).predictions
    types_by_id = {p.variable_id: str(p.predicted) for p in predictions}
    annotation = {ins_index: types_by_id[variable_id]
                  for ins_index, variable_id in session.annotations[index].items()
                  if variable_id in types_by_id}
    return {
        "function": func.name,
        "index": index,
        "lines": render_listing(func, annotation),
        "annotations": [
            {"index": ins_index,
             "variable_id": variable_id,
             "type": types_by_id[variable_id]}
            for ins_index, variable_id in sorted(session.annotations[index].items())
            if variable_id in types_by_id
        ],
    }


def _tool_struct_layouts(daemon, session: AnalysisSession, args: dict) -> dict:
    from repro.serve import protocol

    layouts = session.ensure_scored(daemon).layouts
    return {
        "binary": session.binary.name,
        "n_layouts": len(layouts),
        "layouts": [protocol.layout_to_dict(layout) for layout in layouts],
    }


_TOOLS = {
    "list_functions": _tool_list_functions,
    "disassemble": _tool_disassemble,
    "type_variable": _tool_type_variable,
    "explain": _tool_explain,
    "annotate_disassembly": _tool_annotate_disassembly,
    "struct_layouts": _tool_struct_layouts,
}

#: Public tool names, dispatch order (docs/clients enumerate these).
TOOL_NAMES = tuple(_TOOLS)


def call_tool(daemon, session: AnalysisSession, tool: str, args: dict) -> dict:
    """Dispatch one tool call against an open session."""
    handler = _TOOLS.get(tool)
    if handler is None:
        raise RequestError(
            f"unknown tool {tool!r}; available: {', '.join(TOOL_NAMES)}",
            stage="serve")
    if not isinstance(args, dict):
        raise RequestError("'args' must be a JSON object", stage="serve")
    return handler(daemon, session, args)


__all__ = ["TOOL_NAMES", "call_tool"]
