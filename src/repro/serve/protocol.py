"""The serving wire format: JSON request/response schemas + codecs.

Everything that crosses the HTTP boundary is defined here so the
daemon, the client and the offline CLI (``python -m repro infer
--json``) agree on one schema.

An ``/v1/infer`` request body is a JSON object with exactly one *job*
key:

* ``{"binary": <wire binary>, "extents": <wire extents>}`` — an
  uploaded stripped binary: per-function instruction listings (rendered
  through the canonical AT&T text the asm parser round-trips) plus the
  given variable locations (§VII-B's assumption);
* ``{"windows_packed": ["m\\top1\\top2\\n...", ...], "variable_ids":
  [...]}`` — pre-extracted generalized VUC windows, for clients that
  run location/extraction themselves (decompiler plugins): each window
  one string of exactly ``2w + 1`` instructions joined by newlines,
  tokens by tabs;
* ``{"demo": {"seed": N, "compiler": "gcc", "opt_level": 1}}`` — the
  server compiles, strips and types a seeded demo binary (tests, demos).

Every job becomes one :class:`~repro.vuc.stream.VucStream` (packed
windows lie end to end, :func:`stream_from_packed`), so the serving
layer encodes only through ``VucEncoder.encode_stream``.

Optional request fields: ``on_error`` (``"skip"``, the default, or
``"raise"``; :func:`on_error_field`), ``deadline_ms`` (a per-request
deadline; :func:`deadline_field`).  A ``/v1/reload`` body may name a
``model_dir`` (:func:`model_dir_field`).  A malformed field is a
:class:`RequestError` (400), like a malformed job.

The response schema (:func:`build_infer_response`) is shared verbatim
with ``python -m repro infer --json``: ``schema``, ``model`` info,
``predictions`` (variable id, type, VUC count, confidence, per-type
scores) and a machine-readable ``failures`` report.

The interactive session endpoints (``/v1/session/open``,
``/v1/session/<id>/call``, ``/v1/session/<id>/close`` — see
:mod:`repro.analysis`) share the binary/demo job forms for opens
and speak the ``cati-tool-call/1`` envelope (:data:`TOOL_SCHEMA`,
:func:`session_open_response`, :func:`tool_response`) for everything
else.

The schema is deliberately *router-transparent*: the pre-fork router
(:mod:`repro.serve.router`) forwards ``/v1/infer`` bodies to worker
processes byte-for-byte and relays their responses unparsed, so the
multi-worker deployment speaks exactly this format with zero
re-encoding on the forwarding path.  Anything added to the schema is
automatically served by both deployment shapes.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.asm.instruction import FunctionListing
from repro.asm.parser import AsmParseError, parse_instruction
from repro.codegen.binary import Binary
from repro.core.errors import ON_ERROR_VALUES, FailureReport, RequestError
from repro.vuc.dataflow import VariableExtent
from repro.vuc.intern import intern_line
from repro.vuc.stream import VucStream

if TYPE_CHECKING:
    from repro.core.pipeline import VariablePrediction

#: Version tag stamped into every /v1/infer response (and the CLI's
#: ``--json`` output); bump on any response-shape change.
#: /2 added per-prediction vote detail (``margin``, ``runner_up``,
#: ``runner_up_confidence``) and the optional top-level ``layouts``
#: block emitted when the posterior struct-recovery stage ran.
RESPONSE_SCHEMA = "cati-infer-response/2"

#: Job kinds an /v1/infer request may carry (exactly one).
JOB_KINDS = ("binary", "windows_packed", "demo")

#: Version tag stamped into every session-endpoint response
#: (``/v1/session/open`` and ``/v1/session/<id>/call``); bump on any
#: session-wire change.  A call request body is ``{"tool": <name>,
#: "args": {...}}``; the response wraps the tool's ``result`` object.
TOOL_SCHEMA = "cati-tool-call/1"

#: Job kinds a /v1/session/open request may carry — the ones that name
#: a whole binary.  Pre-extracted window jobs have no listing to
#: disassemble or annotate, so they cannot back a session.
SESSION_JOB_KINDS = ("binary", "demo")

#: The longest ``deadline_ms`` a request may ask for: the longest wait
#: ``threading`` accepts.
_MAX_DEADLINE_MS = threading.TIMEOUT_MAX * 1000.0


# -- Binary <-> wire ------------------------------------------------------------


def binary_to_wire(binary: Binary) -> dict:
    """A :class:`Binary`'s inference-relevant view as JSON-ready data.

    Instructions travel as ``[address, "mnemonic op1,op2"]`` pairs in
    the canonical AT&T text that :func:`repro.asm.parser
    .parse_instruction` round-trips exactly (asserted by
    ``tests/test_serve.py``), so the served pipeline sees the same
    instruction stream the offline pipeline would.
    """
    return {
        "name": binary.name,
        "compiler": binary.compiler,
        "opt_level": binary.opt_level,
        "functions": [
            {
                "name": func.name,
                "address": func.address,
                "instructions": [[ins.address, str(ins)] for ins in func.instructions],
            }
            for func in binary.functions
        ],
    }


def binary_from_wire(data: object) -> Binary:
    """Rebuild a stripped :class:`Binary` from :func:`binary_to_wire` data.

    Each distinct operand text is parsed once per call: the memo lives
    only as long as this call, so parsing the same body twice does the
    same work twice.
    """
    if not isinstance(data, dict):
        raise RequestError("'binary' must be an object", stage="serve")
    functions: list[FunctionListing] = []
    memo: dict = {}
    for func_data in _expect(data, "functions", list):
        if not isinstance(func_data, dict):
            raise RequestError("each function must be an object", stage="serve")
        listing = FunctionListing(
            name=str(func_data.get("name", "?")),
            address=_int_field(func_data, "address", 0),
        )
        for entry in _expect(func_data, "instructions", list):
            try:
                address, text = entry
                listing.instructions.append(
                    parse_instruction(str(text), address=int(address), memo=memo))
            except (AsmParseError, TypeError, ValueError, OverflowError) as error:
                raise RequestError(
                    f"bad instruction entry {entry!r}: {error}",
                    function=listing.name, stage="serve") from error
        functions.append(listing)
    return Binary(
        name=str(data.get("name", "uploaded")),
        compiler=str(data.get("compiler", "unknown")),
        opt_level=_int_field(data, "opt_level", 0),
        functions=functions,
    )


def extents_to_wire(extents_by_function: list[list[VariableExtent]]) -> list:
    """Per-function variable locations as JSON-ready data."""
    return [
        [{"name": e.name, "base": e.base, "offset": e.offset, "size": e.size}
         for e in extents]
        for extents in extents_by_function
    ]


def extents_from_wire(data: object) -> list[list[VariableExtent]]:
    if not isinstance(data, list):
        raise RequestError("'extents' must be a list of per-function lists",
                           stage="serve")
    out: list[list[VariableExtent]] = []
    for extents in data:
        if not isinstance(extents, list):
            raise RequestError("each function's extents must be a list",
                               stage="serve")
        row = []
        for entry in extents:
            try:
                row.append(VariableExtent(
                    name=str(entry["name"]), base=str(entry["base"]),
                    offset=int(entry["offset"]), size=int(entry["size"])))
            except (KeyError, TypeError, ValueError) as error:
                raise RequestError(
                    f"bad extent entry {entry!r}: {error}",
                    stage="serve") from error
        out.append(row)
    return out


def pack_windows(windows) -> list[str]:
    """Windows → the packed wire form (one string per window).

    Instructions are joined by ``"\\n"``, each instruction's three
    tokens by ``"\\t"``.  Generalized tokens never contain whitespace,
    so the packing round-trips; :func:`unpack_windows` is the inverse
    and :func:`stream_from_packed` decodes it for the daemon.
    """
    return ["\n".join("\t".join(triple) for triple in window)
            for window in windows]


def stream_from_packed(packed: object, variable_ids: object,
                       window: int) -> VucStream:
    """A ``windows_packed`` job → a stream of its windows laid end to end.

    Each window must be ``2 * window + 1`` lines of three tab-separated
    tokens and ``variable_ids`` a list aligned with the windows, else
    :class:`RequestError` (400): a malformed request never joins a batch.
    Lines decode through the line memo into one token list, with no tuple
    per window.
    """
    if not isinstance(packed, list):
        raise RequestError("'windows_packed' must be a list of strings",
                           stage="serve")
    if not isinstance(variable_ids, list) or len(variable_ids) != len(packed):
        raise RequestError(
            "'variable_ids' must be a list aligned with 'windows_packed'",
            stage="serve")
    length = 2 * window + 1
    tokens: list = []
    for index, text in enumerate(packed):
        lines = text.split("\n") if isinstance(text, str) else ()
        if len(lines) != length:
            raise RequestError(
                f"packed window {index} must be a string of {length} "
                "instructions joined by newlines, tokens by tabs",
                stage="serve")
        try:
            tokens += map(intern_line, lines)
        except ValueError as error:
            raise RequestError(f"packed window {index}: {error}",
                               stage="serve") from error
    return VucStream.end_to_end(tokens, [str(v) for v in variable_ids], window)


def unpack_windows(packed: Sequence[str]) -> list[tuple]:
    """Packed windows → the hashable token-triple tuples form.

    Decodes through the process-wide line memo, so each distinct line
    costs one split ever and the triples come back interned (zero new
    tuple objects on the hot path).
    """
    return [tuple(intern_line(line) for line in window.split("\n"))
            for window in packed]


def job_kind(request: dict) -> str:
    """Which job key the request carries; exactly one must be present."""
    present = [kind for kind in JOB_KINDS if kind in request]
    if len(present) != 1:
        raise RequestError(
            f"request must carry exactly one of {JOB_KINDS}, got {present or 'none'}",
            stage="serve")
    return present[0]


def on_error_field(request: dict) -> str:
    """The request's ``on_error`` policy; ``"skip"`` when absent."""
    on_error = request.get("on_error", "skip")
    if on_error not in ON_ERROR_VALUES:
        raise RequestError(f"'on_error' must be one of {ON_ERROR_VALUES}, "
                           f"got {on_error!r}", stage="serve")
    return on_error


def deadline_field(request: dict, default_s: float | None) -> float | None:
    """The request's deadline in seconds; ``default_s`` when absent or null.

    ``deadline_ms`` must be a number of milliseconds from 0 to the
    longest wait ``threading`` accepts: a bool, NaN or infinity is a
    :class:`RequestError`, not a deadline.
    """
    value = request.get("deadline_ms")
    if value is None:
        return default_s
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 <= value <= _MAX_DEADLINE_MS):
        raise RequestError(f"'deadline_ms' must be a number from 0 to "
                           f"{_MAX_DEADLINE_MS:.0f}, got {value!r}", stage="serve")
    return value / 1000.0


def model_dir_field(request: dict) -> str | None:
    """A ``/v1/reload`` body's ``model_dir``; None (the served one) when absent."""
    model_dir = request.get("model_dir")
    if model_dir is not None and not isinstance(model_dir, str):
        raise RequestError(f"'model_dir' must be a string, got {model_dir!r}",
                           stage="serve")
    return model_dir


# -- responses ------------------------------------------------------------------


def prediction_to_dict(prediction: "VariablePrediction") -> dict:
    """One VariablePrediction as the wire schema's prediction object.

    ``margin`` is the winner-minus-runner-up gap of the summed clipped
    vote scores (eq. 4's decision strength — what the posterior stage
    consumes); ``runner_up``/``runner_up_confidence`` name the losing
    finalist so clients can see *how* contested a prediction was.
    """
    from repro.core.types import ALL_TYPES

    scores = prediction.scores
    winner = int(scores.argmax())
    best = float(scores[winner])
    runner_up = None
    runner_up_score = 0.0
    if len(scores) > 1:
        order = scores.argsort()
        second = int(order[-1]) if int(order[-1]) != winner else int(order[-2])
        runner_up = str(ALL_TYPES[second])
        runner_up_score = float(scores[second])
    return {
        "variable_id": prediction.variable_id,
        "type": str(prediction.predicted),
        "n_vucs": prediction.n_vucs,
        "confidence": best,
        "margin": best - runner_up_score,
        "runner_up": runner_up,
        "runner_up_confidence": runner_up_score,
        "scores": [float(s) for s in scores],
    }


def layout_to_dict(layout) -> dict:
    """One recovered :class:`repro.posterior.StructLayout` as wire data."""
    return {
        "object_id": layout.object_id,
        "objects": list(layout.objects),
        "n_accesses": layout.n_accesses,
        "fields": [
            {
                "offset": f.offset,
                "type": str(f.label),
                "n_accesses": f.n_accesses,
                "width": f.width,
                "confidence": f.confidence,
                "margin": f.margin,
            }
            for f in layout.fields
        ],
    }


def build_infer_response(
    predictions: list,
    failures: FailureReport | None = None,
    *,
    model: dict | None = None,
    binary: str | None = None,
    layouts: list | None = None,
) -> dict:
    """The /v1/infer response body (also ``repro infer --json`` output).

    ``model`` is the server's model-info block (bundle path, generation,
    provenance); the offline CLI passes its own. ``predictions`` keep
    the extraction order, which both paths share.  ``layouts`` (only
    present when the posterior struct-recovery stage ran) carries the
    recovered struct layouts.
    """
    report = failures if failures is not None else FailureReport()
    body = {
        "schema": RESPONSE_SCHEMA,
        "binary": binary,
        "model": dict(model or {}),
        "n_predictions": len(predictions),
        "n_vucs": int(sum(p.n_vucs for p in predictions)),
        "predictions": [prediction_to_dict(p) for p in predictions],
        "failures": report.to_dict(),
    }
    if layouts is not None:
        body["layouts"] = [layout_to_dict(layout) for layout in layouts]
    return body


def session_open_response(session, *, ttl_s: float,
                          model: dict | None = None,
                          failures: FailureReport | None = None) -> dict:
    """The ``/v1/session/open`` response body.

    ``variables`` carries every extracted variable id up front so thin
    clients (the repl's tab completion, scripts) need no extra
    round-trip before their first ``type_variable``.
    """
    report = failures if failures is not None else FailureReport()
    return {
        "schema": TOOL_SCHEMA,
        "session": {
            "id": session.session_id,
            "binary": session.binary.name,
            "n_functions": len(session.binary.functions),
            "n_variables": len(session.rows),
            "n_windows": len(session.stream),
            "nbytes": session.nbytes,
            "ttl_s": ttl_s,
            "generation": session.generation,
            "variables": sorted(session.rows),
        },
        "model": dict(model or {}),
        "failures": report.to_dict(),
    }


def tool_response(session_id: str, tool: str, result: dict) -> dict:
    """The ``/v1/session/<id>/call`` response envelope."""
    return {
        "schema": TOOL_SCHEMA,
        "session": session_id,
        "tool": tool,
        "result": result,
    }


def error_body(kind: str, message: str, **extra) -> dict:
    """The uniform error response body: ``{"error": {...}}``."""
    body = {"error": {"kind": kind, "message": message}}
    body["error"].update(extra)
    return body


def _expect(data: dict, key: str, kind: type) -> object:
    value = data.get(key)
    if not isinstance(value, kind):
        raise RequestError(
            f"request field {key!r} must be a {kind.__name__}", stage="serve")
    return value


def _int_field(data: dict, key: str, default: int) -> int:
    try:
        return int(data.get(key, default))
    except (TypeError, ValueError, OverflowError) as error:
        raise RequestError(f"request field {key!r} must be an integer: {error}",
                           stage="serve") from error
