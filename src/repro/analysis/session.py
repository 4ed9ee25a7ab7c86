"""One open analysis session: a parsed binary's state, encoded once.

An :class:`AnalysisSession` is what ``POST /v1/session/open`` builds and
the session store holds: the stripped binary, its variable extents, and
— computed exactly once, at open — the binary's
:class:`~repro.vuc.stream.VucStream` (one token stream, a center offset
per window, row-aligned variable ids and access sites) and the encoded
id tensor the engine consumes.  Every subsequent tool call against the
session reuses that state, so the per-question cost of ``type_variable``
or ``annotate_disassembly`` is one small engine call, not a re-parse.

The extraction/encode pass is the offline ``Cati.infer_binary`` front
half (:func:`repro.vuc.stream.extract_vuc_stream`, encoded once through
:meth:`~repro.embedding.encoder.VucEncoder.encode_stream`), which is
what makes the session tools' outputs equal to the offline paths.

Reload interplay: the id tensor remembers the engine *generation* it
was encoded under.  The first tool call after a ``/v1/reload``
re-encodes the stream once under the new generation
(:meth:`AnalysisSession.encoded`), so sessions survive a reload at the
cost of one re-encode, not a 410.  The micro-batch scheduler still
re-encodes a request whose reload landed between that encode and its
batch.
"""

from __future__ import annotations

import threading
import time

from repro.analysis.render import annotation_variable_ids
from repro.codegen.binary import Binary
from repro.core import observability
from repro.core.config import CatiConfig
from repro.core.errors import FailureReport, RequestError
from repro.vuc.dataflow import VariableExtent
from repro.vuc.stream import VucStream, extract_vuc_stream

#: Rough per-instruction bookkeeping cost (listing objects + annotation
#: maps) charged into the session's byte estimate.
_INSTRUCTION_OVERHEAD = 96

#: Fixed floor per session (binary/extents envelopes, dict overhead).
_SESSION_OVERHEAD = 4096


class AnalysisSession:
    """Server-side state for one interactive analysis session."""

    def __init__(self, session_id: str, binary: Binary,
                 extents: list[list[VariableExtent]], *,
                 stream: VucStream, ids, generation: int,
                 annotations: list[dict[int, str]]) -> None:
        self.session_id = session_id
        self.binary = binary
        self.extents = extents
        #: The binary's windows with row-aligned variable ids and sites.
        self.stream = stream
        #: The stream's [N, L, 3] id tensor + the engine generation it
        #: was encoded under; read them through :meth:`encoded`.
        self.ids = ids
        self.ids_generation = generation
        #: Per function: instruction index → variable id (Fig. 2 joins).
        self.annotations = annotations
        #: variable id → row indices into stream/ids, extraction order —
        #: a per-variable slice votes identically to the full matrix
        #: because eq. 3-4's vote is per-variable independent.
        self.rows: dict[str, list[int]] = {}
        for row, variable_id in enumerate(stream.variable_ids):
            self.rows.setdefault(variable_id, []).append(row)
        self.created_at = time.time()
        self.nbytes = self._estimate_nbytes()
        self._lock = threading.Lock()
        self._analysis = None
        self._scored_generation: int | None = None

    def _estimate_nbytes(self) -> int:
        from repro.core.types import ALL_TYPES

        ids_bytes = int(self.ids.nbytes)
        # Reserve the cached leaf-posterior matrix up front so the LRU
        # budget accounts for a session's full resident cost at open.
        probs_bytes = len(self.stream) * len(ALL_TYPES) * 8
        listing_bytes = sum(len(func.instructions) * _INSTRUCTION_OVERHEAD
                            for func in self.binary.functions)
        return _SESSION_OVERHEAD + ids_bytes + probs_bytes + listing_bytes

    # -- lookups ---------------------------------------------------------------------

    def variable_rows(self, variable_id: str) -> list[int]:
        rows = self.rows.get(variable_id)
        if rows is None:
            raise RequestError(
                f"session {self.session_id} has no variable {variable_id!r} "
                f"({len(self.rows)} known; list them with list_functions)",
                stage="serve")
        return rows

    def function_by_ref(self, ref) -> tuple[int, object]:
        """Resolve a function by index or name; ``(index, listing)``."""
        functions = self.binary.functions
        if isinstance(ref, str) and not ref.lstrip("-").isdigit():
            for index, func in enumerate(functions):
                if func.name == ref:
                    return index, func
            raise RequestError(
                f"session {self.session_id} has no function named {ref!r}",
                stage="serve")
        try:
            index = int(ref)
        except (TypeError, ValueError) as error:
            raise RequestError(
                f"'function' must be an index or name, got {ref!r}",
                stage="serve") from error
        if not 0 <= index < len(functions):
            raise RequestError(
                f"function index {index} out of range "
                f"(binary has {len(functions)} functions)", stage="serve")
        return index, functions[index]

    def function_variables(self, func_index: int) -> list[str]:
        """This function's variable ids, first-located order, de-duplicated."""
        seen: dict[str, None] = {}
        for variable_id in self.annotations[func_index].values():
            seen.setdefault(variable_id)
        return list(seen)

    # -- scoring ---------------------------------------------------------------------

    def encoded(self, model_host):
        """``(ids, engine, generation)``: the stream's ids under the serving engine.

        Re-encodes the stream once when a reload moved the generation;
        concurrent calls wait on the session lock instead of encoding
        again.
        """
        _cati, engine, generation = model_host.acquire()
        with self._lock:
            if self.ids_generation != generation:
                self.ids = engine.encoder.encode_stream(self.stream)
                self.ids_generation = generation
                self._analysis = None  # scored by the replaced engine
            return self.ids, engine, generation

    def ensure_scored(self, daemon):
        """The whole stream's :class:`~repro.core.engine.Analysis`, once per generation.

        Goes through the daemon's micro-batch scheduler (so concurrent
        sessions coalesce), whose wait votes on this thread; the cache
        is invalidated when the engine generation moves.
        """
        ids, _engine, generation = self.encoded(daemon.model_host)
        with self._lock:
            if self._analysis is not None and self._scored_generation == generation:
                return self._analysis
        pending = daemon.scheduler.submit(
            self.stream, deadline_s=daemon.default_deadline_s,
            ids=ids, generation=generation)
        daemon.scheduler.wait(pending, timeout=daemon.default_deadline_s)
        with self._lock:
            self._analysis = pending.analysis
            self._scored_generation = generation
        return pending.analysis


def build_session(session_id: str, stripped: Binary,
                  extents: list[list[VariableExtent]], *,
                  encoder, config: CatiConfig, generation: int,
                  on_error: str = "skip",
                  failures: FailureReport | None = None) -> AnalysisSession:
    """Open-time pass: extract, group, encode — once — into a session."""
    with observability.span("sessions.extract"):
        stream = extract_vuc_stream(
            stripped, extents, config.window, on_error=on_error,
            failures=failures, metrics=config.metrics_enabled, sites=True)
    ids = encoder.encode_stream(stream)
    extracted = set(stream.variable_ids)
    annotations: list[dict[int, str]] = []
    for func_index, func in enumerate(stripped.functions):
        func_extents = (extents[func_index]
                        if func_index < len(extents) else [])
        mapping: dict[int, str] = {}
        if func_extents:
            try:
                mapping = annotation_variable_ids(
                    func, func_extents, f"{stripped.name}/{func_index}")
            except Exception:  # noqa: BLE001 — extraction already recorded it
                # A function the fault-isolated extraction pass skipped
                # fails the same way here; it contributed no windows, so
                # it gets no annotations either.
                mapping = {}
        # Keep only ids extraction actually produced windows for, so the
        # annotate join never names a variable the vote cannot type.
        annotations.append({index: variable_id
                            for index, variable_id in mapping.items()
                            if variable_id in extracted})
    return AnalysisSession(
        session_id, stripped, extents, stream=stream, ids=ids,
        generation=generation, annotations=annotations)


__all__ = ["AnalysisSession", "build_session"]
