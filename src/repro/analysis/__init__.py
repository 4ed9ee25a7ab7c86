"""repro.analysis — stateful interactive analysis sessions.

The session subsystem behind ``POST /v1/session/*`` and ``repro repl``:
open a binary once (parse → locate → group → window), hold that
state server-side, and answer per-question tools against it at
interactive latency.

* :mod:`repro.analysis.session` — :class:`AnalysisSession` (the state)
  and :func:`build_session` (the open-time extraction pass);
* :mod:`repro.analysis.store` — the bounded :class:`SessionStore`
  (TTL + LRU-by-bytes eviction, metrics-instrumented) and the
  :func:`session_slot` hashing that makes sessions sticky under the
  pre-fork router;
* :mod:`repro.analysis.tools` — the ``cati-tool-call/1`` dispatch
  table: ``list_functions``, ``disassemble``, ``type_variable``,
  ``explain``, ``annotate_disassembly``, ``struct_layouts``;
* :mod:`repro.analysis.render` — the Fig. 2 listing / Fig. 6 ε text
  renderers shared with the offline example scripts, so served output
  is byte-identical to the in-process paths.

This package never imports :mod:`repro.serve` at module level (the
serve server imports *it*); the tool handlers reach the wire-format
serializers lazily.
"""

from repro.analysis.session import AnalysisSession, build_session
from repro.analysis.store import SessionStore, mint_session_id, session_slot
from repro.analysis.tools import TOOL_NAMES, call_tool

__all__ = [
    "AnalysisSession",
    "SessionStore",
    "TOOL_NAMES",
    "build_session",
    "call_tool",
    "mint_session_id",
    "session_slot",
]
