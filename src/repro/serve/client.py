"""A small blocking client for the serve daemon (stdlib ``http.client``).

Backs ``python -m repro client`` and the serve tests/benchmarks. One
:class:`ServeClient` is cheap — it opens a fresh connection per call
(the daemon speaks HTTP/1.0, connection-per-request), so instances are
safe to share across threads.

Server-side errors surface as :class:`ServeClientError` carrying the
HTTP status and the decoded ``{"error": {...}}`` body, so callers can
distinguish 503-overload (``retry_after``) from 400-malformed from
409-reload-rejected without string matching.

Connection-level drops — reset/refused/closed-without-response — are
retried with bounded exponential backoff
(:func:`repro.core.toolchain.retry_delays`): during a hot reload or a
worker respawn the daemon can drop a connection it has not answered
yet, and surfacing that as a raw ``ConnectionError`` made every caller
carry its own retry loop.  Timeouts are *not* retried — they count
against the caller's deadline.
"""

from __future__ import annotations

import http.client
import json
import time

from repro.codegen.binary import Binary
from repro.core.toolchain import retry_delays
from repro.serve import protocol
from repro.vuc.dataflow import VariableExtent

#: Connection-level failures worth a bounded retry: the server went
#: away between connect and response (reload, respawn, drain race) —
#: not protocol errors and not timeouts.
RETRYABLE_EXCEPTIONS = (
    ConnectionResetError,
    ConnectionRefusedError,
    ConnectionAbortedError,
    BrokenPipeError,
    http.client.RemoteDisconnected,
)


class ServeClientError(RuntimeError):
    """A non-2xx response from the daemon."""

    def __init__(self, status: int, payload: dict,
                 retry_after: float | None = None) -> None:
        error = payload.get("error") or {}
        message = error.get("message") or f"HTTP {status}"
        kind = error.get("kind") or "Error"
        super().__init__(f"{kind} (HTTP {status}): {message}")
        self.status = status
        self.kind = kind
        self.payload = payload
        #: Parsed ``Retry-After`` seconds on 503s, else None.
        self.retry_after = retry_after


class ServeClient:
    """Blocking JSON client for one daemon address."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8080,
                 timeout: float = 300.0, *, retries: int = 2,
                 retry_backoff_s: float = 0.1) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Extra attempts after a connection-level drop (0 disables).
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        delays = retry_delays(self.retry_backoff_s, self.retries)
        attempts = 1 + max(0, self.retries)
        for attempt in range(attempts):
            try:
                return self._request_once(method, path, payload, headers)
            except RETRYABLE_EXCEPTIONS:
                if attempt + 1 >= attempts:
                    raise
                time.sleep(next(delays))
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(self, method: str, path: str, payload: bytes | None,
                      headers: dict) -> dict:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            try:
                decoded = json.loads(raw) if raw else {}
            except ValueError:
                decoded = {"error": {"kind": "BadResponse",
                                     "message": raw[:200].decode("utf-8", "replace")}}
            if not 200 <= response.status < 300:
                retry_after = response.getheader("Retry-After")
                raise ServeClientError(
                    response.status, decoded,
                    retry_after=float(retry_after) if retry_after else None)
            return decoded
        finally:
            connection.close()

    # -- endpoints ---------------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metricsz")

    def reload(self, model_dir: str | None = None) -> dict:
        body = {"model_dir": model_dir} if model_dir else {}
        return self._request("POST", "/v1/reload", body)

    def infer(self, request: dict) -> dict:
        """Raw ``/v1/infer`` call with an already-built job body."""
        return self._request("POST", "/v1/infer", request)

    def infer_binary(self, stripped: Binary,
                     extents_by_function: list[list[VariableExtent]],
                     **options) -> dict:
        """Upload a stripped binary + variable locations for typing."""
        request = {
            "binary": protocol.binary_to_wire(stripped),
            "extents": protocol.extents_to_wire(extents_by_function),
        }
        request.update(options)
        return self.infer(request)

    def infer_windows(self, windows, variable_ids, **options) -> dict:
        """Type pre-extracted generalized VUC windows.

        Sends the ``windows_packed`` wire form: one string per window of
        exactly the model's ``2w + 1`` instructions.
        """
        request = {"windows_packed": protocol.pack_windows(windows),
                   "variable_ids": list(variable_ids)}
        request.update(options)
        return self.infer(request)

    # -- interactive sessions ------------------------------------------------------

    def open_session(self, request: dict) -> "SessionHandle":
        """Raw ``/v1/session/open`` with an already-built job body."""
        response = self._request("POST", "/v1/session/open", request)
        return SessionHandle(self, response["session"])

    def session(self, *, binary: Binary | None = None,
                extents: list[list[VariableExtent]] | None = None,
                demo: dict | None = None, **options) -> "SessionHandle":
        """Open an analysis session from whichever job form the caller has.

        Exactly one of ``binary`` (+ ``extents``) or ``demo`` must be
        given — the same whole-binary job forms ``/v1/infer`` accepts
        (pre-extracted windows cannot back a session).
        """
        request: dict = dict(options)
        if binary is not None:
            request["binary"] = protocol.binary_to_wire(binary)
            request["extents"] = protocol.extents_to_wire(extents or [])
        if demo is not None:
            request["demo"] = demo
        return self.open_session(request)


class SessionHandle:
    """Client-side view of one open analysis session.

    Thin by design: every method is one ``/v1/session/<id>/call``
    round-trip returning the tool's ``result`` object.  A 410
    (:class:`~repro.core.errors.SessionGoneError` server-side) surfaces
    as a :class:`ServeClientError` with ``status == 410`` — the session
    expired, was evicted, or died with its worker; re-open and retry.
    """

    def __init__(self, client: ServeClient, info: dict) -> None:
        self.client = client
        self.info = info
        self.id = info["id"]

    @property
    def variables(self) -> list[str]:
        """Every extracted variable id, from the open response."""
        return list(self.info.get("variables") or [])

    def call(self, tool: str, **args) -> dict:
        """One ``cati-tool-call/1`` dispatch; returns the ``result``."""
        response = self.client._request(
            "POST", f"/v1/session/{self.id}/call",
            {"tool": tool, "args": args})
        return response["result"]

    def list_functions(self) -> dict:
        return self.call("list_functions")

    def disassemble(self, function=0) -> dict:
        return self.call("disassemble", function=function)

    def type_variable(self, variable_id: str) -> dict:
        return self.call("type_variable", variable_id=variable_id)

    def explain(self, variable_id: str, vuc: int = 0) -> dict:
        return self.call("explain", variable_id=variable_id, vuc=vuc)

    def annotate_disassembly(self, function=0) -> dict:
        return self.call("annotate_disassembly", function=function)

    def struct_layouts(self) -> dict:
        return self.call("struct_layouts")

    def close(self) -> dict:
        return self.client._request("POST", f"/v1/session/{self.id}/close", {})
