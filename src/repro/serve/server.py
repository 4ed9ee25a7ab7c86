"""The HTTP daemon: routing, error mapping, overload headers, drain.

Stdlib only (``http.server``'s :class:`ThreadingHTTPServer`): each
connection gets a handler thread that parses the request into one
:class:`~repro.vuc.stream.VucStream` — for binary jobs by running VUC
extraction (pure Python, so it overlaps other threads' engine GEMMs) —
then blocks on the :class:`~repro.serve.scheduler.MicroBatchScheduler`
for the coalesced engine call, which encodes and scores it.

Endpoints:

* ``POST /v1/infer``  — one job (``binary``/``windows_packed``/
  ``demo``, see :mod:`repro.serve.protocol`); 200 with the shared
  response schema, 400 on malformed requests, 503 + ``Retry-After`` on
  overload or drain, 504 past the deadline, 422 when the pipeline
  itself rejects the job under ``on_error="raise"``.
* ``POST /v1/session/open`` — parse a binary/demo job once into a
  stateful analysis session (:mod:`repro.analysis`); the response
  carries the session id, the extracted variable ids and the TTL.
* ``POST /v1/session/<id>/call`` — one ``cati-tool-call/1`` tool
  dispatch against an open session; 410 (:class:`~repro.core.errors
  .SessionGoneError`) when the id no longer resolves — expired,
  evicted, or lost to a restart — which clients fix by re-opening.
* ``POST /v1/session/<id>/close`` — drop the session explicitly.
* ``POST /v1/reload`` — verify + swap a model bundle; 409 when the
  bundle is rejected (corrupt, schema drift, structural config
  mismatch) — the old model keeps serving.  Open sessions survive: the
  next call that needs a session's whole stream scores it once more,
  under the new engine.
* ``GET /healthz``    — status, ``repro.__version__``, uptime, model
  generation/provenance, queue depth, request-latency quantiles, and
  the session store's occupancy/eviction block.
* ``GET /metricsz``   — the full observability snapshot.

Shutdown: SIGTERM/SIGINT set the draining flag and call
``shutdown()`` from a helper thread (calling it on the signal-handling
main thread — the one inside ``serve_forever`` — would deadlock). The
listener stops; ``server_close`` then *joins* the handler threads
(``daemon_threads = False`` below — socketserver silently skips daemon
threads when joining), so every in-flight request finishes with a real
response before the scheduler drains its queue and the process exits.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import repro
from repro.analysis import SessionStore, build_session, call_tool, mint_session_id
from repro.analysis.store import DEFAULT_MAX_BYTES, DEFAULT_TTL_S
from repro.core import observability
from repro.core.errors import (
    ArtifactError,
    CatiError,
    FailureReport,
    RequestError,
    ServeError,
    handle_failure,
)
from repro.serve import protocol
from repro.serve.host import ModelHost
from repro.serve.scheduler import MicroBatchScheduler
from repro.vuc.stream import extract_vuc_stream

#: Request bodies past this size are refused with 413 before parsing.
MAX_BODY_BYTES = 64 * 1024 * 1024


def write_line(line: str) -> None:
    """Write one stdout line in a single ``write`` call, then flush.

    A router and its workers share one stdout pipe, and ``print`` makes
    two writes (text, then newline) when stdout is unbuffered, so lines
    from two processes could interleave and a reader waiting for a line
    that starts with ``serving on`` would never see one.
    """
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


class _Server(ThreadingHTTPServer):
    # socketserver only tracks (and server_close only joins) NON-daemon
    # handler threads; the SIGTERM drain contract depends on that join.
    daemon_threads = False
    allow_reuse_address = True
    #: Set by ServeDaemon (or RouterDaemon) right after construction.
    daemon_ref: "ServeDaemon"


class _Handler(BaseHTTPRequestHandler):
    """The daemon's HTTP front; the router's handler subclasses it."""

    # Connection-per-request keeps drain simple: no idle keep-alive
    # sockets pinning handler threads past their one response.
    protocol_version = "HTTP/1.0"
    timeout = 120  # a stalled client must not block server_close's join
    #: Error answers count under ``<counter_prefix>.http.<status>``.
    counter_prefix = "serve"

    @property
    def daemon(self) -> "ServeDaemon":
        return self.server.daemon_ref  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.daemon.verbose:
            super().log_message(format, *args)

    # -- plumbing ---------------------------------------------------------------

    def _send_bytes(self, status: int, data: bytes,
                    headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_json(self, status: int, body: dict,
                   headers: dict | None = None) -> None:
        self._send_bytes(status, json.dumps(body).encode("utf-8") + b"\n",
                         headers)

    def _send_error(self, status: int, error: BaseException,
                    headers: dict | None = None) -> None:
        observability.inc(f"{self.counter_prefix}.http.{status}")
        self._send_json(status, protocol.error_body(
            type(error).__name__, str(error)), headers)

    def _send_failure(self, error: BaseException) -> None:
        headers = {}
        if isinstance(error, ServeError):
            status = error.status
            retry_after = getattr(error, "retry_after_s", None)
            if status == 503:
                headers["Retry-After"] = str(max(1, round(retry_after or 1)))
        elif isinstance(error, CatiError):
            status = 422  # well-formed request, pipeline rejected the job
        else:
            status = 500
        self._send_error(status, error, headers)

    def _read_raw_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise RequestError(f"body of {length} bytes exceeds the "
                               f"{MAX_BODY_BYTES} byte limit",
                               status=413, stage="serve")
        return self.rfile.read(length) if length else b""

    def _read_body(self) -> dict:
        raw = self._read_raw_body()
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except ValueError as error:
            raise RequestError(f"body is not valid JSON: {error}",
                               stage="serve") from error
        if not isinstance(body, dict):
            raise RequestError("body must be a JSON object", stage="serve")
        return body

    # -- routing ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        try:
            if self.path == "/healthz":
                self._send_json(200, self.daemon.health_body())
            elif self.path == "/metricsz":
                self._send_json(200, self.daemon.metrics_body())
            else:
                self._send_json(404, protocol.error_body(
                    "NotFound", f"no route {self.path}"))
        except Exception as error:  # noqa: BLE001 — must answer something
            self._send_failure(error)

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        try:
            if self.path == "/v1/infer":
                self._handle_infer()
            elif self.path == "/v1/session/open":
                self._handle_session_open()
            elif self.path.startswith("/v1/session/"):
                self._handle_session_action()
            elif self.path == "/v1/reload":
                self._handle_reload()
            else:
                self._send_json(404, protocol.error_body(
                    "NotFound", f"no route {self.path}"))
        except Exception as error:  # noqa: BLE001 — must answer something
            self._send_failure(error)

    # -- endpoints ---------------------------------------------------------------

    def _handle_infer(self) -> None:
        daemon = self.daemon
        started = time.monotonic()
        request = self._read_body()
        on_error = protocol.on_error_field(request)
        deadline_s = protocol.deadline_field(request, daemon.default_deadline_s)
        failures = FailureReport()
        stream, binary_name = daemon.prepare_job(
            request, on_error=on_error, failures=failures)
        pending = daemon.scheduler.submit(stream, deadline_s=deadline_s)
        try:
            predictions = daemon.scheduler.wait(pending, timeout=deadline_s)
        except ServeError:
            raise
        except Exception as error:  # engine failure inside the batch
            handle_failure(error, on_error=on_error, failures=failures,
                           stage="classify", binary=binary_name)
            predictions = []  # on_error="skip": degrade, report, answer
        body = protocol.build_infer_response(
            predictions, failures, model=daemon.model_host.model_info(),
            binary=binary_name)
        observability.inc("serve.requests")
        observability.observe("serve.request.seconds",
                              time.monotonic() - started)
        self._send_json(200, body)

    def _handle_session_open(self) -> None:
        daemon = self.daemon
        started = time.monotonic()
        request = self._read_body()
        on_error = protocol.on_error_field(request)
        failures = FailureReport()
        session = daemon.open_session(request, on_error=on_error,
                                      failures=failures)
        observability.observe("sessions.open.seconds",
                              time.monotonic() - started)
        self._send_json(200, protocol.session_open_response(
            session, ttl_s=daemon.sessions.ttl_s,
            model=daemon.model_host.model_info(), failures=failures))

    def _handle_session_action(self) -> None:
        daemon = self.daemon
        started = time.monotonic()
        parts = self.path.rstrip("/").split("/")
        # /v1/session/<id>/<action> → ["", "v1", "session", id, action]
        if len(parts) != 5 or parts[4] not in ("call", "close"):
            self._send_json(404, protocol.error_body(
                "NotFound", f"no route {self.path}"))
            return
        session_id, action = parts[3], parts[4]
        request = self._read_body()
        if action == "close":
            removed = daemon.sessions.remove(session_id)
            self._send_json(200, {"schema": protocol.TOOL_SCHEMA,
                                  "session": session_id, "closed": removed})
            return
        tool = request.get("tool")
        if not isinstance(tool, str):
            raise RequestError("'tool' must name the tool to call",
                               stage="serve")
        session = daemon.sessions.get(session_id)  # SessionGoneError → 410
        with observability.span("sessions.call"):
            result = call_tool(daemon, session, tool,
                               request.get("args") or {})
        observability.inc("sessions.calls")
        observability.inc(f"sessions.tool.{tool}")
        observability.observe("sessions.call.seconds",
                              time.monotonic() - started)
        self._send_json(200, protocol.tool_response(session_id, tool, result))

    def _handle_reload(self) -> None:
        model_dir = protocol.model_dir_field(self._read_body())
        try:
            info = self.daemon.model_host.reload(model_dir)
        except ArtifactError as error:
            self._send_error(409, error)
            return
        self._send_json(200, {"reloaded": True, "model": info})


class ServeDaemon:
    """One serving process: model host + scheduler + HTTP front end."""

    def __init__(
        self,
        model_dir: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        queue_limit: int = 64,
        session_ttl_s: float = DEFAULT_TTL_S,
        session_max_bytes: int = DEFAULT_MAX_BYTES,
        default_deadline_s: float | None = None,
        verbose: bool = False,
        log_label: str = "serve",
        initial_generation: int = 1,
        slot_index: int = 0,
        slot_count: int = 1,
    ) -> None:
        self.started_at = time.time()
        self.verbose = verbose
        self.default_deadline_s = default_deadline_s
        #: Log-line prefix; the pre-fork workers set "worker N" so their
        #: inherited stdout interleaves readably with the router's.
        self.log_label = log_label
        self.model_host = ModelHost(model_dir,
                                    initial_generation=initial_generation)
        self.scheduler = MicroBatchScheduler(self.model_host,
                                             queue_limit=queue_limit)
        #: Session stickiness under the pre-fork router: this daemon
        #: mints only session ids that hash back to its own slot
        #: (single daemon = slot 0 of 1, where every id matches).
        self._slot_index = slot_index
        self._slot_count = max(1, slot_count)
        self.sessions = SessionStore(ttl_s=session_ttl_s,
                                     max_bytes=session_max_bytes)
        self.httpd = _Server((host, port), _Handler)
        self.httpd.daemon_ref = self
        self.draining = False

    @property
    def port(self) -> int:
        """The bound port (useful with ``--port 0``)."""
        return self.httpd.server_address[1]

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    # -- request helpers (thread-safe; called from handler threads) --------------

    def prepare_job(self, request: dict, *, on_error: str,
                    failures: FailureReport):
        """Turn a request body into ``(stream, binary_name)``.

        Extraction runs here — on the handler thread — so concurrent
        uploads extract in parallel while the scheduler's engine call
        for earlier batches is in flight.
        """
        kind = protocol.job_kind(request)
        window = self.model_host.config.window
        if kind == "windows_packed":
            return protocol.stream_from_packed(
                request["windows_packed"], request.get("variable_ids"),
                window), None
        stripped, extents = self._binary_job(request, kind)
        with observability.span("serve.extract"):
            stream = extract_vuc_stream(stripped, extents, window,
                                        on_error=on_error, failures=failures)
        return stream, stripped.name

    def _binary_job(self, request: dict, kind: str):
        """The whole-binary job forms → ``(stripped, extents)``."""
        if kind == "demo":
            return self._compile_demo(request["demo"])
        stripped = protocol.binary_from_wire(request["binary"])
        extents = protocol.extents_from_wire(request.get("extents") or [])
        if len(extents) != len(stripped.functions):
            raise RequestError(
                f"'extents' has {len(extents)} function entries, "
                f"binary has {len(stripped.functions)} functions",
                stage="serve")
        return stripped, extents

    def open_session(self, request: dict, *, on_error: str,
                     failures: FailureReport):
        """Build + register one analysis session from an open request.

        Sessions need a whole binary — the listing backs ``disassemble``
        and ``annotate_disassembly`` — so the pre-extracted window job
        kinds are rejected up front.
        """
        kind = protocol.job_kind(request)
        if kind not in protocol.SESSION_JOB_KINDS:
            raise RequestError(
                f"sessions need one of {protocol.SESSION_JOB_KINDS} "
                f"(a whole binary), got a {kind!r} job", stage="serve")
        stripped, extents = self._binary_job(request, kind)
        with observability.span("sessions.open"):
            session = build_session(
                mint_session_id(self._slot_index, self._slot_count),
                stripped, extents, window=self.model_host.config.window,
                generation=self.model_host.generation,
                on_error=on_error, failures=failures)
        self.sessions.put(session)
        return session

    @staticmethod
    def _compile_demo(spec: object):
        from repro.codegen.binary import debug_variables  # noqa: F401 — keeps demo import surface one place
        from repro.codegen.compilers import compiler_by_name
        from repro.codegen.strip import strip
        from repro.experiments.speed import extents_from_debug

        spec = spec if isinstance(spec, dict) else {}
        try:
            compiler = compiler_by_name(str(spec.get("compiler", "gcc")))
            binary = compiler.compile_fresh(
                seed=int(spec.get("seed", 1234)),
                name=str(spec.get("name", "serve-demo")),
                opt_level=int(spec.get("opt_level", 1)))
        except (KeyError, TypeError, ValueError) as error:
            raise RequestError(f"bad demo spec {spec!r}: {error}",
                               stage="serve") from error
        return strip(binary), extents_from_debug(binary)

    def health_body(self) -> dict:
        registry = observability.get_registry()
        latency = registry.histogram("serve.request.seconds")
        return {
            "status": "draining" if self.draining else "ok",
            "version": repro.__version__,
            "uptime_s": round(time.time() - self.started_at, 3),
            "model": self.model_host.model_info(),
            "queue": {
                "depth": self.scheduler.queue_depth,
                "limit": self.scheduler.queue_limit,
            },
            "sessions": self.sessions.stats(),
            "latency": {
                "p50_s": latency.quantile(0.5),
                "p99_s": latency.quantile(0.99),
            },
        }

    def metrics_body(self) -> dict:
        """The ``/metricsz`` body: this process's registry snapshot."""
        return observability.snapshot()

    # -- lifecycle ---------------------------------------------------------------

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT start a drain (main thread only)."""
        signal.signal(signal.SIGTERM, self._on_signal)
        signal.signal(signal.SIGINT, self._on_signal)

    def _on_signal(self, signum, _frame) -> None:
        print(f"[{self.log_label}] {signal.Signals(signum).name}: draining",
              flush=True)
        self.request_shutdown()

    def request_shutdown(self) -> None:
        """Begin draining; safe from any thread, returns immediately.

        ``shutdown()`` must not run on the thread inside
        ``serve_forever`` (it would deadlock), so it gets its own.
        """
        self.draining = True
        threading.Thread(target=self.httpd.shutdown,
                         name="serve-shutdown", daemon=True).start()

    def run(self) -> int:
        """Serve until shutdown; drain handler threads and the queue."""
        self.scheduler.start()
        write_line(f"[{self.log_label}] model generation "
                   f"{self.model_host.generation} "
                   f"from {self.model_host.model_dir}")
        if self.log_label == "serve":
            # The bare banner is the operator/test contract for "this
            # is the port clients talk to" — only the front process may
            # print it.  Pre-fork workers (labelled "worker N") announce
            # their loopback port with the label instead; the router
            # prints the client-facing banner.
            write_line(f"serving on http://{self.host}:{self.port}")
        else:
            write_line(f"[{self.log_label}] listening on "
                       f"http://{self.host}:{self.port}")
        try:
            self.httpd.serve_forever(poll_interval=0.1)
        finally:
            self.draining = True
            # Joins in-flight handler threads (daemon_threads=False), so
            # every accepted request gets its response...
            self.httpd.server_close()
            # ...then the scheduler finishes whatever they had queued.
            self.scheduler.close(timeout=60.0)
        print(f"[{self.log_label}] drained, exiting", flush=True)
        return 0
