"""The pre-fork front process: dispatch, fenced reload, respawn, rollups.

:class:`RouterDaemon` is what ``python -m repro serve --workers N``
(N > 1) runs: it accepts every client connection and forwards request
bodies *verbatim* over loopback HTTP to one of N worker processes
(:mod:`repro.serve.worker`), each a full single-process daemon with its
own GIL and engine.  The packed wire format and every endpoint keep
their single-daemon meaning; the router adds:

* **least-loaded dispatch** — each ``/v1/infer`` goes to the live
  worker with the fewest in-flight forwards; a worker that dies mid
  request is skipped and the request retried on a sibling, so a crash
  costs a retry, not a 500.
* **sticky session dispatch** — interactive analysis sessions
  (:mod:`repro.analysis`) live in exactly one worker's memory, so
  ``/v1/session/<id>/*`` routes by the id's slot hash
  (:func:`repro.analysis.store.session_slot`); workers mint only ids
  that hash back to themselves, so no shared session table exists.
  ``/v1/session/open`` goes least-loaded with failover like infer.  A
  dead or respawned slot answers 410
  (:class:`~repro.core.errors.SessionGoneError`) — *retriable by
  re-opening*, which ``repro repl`` and
  :class:`~repro.serve.client.SessionHandle` callers do automatically.
* **admission control at the front** — the bounded pending count, 503 +
  ``Retry-After`` and deadline handling happen here, before any bytes
  reach a worker, exactly like the single daemon's queue gate.
* **a generation fence for hot reload** — ``POST /v1/reload`` verifies
  the new bundle *once* in the router (checksums + structural config
  check; corrupt bundles 409 without any worker noticing), then rolls
  workers forward one at a time.  The router's generation — what
  ``/healthz`` reports — only advances once every live worker runs the
  new model; until then the old generation keeps answering.
* **liveness + respawn** — a monitor thread notices dead workers
  (crash, OOM-kill, SIGKILL), respawns them on the router's current
  bundle, and counts restarts per slot; ``/healthz`` enumerates them.
* **aggregated observability** — ``/metricsz`` merges every worker's
  registry snapshot with the router's own (counters summed, histograms
  bucket-wise merged — see
  :func:`repro.core.observability.merge_snapshots`); ``/healthz`` rolls
  up per-worker liveness, generation, and restart counts.

Each worker loads the bundle itself through the checksum-verified
``Cati.load`` path, like a single daemon or an offline load, and the
router writes nothing into the bundle directory.  The HTTP front is the
daemon's handler (:class:`repro.serve.server._Handler`) with the
worker-facing endpoints replaced.  See docs/DEPLOYMENT.md for the
operator story.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import threading
import time
from functools import partial
from pathlib import Path

import repro
from repro.analysis.store import DEFAULT_MAX_BYTES, DEFAULT_TTL_S, session_slot
from repro.core import observability
from repro.core.artifacts import ModelBundle
from repro.core.errors import (
    ArtifactError,
    QueueFullError,
    ServeError,
    SessionGoneError,
)
from repro.serve import protocol
from repro.serve.server import _Handler, _Server, write_line
from repro.serve.worker import WorkerHandle

#: Seconds the router waits for one worker's answer to a forwarded
#: request before treating the worker as wedged.
FORWARD_TIMEOUT_S = 300.0

#: Seconds between liveness sweeps of the monitor thread.
MONITOR_INTERVAL_S = 0.5


class _WorkerSlot:
    """One of the N fixed serving slots; survives its workers."""

    __slots__ = ("index", "handle", "restarts", "last_restart_at")

    def __init__(self, index: int, handle: WorkerHandle | None) -> None:
        self.index = index
        self.handle = handle
        self.restarts = 0
        self.last_restart_at: float | None = None


class _RouterHandler(_Handler):
    """The daemon's handler, forwarding work to the workers.

    Routing, body reading, the size gate, JSON replies and error
    mapping are the daemon's; only the endpoints that reach a worker
    (or fence a reload) differ, and errors count as
    ``router.http.<status>``.
    """

    counter_prefix = "router"

    def _forward(self, dispatch) -> None:
        """Admit, hand the raw body to ``dispatch``, relay its answer."""
        router = self.daemon
        started = time.monotonic()
        raw = self._read_raw_body()
        router.admit()
        try:
            status, body, headers = dispatch(raw)
        finally:
            router.release()
        observability.inc("router.requests")
        observability.observe("router.request.seconds",
                              time.monotonic() - started)
        self._send_bytes(status, body, headers)

    def _handle_infer(self) -> None:
        self._forward(self.daemon.dispatch_infer)

    def _handle_session(self) -> None:
        self._forward(partial(self.daemon.dispatch_session, self.path))

    # dispatch_session routes open and per-id calls alike.
    _handle_session_open = _handle_session_action = _handle_session

    def _handle_reload(self) -> None:
        model_dir = protocol.model_dir_field(self._read_body())
        try:
            result = self.daemon.reload(model_dir)
        except ArtifactError as error:
            self._send_error(409, error)
            return
        self._send_json(200 if result.get("reloaded") else 502, result)


class RouterDaemon:
    """The front process of ``--workers N`` serving (see module doc)."""

    def __init__(
        self,
        model_dir: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 2,
        queue_limit: int = 64,
        session_ttl_s: float = DEFAULT_TTL_S,
        session_max_bytes: int = DEFAULT_MAX_BYTES,
        default_deadline_s: float | None = None,
        verbose: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.started_at = time.time()
        self.verbose = verbose
        self.queue_limit = queue_limit
        self.draining = False
        self._model_dir = Path(model_dir)
        # Verify once up front: the same checksum gate every worker
        # would hit, but hit here a single time with a clear error
        # instead of N spawn failures.  The saved config is what a
        # reload's structural check compares against.
        bundle = ModelBundle.open(self._model_dir)
        bundle.verify()
        self._config = bundle.saved_config()
        self._generation = 1
        #: ServeDaemon keyword arguments every worker is spawned with.
        self._worker_options = {
            "queue_limit": queue_limit,
            "session_ttl_s": session_ttl_s,
            "session_max_bytes": session_max_bytes,
            "default_deadline_s": default_deadline_s,
            "verbose": verbose,
            # Sticky sessions: each worker mints session ids hashing to
            # its own slot, so dispatch_session routes without state.
            "slot_count": workers,
        }
        self._dispatch_lock = threading.Lock()
        self._pending = 0
        #: Serializes reloads with respawns so a worker spawned mid-roll
        #: cannot come up on a bundle the fence is about to supersede.
        self._reload_lock = threading.Lock()
        self._slots = [_WorkerSlot(index, None) for index in range(workers)]
        try:
            for slot in self._slots:
                slot.handle = self._spawn_worker(slot.index)
            for slot in self._slots:
                slot.handle.wait_ready()
        except BaseException:
            for slot in self._slots:
                if slot.handle is not None:
                    slot.handle.terminate(join_timeout_s=5.0)
            raise
        self.httpd = _Server((host, port), _RouterHandler)
        self.httpd.daemon_ref = self
        self._monitor_stop = threading.Event()
        self._monitor: threading.Thread | None = None
        observability.set_gauge("router.workers", workers)
        observability.set_gauge("router.model_generation", self._generation)

    # -- worker management --------------------------------------------------------

    def _spawn_worker(self, index: int) -> WorkerHandle:
        # Respawned workers join at the router's current fence
        # generation so /healthz stays coherent across restarts, and
        # inherit the router's metrics switch (--no-metrics).  Each
        # worker's BLAS pool gets its share of the cores.
        options = dict(self._worker_options, initial_generation=self._generation)
        return WorkerHandle(index, self._model_dir, options,
                            metrics=observability.is_enabled(),
                            blas_threads=max(1, (os.cpu_count() or 1) // self.workers))

    @property
    def workers(self) -> int:
        return len(self._slots)

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def generation(self) -> int:
        return self._generation

    def _live_handles(self) -> list[WorkerHandle]:
        return [slot.handle for slot in self._slots
                if slot.handle is not None and slot.handle.ready
                and slot.handle.is_alive()]

    # -- admission ----------------------------------------------------------------

    def admit(self) -> None:
        """The front-of-house queue gate (mirrors MicroBatchScheduler's).

        Draining refuses nothing here: a handler only runs for a
        connection accepted before the listener closed, and :meth:`run`
        keeps the workers up until every handler has answered, just as
        the single daemon closes its scheduler only after that join.
        """
        with self._dispatch_lock:
            if self._pending >= self.queue_limit:
                hist = observability.get_registry().histogram(
                    "router.request.seconds")
                p50 = hist.quantile(0.5) or 0.05
                observability.inc("router.rejected.queue_full")
                raise QueueFullError(
                    f"router backlog at capacity ({self.queue_limit} "
                    "requests in flight)",
                    retry_after_s=max(p50 * self._pending, 0.05),
                    stage="serve")
            self._pending += 1
        observability.observe("router.queue.depth", self._pending,
                              boundaries=observability.SIZE_BUCKETS)

    def release(self) -> None:
        with self._dispatch_lock:
            self._pending = max(0, self._pending - 1)

    # -- dispatch -----------------------------------------------------------------

    def _pick_worker(self) -> WorkerHandle | None:
        """Least-loaded live worker (in-flight count, then slot order)."""
        with self._dispatch_lock:
            candidates = self._live_handles()
            if not candidates:
                return None
            best = min(candidates, key=lambda handle: handle.in_flight)
            best.in_flight += 1
            return best

    def _finish(self, handle: WorkerHandle) -> None:
        with self._dispatch_lock:
            handle.in_flight = max(0, handle.in_flight - 1)

    def _forward(self, handle: WorkerHandle, method: str, path: str,
                 body: bytes, timeout_s: float = FORWARD_TIMEOUT_S):
        """One loopback HTTP exchange with a worker; raises OSError family."""
        connection = http.client.HTTPConnection(
            "127.0.0.1", handle.port, timeout=timeout_s)
        try:
            connection.request(method, path, body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            data = response.read()
            headers = {}
            retry_after = response.getheader("Retry-After")
            if retry_after:
                headers["Retry-After"] = retry_after
            return response.status, data, headers
        finally:
            connection.close()

    def dispatch_infer(self, raw_body: bytes):
        """Forward one ``/v1/infer`` body to the best worker, with failover.

        A worker that drops the connection (crashed or killed mid
        request) is marked suspect for the monitor and the request is
        retried on the next-best sibling — each slot is tried at most
        once.  Only when no worker can answer does the client see a 503.
        """
        return self._dispatch_failover("/v1/infer", raw_body)

    def _dispatch_failover(self, path: str, raw_body: bytes):
        """Least-loaded forward with one attempt per slot."""
        last_error: Exception | None = None
        for _attempt in range(len(self._slots)):
            handle = self._pick_worker()
            if handle is None:
                break
            try:
                status, data, headers = self._forward(
                    handle, "POST", path, raw_body)
                return status, data, headers
            except (OSError, http.client.HTTPException) as error:
                last_error = error
                observability.inc("router.forward.errors")
            finally:
                self._finish(handle)
        observability.inc("router.rejected.no_workers")
        raise ServeError(
            "no live worker could answer the request"
            + (f" (last error: {last_error})" if last_error else ""),
            status=503, stage="serve")

    def dispatch_session(self, path: str, raw_body: bytes):
        """Route one ``/v1/session/*`` request — sticky by session id.

        ``/v1/session/open`` dispatches least-loaded with failover (any
        worker can open; it mints an id hashing back to itself, so the
        stickiness is self-consistent).  Everything else routes to the
        id's slot — and when that slot is down, respawning, or drops
        the connection mid-call, the router itself answers 410
        (:class:`SessionGoneError`): the state died with the worker and
        only the client can rebuild it by re-opening.  A freshly
        respawned worker answers its own 410s (empty store) without
        router involvement.
        """
        if path == "/v1/session/open":
            return self._dispatch_failover(path, raw_body)
        parts = path.rstrip("/").split("/")
        session_id = parts[3] if len(parts) > 3 else ""
        slot = self._slots[session_slot(session_id, len(self._slots))]
        handle = slot.handle
        if handle is None or not handle.ready or not handle.is_alive():
            observability.inc("router.sessions.gone")
            raise SessionGoneError(
                f"worker {slot.index} holding session {session_id!r} is "
                "down (crash or respawn in progress); re-open the session",
                stage="serve")
        with self._dispatch_lock:
            handle.in_flight += 1
        try:
            return self._forward(handle, "POST", path, raw_body)
        except (OSError, http.client.HTTPException) as error:
            observability.inc("router.forward.errors")
            observability.inc("router.sessions.gone")
            raise SessionGoneError(
                f"worker {slot.index} dropped session {session_id!r} "
                f"mid-call ({error}); re-open the session",
                stage="serve") from error
        finally:
            self._finish(handle)

    # -- reload (generation fence) -------------------------------------------------

    def reload(self, model_dir: str | Path | None = None) -> dict:
        """Verify once, roll every worker, then commit the generation.

        Raises :class:`ArtifactError` (→ 409) before any worker is
        touched when the new bundle is corrupt, schema-drifted, or
        structurally incompatible — the old generation keeps serving.
        A worker that rejects the roll midway (disk race) aborts the
        fence: the router's generation does not advance and the
        per-worker outcomes are reported for the operator.
        """
        with self._reload_lock:
            target = Path(model_dir) if model_dir is not None else self._model_dir
            with observability.span("router.reload"):
                # The fence's verification step: checksums + structural
                # config check, exactly once, in the router.  Workers then
                # load the bundle with its own saved config, rolled and
                # respawned alike.
                bundle = ModelBundle.open(target)
                bundle.verify()
                try:
                    bundle.resolve_config(self._config)
                except ArtifactError:
                    observability.inc("router.reload.rejected")
                    raise
                outcomes = []
                rolled = 0
                for slot in self._slots:
                    handle = slot.handle
                    if handle is None or not handle.ready or not handle.is_alive():
                        outcomes.append({"worker": slot.index,
                                         "status": "dead",
                                         "note": "will respawn on the new "
                                                 "bundle"})
                        continue
                    body = json.dumps({"model_dir": str(target)}).encode()
                    try:
                        status, data, _headers = self._forward(
                            handle, "POST", "/v1/reload", body)
                    except (OSError, http.client.HTTPException) as error:
                        outcomes.append({"worker": slot.index,
                                         "status": "unreachable",
                                         "error": str(error)})
                        observability.inc("router.reload.rejected")
                        return {"reloaded": False, "outcomes": outcomes,
                                "generation": self._generation}
                    if status != 200:
                        try:
                            detail = json.loads(data)
                        except ValueError:
                            detail = {"raw": data[:200].decode("utf-8",
                                                               "replace")}
                        outcomes.append({"worker": slot.index,
                                         "status": f"rejected ({status})",
                                         "error": detail})
                        observability.inc("router.reload.rejected")
                        return {"reloaded": False, "outcomes": outcomes,
                                "generation": self._generation}
                    outcomes.append({"worker": slot.index, "status": "rolled"})
                    rolled += 1
                # Fence commit: every live worker now runs the new
                # bundle, so the router's generation — the one clients
                # see — advances exactly once.
                self._model_dir = target
                self._generation += 1
            observability.inc("router.reload.ok")
            observability.set_gauge("router.model_generation", self._generation)
            return {"reloaded": True, "outcomes": outcomes,
                    "rolled_workers": rolled,
                    "generation": self._generation,
                    "model": self._model_block()}

    # -- liveness monitor ----------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(MONITOR_INTERVAL_S):
            for slot in self._slots:
                handle = slot.handle
                if handle is not None and handle.is_alive():
                    continue
                if self.draining:
                    continue
                exitcode = handle.process.exitcode if handle else None
                slot.handle = None  # dispatch skips the slot immediately
                print(f"[router] worker {slot.index} died "
                      f"(exit code {exitcode}); respawning", flush=True)
                observability.inc("router.worker.deaths")
                try:
                    with self._reload_lock:
                        replacement = self._spawn_worker(slot.index)
                    replacement.wait_ready()
                except ServeError as error:
                    # Leave the slot empty; the next sweep tries again.
                    print(f"[router] worker {slot.index} respawn failed: "
                          f"{error}", flush=True)
                    observability.inc("router.worker.respawn_failures")
                    continue
                slot.handle = replacement
                slot.restarts += 1
                slot.last_restart_at = time.time()
                observability.inc("router.worker.respawns")
                print(f"[router] worker {slot.index} respawned "
                      f"(pid {replacement.pid}, restart #{slot.restarts})",
                      flush=True)

    # -- aggregated observability ---------------------------------------------------

    def _worker_health(self, handle: WorkerHandle) -> dict | None:
        try:
            _status, data, _headers = self._forward(
                handle, "GET", "/healthz", b"", timeout_s=5.0)
            return json.loads(data)
        except (OSError, ValueError, http.client.HTTPException):
            return None

    def _model_block(self) -> dict:
        return {
            "bundle": str(self._model_dir),
            "generation": self._generation,
            "workers": len(self._slots),
        }

    def health_body(self) -> dict:
        registry = observability.get_registry()
        latency = registry.histogram("router.request.seconds")
        workers = []
        live = 0
        total_restarts = 0
        sessions_total = {"sessions": 0, "bytes": 0, "opened": 0,
                          "closed": 0, "evicted_ttl": 0, "evicted_lru": 0}
        for slot in self._slots:
            handle = slot.handle
            total_restarts += slot.restarts
            entry = {
                "id": slot.index,
                "restarts": slot.restarts,
                "alive": False,
            }
            if slot.last_restart_at is not None:
                entry["last_restart_at"] = time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime(slot.last_restart_at))
            if handle is not None and handle.ready and handle.is_alive():
                live += 1
                entry.update({
                    "alive": True,
                    "pid": handle.pid,
                    "port": handle.port,
                    "in_flight": handle.in_flight,
                    "uptime_s": round(time.time() - handle.started_at, 3),
                })
                health = self._worker_health(handle)
                if health:
                    entry["generation"] = health["model"]["generation"]
                    entry["queue"] = health.get("queue")
                    block = health.get("sessions")
                    if block:
                        entry["sessions"] = block
                        for key in sessions_total:
                            sessions_total[key] += int(block.get(key, 0))
            workers.append(entry)
        if self.draining:
            status = "draining"
        elif live == len(self._slots):
            status = "ok"
        elif live:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "version": repro.__version__,
            "uptime_s": round(time.time() - self.started_at, 3),
            "role": "router",
            "model": self._model_block(),
            "queue": {"depth": self._pending, "limit": self.queue_limit},
            "sessions": sessions_total,
            "latency": {
                "p50_s": latency.quantile(0.5),
                "p99_s": latency.quantile(0.99),
            },
            "workers": workers,
            "workers_live": live,
            "restarts": total_restarts,
        }

    def metrics_body(self) -> dict:
        """Router registry + every live worker's snapshot, merged."""
        snapshots = [observability.snapshot()]
        for handle in self._live_handles():
            try:
                _status, data, _headers = self._forward(
                    handle, "GET", "/metricsz", b"", timeout_s=10.0)
                snapshots.append(json.loads(data))
            except (OSError, ValueError, http.client.HTTPException):
                observability.inc("router.metrics.unreachable_workers")
        return observability.merge_snapshots(snapshots)

    # -- lifecycle ----------------------------------------------------------------

    def install_signal_handlers(self) -> None:
        signal.signal(signal.SIGTERM, self._on_signal)
        signal.signal(signal.SIGINT, self._on_signal)

    def _on_signal(self, signum, _frame) -> None:
        print(f"[router] {signal.Signals(signum).name}: draining", flush=True)
        self.request_shutdown()

    def request_shutdown(self) -> None:
        self.draining = True
        threading.Thread(target=self.httpd.shutdown,
                         name="router-shutdown", daemon=True).start()

    def run(self) -> int:
        """Serve until shutdown; drain the front, then the workers."""
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="router-monitor", daemon=True)
        self._monitor.start()
        write_line(f"[router] model generation {self._generation} from "
                   f"{self._model_dir} across {len(self._slots)} workers")
        for slot in self._slots:
            handle = slot.handle
            write_line(f"[router] worker {slot.index}: pid {handle.pid} "
                       f"port {handle.port}")
        write_line(f"serving on http://{self.host}:{self.port}")
        try:
            self.httpd.serve_forever(poll_interval=0.1)
        finally:
            self.draining = True
            # Join in-flight handler threads first: their forwards need
            # the workers still up to finish with real responses.
            self.httpd.server_close()
            self._monitor_stop.set()
            if self._monitor is not None:
                self._monitor.join(timeout=5.0)
            for slot in self._slots:
                if slot.handle is not None and slot.handle.is_alive():
                    slot.handle.process.terminate()  # parallel SIGTERMs
            for slot in self._slots:
                if slot.handle is not None:
                    slot.handle.terminate()
        print("[router] drained, exiting", flush=True)
        return 0


__all__ = ["FORWARD_TIMEOUT_S", "MONITOR_INTERVAL_S", "RouterDaemon"]
