"""Worker processes for the pre-fork serving architecture.

A *worker* is a full :class:`~repro.serve.server.ServeDaemon` — model
host, micro-batch scheduler, HTTP front — running in its own process
with its own GIL, bound to an ephemeral loopback port only the router
talks to.  The router forwards request bodies verbatim, so workers
speak exactly the single-daemon wire protocol and every endpoint
(``/v1/infer``, ``/v1/reload``, ``/healthz``, ``/metricsz``) keeps its
meaning; the router aggregates on top.

Each worker loads the bundle through ``Cati.load``, checksums first,
exactly as a single daemon and offline inference do.  The model is
small (about 1.4 MB of arrays for the full GCC bundle), so each worker
simply holds its own copy.

Processes are started with the ``spawn`` context, not ``fork``: the
router runs handler threads, and forking a multithreaded process can
leave a child deadlocked on a lock some other thread held at fork
time.  The spawn handshake travels over a :func:`multiprocessing.Pipe`
— the child reports ``("ready", {"port": ..., "pid": ...})`` once its
socket is bound, or ``("error", message)`` when the model fails to
load, so the router can fail fast instead of timing out.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from pathlib import Path

from repro.core.errors import ServeError

#: Seconds a freshly spawned worker gets to import numpy, load + warm
#: the model, and bind its socket before the router gives up on it.
WORKER_START_TIMEOUT_S = 300.0


def worker_main(worker_id: int, model_dir: str, options: dict,
                metrics: bool, conn) -> None:
    """Entry point of one worker process (spawn target).

    Builds a :class:`ServeDaemon` on ``127.0.0.1:0`` from the router's
    ``options`` (``ServeDaemon`` keyword arguments), reports the bound
    port (or the load failure) over ``conn``, then serves until
    SIGTERM or until the router process is gone, whichever comes
    first; either starts the same drain.  Runs in the child's main
    thread, so the daemon's signal-based drain works unchanged.

    ``metrics`` is the router's global metrics switch: a spawned child
    starts with a fresh registry that records, so ``--no-metrics`` only
    reaches the workers through this argument.
    """
    from repro.core import observability
    from repro.serve.server import ServeDaemon

    observability.set_enabled(metrics)
    label = f"worker {worker_id}"
    try:
        # slot_index: session stickiness — this worker mints only session
        # ids that slot-hash back to itself, so the router can route
        # /v1/session/<id>/* by pure arithmetic.
        daemon = ServeDaemon(model_dir, host="127.0.0.1", port=0,
                             log_label=label, slot_index=worker_id, **options)
    except BaseException as error:  # noqa: BLE001 — must report, then die
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        finally:
            conn.close()
        raise SystemExit(1) from error
    daemon.install_signal_handlers()

    def drain_when_orphaned() -> None:
        # A SIGKILLed router runs no cleanup and sends no SIGTERM: without
        # this the worker would serve on under pid 1, holding its memory
        # and port.  After a normal drain it only repeats the shutdown.
        multiprocessing.parent_process().join()
        daemon.request_shutdown()

    threading.Thread(target=drain_when_orphaned, name="router-watch",
                     daemon=True).start()
    conn.send(("ready", {"port": daemon.port, "pid": os.getpid()}))
    conn.close()
    raise SystemExit(daemon.run())


class WorkerHandle:
    """Router-side view of one worker process.

    Owns the process object, the bound port, and the router's in-flight
    counter for least-loaded dispatch.  A handle is immutable once
    ready; respawning a crashed worker creates a *new* handle (see
    :class:`repro.serve.router.RouterDaemon`).
    """

    def __init__(self, worker_id: int, model_dir: str | Path,
                 options: dict, *, metrics: bool) -> None:
        self.worker_id = worker_id
        self.model_dir = str(model_dir)
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=worker_main,
            args=(worker_id, self.model_dir, options, metrics, child_conn),
            name=f"serve-worker-{worker_id}", daemon=True)
        self.process.start()
        child_conn.close()
        self.port: int | None = None
        self.pid: int | None = None
        self.started_at = time.time()
        #: Requests currently forwarded to this worker; guarded by the
        #: router's dispatch lock (plain int is enough under it).
        self.in_flight = 0

    def wait_ready(self, timeout_s: float = WORKER_START_TIMEOUT_S) -> None:
        """Block until the worker reports its port; raise on failure."""
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.terminate()
                raise ServeError(
                    f"worker {self.worker_id} did not become ready within "
                    f"{timeout_s:.0f}s", stage="serve")
            if self._conn.poll(min(remaining, 0.5)):
                break
            if not self.process.is_alive():
                # One last poll: the handshake may already be buffered.
                if self._conn.poll(0):
                    break
                raise ServeError(
                    f"worker {self.worker_id} died during startup "
                    f"(exit code {self.process.exitcode})", stage="serve")
        try:
            kind, payload = self._conn.recv()
        except (EOFError, OSError) as error:
            raise ServeError(
                f"worker {self.worker_id} closed its handshake pipe "
                f"(exit code {self.process.exitcode})",
                stage="serve") from error
        finally:
            self._conn.close()
        if kind != "ready":
            self.terminate()
            raise ServeError(
                f"worker {self.worker_id} failed to start: {payload}",
                stage="serve")
        self.port = int(payload["port"])
        self.pid = int(payload["pid"])

    @property
    def ready(self) -> bool:
        return self.port is not None

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def terminate(self, join_timeout_s: float = 30.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL if the join times out."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=join_timeout_s)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)


__all__ = ["WORKER_START_TIMEOUT_S", "WorkerHandle", "worker_main"]
