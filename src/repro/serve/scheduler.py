"""Dynamic micro-batching: coalesce concurrent requests into engine calls.

The engine's batched path amortizes encode/dedup/GEMM cost over many
windows, but one HTTP request usually carries one binary's worth. The
scheduler closes that gap: handler threads :meth:`submit` one
:class:`~repro.vuc.stream.VucStream` each and block; a single worker
thread collects everything that arrives within :data:`COALESCE_DELAY_S`
of the first request (up to :data:`MAX_BATCH_WINDOWS` windows) and
scores them in **one** :meth:`~repro.core.engine.InferenceEngine.score`
call on the engine the host serves when the batch runs, which encodes
every stream itself.  Each request gets its own
:class:`~repro.core.engine.Analysis` and votes its own rows, so
grouping and summation order per request are exactly the offline
``Cati.infer_binary`` path's.

Admission control lives at :meth:`submit`: a bounded queue (by pending
*requests*) raises :class:`~repro.core.errors.QueueFullError` carrying a
``Retry-After`` hint derived from observed batch latency, and requests
whose deadline lapses while queued fail with
:class:`~repro.core.errors.DeadlineExceededError` instead of wasting a
batch slot. :meth:`close` drains: intake stops, queued work finishes,
the worker exits — the daemon's SIGTERM path.

Single-worker on purpose: the engine's dedup cache and stats are only
coordinated per call, numpy releases the GIL inside the GEMMs anyway,
and one worker keeps served numbers reproducible (batch order is
deterministic given arrival order).

Under ``--workers N`` (the pre-fork router,
:mod:`repro.serve.router`), one scheduler instance runs *per worker
process* — each worker coalesces the subset of requests the router
dispatched to it, so scale-out multiplies the batching loops instead
of contending on one.  The router performs its own admission control
up front; these per-worker queue limits remain as a second line of
defence should dispatch ever outrun a worker.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.core import observability
from repro.core.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServerClosedError,
)
from repro.core.observability import SIZE_BUCKETS

#: Fallback Retry-After hint before any batch latency was observed.
_DEFAULT_RETRY_AFTER_S = 1.0

#: Window budget per coalesced engine call.  Requests are never split,
#: so one request may exceed it alone; it stops *more* requests from
#: joining an already-large batch.
MAX_BATCH_WINDOWS = 4096

#: How long the worker waits for more requests after the first one.
COALESCE_DELAY_S = 0.005


class PendingRequest:
    """One submitted inference job: inputs, completion event, outcome.

    The worker hands back the request's
    :class:`~repro.core.engine.Analysis`; the *waiting* thread then
    reads its ``predictions``, so the single batch worker never
    serializes per-request voting between engine calls.
    """

    __slots__ = ("stream", "deadline", "event", "analysis", "error")

    def __init__(self, stream, deadline: float | None) -> None:
        #: The request's windows and their row-aligned variable ids.
        self.stream = stream
        #: Absolute ``time.monotonic()`` deadline, or None.
        self.deadline = deadline
        self.event = threading.Event()
        self.analysis = None
        self.error: BaseException | None = None

    def finish(self, analysis) -> None:
        self.analysis = analysis
        self.event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.event.set()


class MicroBatchScheduler:
    """The bounded-queue micro-batching worker over a :class:`ModelHost`."""

    def __init__(self, host, queue_limit: int = 64) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.host = host
        self.queue_limit = queue_limit
        self._queue: deque[PendingRequest] = deque()
        self._lock = threading.Lock()
        self._have_work = threading.Condition(self._lock)
        self._closed = False
        self._in_flight = 0
        self._worker = threading.Thread(
            target=self._loop, name="serve-batcher", daemon=True)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        self._worker.start()

    def close(self, timeout: float | None = None) -> None:
        """Stop intake, finish everything queued, join the worker."""
        with self._lock:
            self._closed = True
            self._have_work.notify_all()
        if self._worker.is_alive():
            self._worker.join(timeout)

    # -- admission ---------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests waiting plus requests inside the running batch."""
        with self._lock:
            return len(self._queue) + self._in_flight

    def submit(self, stream, deadline_s: float | None = None) -> PendingRequest:
        """Enqueue one request's stream; raises instead of queueing on overload.

        ``stream`` is a :class:`~repro.vuc.stream.VucStream`.
        ``deadline_s`` is a relative budget; it bounds queue wait (the
        HTTP layer separately bounds the wait on the result event).
        """
        deadline = (time.monotonic() + deadline_s
                    if deadline_s is not None else None)
        pending = PendingRequest(stream, deadline)
        if not len(stream):
            pending.finish(self.host.engine.score([stream])[0])
            return pending
        with self._lock:
            if self._closed:
                raise ServerClosedError("server is draining", stage="serve")
            if len(self._queue) >= self.queue_limit:
                observability.inc("serve.rejected.queue_full")
                raise QueueFullError(
                    f"admission queue full ({self.queue_limit} pending requests)",
                    retry_after_s=self.retry_after_s_locked(), stage="serve")
            self._queue.append(pending)
            depth = len(self._queue) + self._in_flight
            observability.set_gauge("serve.queue_depth", depth)
            observability.observe("serve.queue.depth", depth, SIZE_BUCKETS)
            self._have_work.notify()
        return pending

    def retry_after_s_locked(self) -> float:
        """Backoff hint: observed p50 batch latency times queued batches.

        Callers hold the scheduler lock.
        """
        histogram = observability.get_registry().histogram("serve.batch.seconds")
        p50 = histogram.quantile(0.5)
        if p50 is None:
            return _DEFAULT_RETRY_AFTER_S
        batches_ahead = max(1, len(self._queue) + self._in_flight)
        return max(0.1, min(p50 * batches_ahead, 60.0))

    @staticmethod
    def wait(pending: PendingRequest, timeout: float | None = None) -> list:
        """Block for a submitted request's outcome; raise its failure.

        The per-variable vote runs here, on the waiting thread, so it
        overlaps the worker's next engine batch instead of serializing
        behind it.
        """
        if not pending.event.wait(timeout):
            raise DeadlineExceededError(
                f"no result within {timeout}s", stage="serve")
        if pending.error is not None:
            raise pending.error
        return pending.analysis.predictions

    # -- the worker ---------------------------------------------------------------

    def _loop(self) -> None:
        while True:
            batch = self._collect()
            if not batch:
                return  # closed and drained
            try:
                self._run_batch(batch)
            finally:
                with self._lock:
                    self._in_flight = 0
                    observability.set_gauge("serve.queue_depth", len(self._queue))

    def _collect(self) -> list[PendingRequest]:
        """One batch: first waiter, then whatever the delay window adds."""
        with self._have_work:
            while not self._queue and not self._closed:
                self._have_work.wait()
            if not self._queue:
                return []
            batch = [self._queue.popleft()]
            total = len(batch[0].stream)
            # Coalesce: keep gathering until the window budget is spent,
            # the delay elapses, or (draining) the queue is empty.
            until = time.monotonic() + COALESCE_DELAY_S
            while total < MAX_BATCH_WINDOWS:
                if self._queue:
                    if total + len(self._queue[0].stream) > MAX_BATCH_WINDOWS:
                        break
                    request = self._queue.popleft()
                    batch.append(request)
                    total += len(request.stream)
                    continue
                remaining = until - time.monotonic()
                if remaining <= 0 or self._closed:
                    break
                self._have_work.wait(remaining)
                if not self._queue:
                    break
            self._in_flight = len(batch)
            observability.set_gauge("serve.queue_depth",
                                    len(self._queue) + self._in_flight)
        return batch

    def _run_batch(self, batch: list[PendingRequest]) -> None:
        now = time.monotonic()
        live: list[PendingRequest] = []
        for request in batch:
            if request.deadline is not None and now > request.deadline:
                observability.inc("serve.deadline_exceeded")
                request.fail(DeadlineExceededError(
                    "deadline elapsed while queued", stage="serve"))
            else:
                live.append(request)
        if not live:
            return
        try:
            engine = self.host.engine
            total = sum(len(r.stream) for r in live)
            started = time.monotonic()
            with observability.span("serve.batch"):
                analyses = engine.score([r.stream for r in live])
                for request, analysis in zip(live, analyses):
                    request.finish(analysis)
            if observability.is_enabled():
                registry = observability.get_registry()
                registry.inc("serve.batches")
                registry.inc("serve.coalesced_requests", len(live))
                registry.observe("serve.batch.windows", total, SIZE_BUCKETS)
                registry.observe("serve.batch.requests", len(live), SIZE_BUCKETS)
                registry.observe("serve.batch.seconds",
                                 time.monotonic() - started)
        except Exception as error:  # noqa: BLE001 — every waiter must wake
            for request in live:
                if not request.event.is_set():
                    request.fail(error)
