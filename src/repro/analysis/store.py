"""The bounded, TTL-evicted session store + session-id slot hashing.

:class:`SessionStore` holds open :class:`~repro.analysis.session
.AnalysisSession` objects server-side, keyed by id, under one lock —
handler threads (http.server spawns one per connection) and the
micro-batch scheduler's worker all touch sessions concurrently.  Two
bounds keep a long-lived daemon safe:

* **TTL** (``repro serve --session-ttl-s``): a session idle past the TTL
  is dropped on the next store access — any access, not just its own,
  so abandoned sessions cannot linger behind an idle id.
* **Byte cap** (``--session-max-bytes``): inserting past the
  budget evicts least-recently-used sessions until the store fits
  (the session just inserted is never evicted by its own insert — a
  single oversized session still serves, it just owns the store).

Every way out of the store is observable: ``sessions.opened`` /
``sessions.closed`` / ``sessions.evicted.ttl`` / ``sessions.evicted.lru``
counters, plus ``sessions.count`` / ``sessions.bytes`` gauges.  The
same numbers back ``/healthz``'s ``sessions`` block via :meth:`stats`
(kept as plain ints here so health stays truthful even with the metrics
registry disabled).

**Slot hashing.** Under ``--workers N`` sessions are sticky: state
lives in exactly one worker process.  :func:`session_slot` maps a
session id to its owning slot with CRC-32 (Python's ``hash()`` is
randomized per process, so it cannot route consistently between router
and workers), and :func:`mint_session_id` has each worker mint only ids
that hash back to itself — so the router can route ``/v1/session/<id>/*``
by pure arithmetic, with no shared session table.
"""

from __future__ import annotations

import secrets
import threading
import time
import zlib
from collections import OrderedDict

from repro.core import observability
from repro.core.errors import SessionGoneError

#: Idle seconds before a session expires (``repro serve --session-ttl-s``).
DEFAULT_TTL_S = 600.0

#: Byte budget of one daemon's sessions (``repro serve --session-max-bytes``).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def session_slot(session_id: str, n_slots: int) -> int:
    """The worker slot owning ``session_id`` (stable across processes)."""
    return zlib.crc32(session_id.encode("utf-8")) % max(1, n_slots)


def mint_session_id(slot_index: int = 0, slot_count: int = 1) -> str:
    """A fresh session id that :func:`session_slot` maps to ``slot_index``.

    Rejection-samples random ids (expected ``slot_count`` draws); a
    single daemon is slot 0 of 1, where every id matches.
    """
    slot_count = max(1, slot_count)
    slot_index = slot_index % slot_count
    while True:
        candidate = secrets.token_hex(8)
        if session_slot(candidate, slot_count) == slot_index:
            return candidate


class SessionStore:
    """TTL + LRU-by-bytes bounded map of open analysis sessions."""

    def __init__(self, *, ttl_s: float = DEFAULT_TTL_S,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 clock=time.monotonic) -> None:
        if ttl_s <= 0:
            raise ValueError("ttl_s must be > 0")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.ttl_s = float(ttl_s)
        self.max_bytes = int(max_bytes)
        self._clock = clock
        self._lock = threading.Lock()
        #: id → (session, last-used stamp); order = LRU (oldest first).
        self._entries: OrderedDict[str, list] = OrderedDict()
        self._bytes = 0
        self._opened = 0
        self._closed = 0
        self._evicted_ttl = 0
        self._evicted_lru = 0

    # -- internals (call with the lock held) --------------------------------------

    def _drop_locked(self, session_id: str) -> None:
        session, _stamp = self._entries.pop(session_id)
        self._bytes -= session.nbytes

    def _sweep_locked(self, now: float) -> None:
        expired = [session_id for session_id, (_s, stamp) in self._entries.items()
                   if now - stamp > self.ttl_s]
        for session_id in expired:
            self._drop_locked(session_id)
            self._evicted_ttl += 1
        if expired:
            observability.inc("sessions.evicted.ttl", len(expired))

    def _publish_gauges_locked(self) -> None:
        observability.set_gauge("sessions.count", len(self._entries))
        observability.set_gauge("sessions.bytes", self._bytes)

    # -- the store API --------------------------------------------------------------

    def put(self, session) -> None:
        """Insert (or replace) a session; evict LRU past the byte budget."""
        now = self._clock()
        with self._lock:
            self._sweep_locked(now)
            if session.session_id in self._entries:
                self._drop_locked(session.session_id)
            self._entries[session.session_id] = [session, now]
            self._bytes += session.nbytes
            self._opened += 1
            observability.inc("sessions.opened")
            # LRU eviction: oldest first, never the session just put —
            # an oversized session owns the store rather than thrashing.
            evicted = 0
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                victim = next(iter(self._entries))
                if victim == session.session_id:
                    break
                self._drop_locked(victim)
                self._evicted_lru += 1
                evicted += 1
            if evicted:
                observability.inc("sessions.evicted.lru", evicted)
            self._publish_gauges_locked()

    def get(self, session_id: str):
        """Look up + touch a session; :class:`SessionGoneError` otherwise."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(session_id)
            if entry is not None and now - entry[1] > self.ttl_s:
                self._drop_locked(session_id)
                self._evicted_ttl += 1
                observability.inc("sessions.evicted.ttl")
                self._publish_gauges_locked()
                entry = None
            if entry is None:
                self._sweep_locked(now)
                self._publish_gauges_locked()
                raise SessionGoneError(
                    f"no session {session_id!r} on this server (expired, "
                    "evicted, lost to a worker restart, or never opened); "
                    "re-open the session and retry", stage="serve")
            entry[1] = now
            self._entries.move_to_end(session_id)
            return entry[0]

    def remove(self, session_id: str) -> bool:
        """Explicit close; True when the session was present."""
        with self._lock:
            if session_id not in self._entries:
                return False
            self._drop_locked(session_id)
            self._closed += 1
            observability.inc("sessions.closed")
            self._publish_gauges_locked()
            return True

    def stats(self) -> dict:
        """The ``/healthz`` ``sessions`` block (plain ints, lock-consistent)."""
        with self._lock:
            self._sweep_locked(self._clock())
            return {
                "sessions": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "ttl_s": self.ttl_s,
                "opened": self._opened,
                "closed": self._closed,
                "evicted_ttl": self._evicted_ttl,
                "evicted_lru": self._evicted_lru,
            }


__all__ = ["SessionStore", "mint_session_id", "session_slot"]
