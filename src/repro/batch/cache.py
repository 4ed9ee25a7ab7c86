"""Durable window cache: the engine's dedup LRU made disk-backed.

``dedup.conv1_dedup_ratio`` is already ~7x *within* one run because the
paper's same-type clustering phenomenon makes corpora heavily
redundant; across runs the redundancy is larger still — recompiling a
corpus leaves most functions byte-identical, so most encoded windows
recur.  :class:`WindowCacheStore` persists the engine's computed leaf
rows keyed by window content so a second run over a content-overlapping
corpus answers those windows from disk instead of the CNN cascade.

On-disk layout (one namespace directory per model)::

    <cache-dir>/<model-key>/
    └── seg-<pid>-<nonce>.bin   append-only record segments

Each segment record is self-verifying, and every record of a store has
the same size (the row width fixes the payload length)::

    magic u32 | paylen u32 | crc32 u32 (key + payload) | key 32 B
    (SHA-256 of the window's token-id bytes) | payload (float64 leaf row)

Design contract — the cache is an *accelerator*, never an authority:

* **content-hash keys** — a window's key is the SHA-256 of its encoded
  token-id bytes, so hits are exact; a hit returns the bit-identical
  float64 row the engine once computed (resumed batch jobs therefore
  reproduce uninterrupted runs exactly);
* **model-key namespace** — the store binds to one model's
  :meth:`~repro.core.artifacts.ModelBundle.content_key`; a retrained or
  hot-reloaded bundle reads/writes a different namespace, so stale rows
  can never serve a new model;
* **the segments are the only state** — opening a store scans every
  segment once, in blocks of whole records, and adopts each record
  whose CRC holds; nothing else is read or written.  The CRC covers the
  key, so a damaged key is never adopted.  An ``index.json`` left in a
  namespace by an earlier version is ignored and may be deleted, and a
  segment written before the CRC covered the key reads as damaged;
* **append-only + crash-tolerant** — writers only ever append to their
  own uniquely named segment; :meth:`WindowCacheStore.flush` fsyncs it
  and its directory, so every flushed record survives a crash, which
  leaves at most a torn tail that the next scan drops;
* **corruption-tolerant, never trusted** — a damaged record costs that
  record alone: the scan counts it and, since records are fixed-size,
  resumes at the next one.  Every read re-verifies the record's CRC, so
  damage done after the open is counted, logged, dropped and
  transparently recomputed by the engine — never returned, never fatal.

Observability: ``batch.cache.hits`` / ``batch.cache.misses`` /
``batch.cache.corrupt_records`` / ``batch.cache.appends`` counters plus
the same numbers on :attr:`WindowCacheStore.stats` per instance.
"""

from __future__ import annotations

import logging
import os
import struct
import threading
import zlib
from hashlib import sha256
from pathlib import Path

import numpy as np

from repro.core import observability
from repro.core.fsutil import fsync_dir

logger = logging.getLogger(__name__)

#: Record framing: magic, payload length, CRC-32 of key and payload.
_HEADER = struct.Struct("<III")
_MAGIC = 0x43A71CA6
_KEY_LEN = 32

SEGMENT_GLOB = "seg-*.bin"

#: Whole records read per block while scanning a segment, so the memory
#: an open needs does not grow with segment size.
_SCAN_RECORDS = 4096


def window_key(raw: bytes) -> bytes:
    """The 32-byte content key of one encoded window's id bytes."""
    return sha256(raw).digest()


class WindowCacheStore:
    """Crash- and corruption-tolerant on-disk map: window key → leaf row.

    ``model_key`` namespaces the store (see module docstring);
    ``row_len`` is the leaf-row width (19 for the full taxonomy), which
    fixes the record size and rejects mis-sized rows.  Opening scans the
    namespace's segments; appends go to a segment of this store's own
    and are made durable by :meth:`flush`.
    """

    def __init__(self, directory: str | Path, model_key: str, *,
                 row_len: int) -> None:
        if not model_key or any(c in model_key for c in "/\\"):
            raise ValueError(f"model_key must be a plain token, got {model_key!r}")
        self.directory = Path(directory) / model_key
        self.model_key = model_key
        self.row_len = int(row_len)
        self._payload_len = self.row_len * 8  # float64 rows
        self._record_len = _HEADER.size + _KEY_LEN + self._payload_len
        self._lock = threading.Lock()
        #: key → (segment name, payload offset)
        self._entries: dict[bytes, tuple[str, int]] = {}
        self._readers: dict[str, object] = {}
        self._active: object | None = None
        self._active_name: str | None = None
        self._active_size = 0
        self.stats = {"hits": 0, "misses": 0, "appends": 0,
                      "corrupt_records": 0, "segments_scanned": 0}
        self.directory.mkdir(parents=True, exist_ok=True)
        for path in sorted(self.directory.glob(SEGMENT_GLOB)):
            self._scan_segment(path)

    # -- opening -----------------------------------------------------------------

    def _scan_segment(self, path: Path) -> None:
        """Adopt every record of ``path`` whose framing and CRC hold.

        A damaged record is counted and skipped, and the scan resumes at
        the next record boundary; a short tail is dropped.
        """
        self.stats["segments_scanned"] += 1
        record_len = self._record_len
        payload_at = _HEADER.size + _KEY_LEN
        scanned = corrupt = 0
        try:
            with open(path, "rb") as handle:
                while block := handle.read(record_len * _SCAN_RECORDS):
                    whole = len(block) - len(block) % record_len
                    for start in range(0, whole, record_len):
                        magic, paylen, crc = _HEADER.unpack_from(block, start)
                        if (magic != _MAGIC or paylen != self._payload_len
                                or zlib.crc32(block[start + _HEADER.size:
                                                    start + record_len]) != crc):
                            corrupt += 1
                            continue
                        key = block[start + _HEADER.size:start + payload_at]
                        self._entries[key] = (
                            path.name, scanned + start + payload_at)
                    scanned += whole
                    if whole < len(block):
                        logger.warning(
                            "window cache segment %s: torn tail at byte %d "
                            "dropped", path.name, scanned)
                        break
        except OSError as error:
            logger.warning("window cache segment %s unreadable: %s",
                           path.name, error)
        if corrupt:
            self.stats["corrupt_records"] += corrupt
            observability.inc("batch.cache.corrupt_records", corrupt)
            logger.warning("window cache segment %s: %d damaged record(s) "
                           "skipped (will be recomputed)", path.name, corrupt)

    # -- reads -------------------------------------------------------------------

    def _reader(self, name: str):
        if name == self._active_name and self._active is not None:
            # Our own appends may still sit in the write buffer; push
            # them to the OS (no fsync needed — same-process read).
            self._active.flush()
        handle = self._readers.get(name)
        if handle is None:
            handle = self._readers[name] = open(self.directory / name, "rb")
        return handle

    def get_many(self, raw_keys: list[bytes]) -> dict[bytes, np.ndarray]:
        """Raw window-id bytes → float64 leaf rows for every durable hit.

        Every returned row was CRC-verified on this read; corrupt or
        vanished records are dropped from the map (and counted) so the
        caller recomputes them — the cache never serves damaged bytes.
        """
        out: dict[bytes, np.ndarray] = {}
        hits = misses = corrupt = 0
        with self._lock:
            for raw in raw_keys:
                key = window_key(raw)
                entry = self._entries.get(key)
                if entry is None:
                    misses += 1
                    continue
                name, offset = entry
                try:
                    handle = self._reader(name)
                    handle.seek(offset - _HEADER.size - _KEY_LEN)
                    record = handle.read(self._record_len)
                    magic, paylen, crc = _HEADER.unpack_from(record)
                    valid = (len(record) == self._record_len
                             and magic == _MAGIC and paylen == self._payload_len
                             and record[_HEADER.size:_HEADER.size + _KEY_LEN] == key
                             and zlib.crc32(record[_HEADER.size:]) == crc)
                except (OSError, struct.error):
                    valid = False
                if not valid:
                    corrupt += 1
                    misses += 1
                    del self._entries[key]
                    logger.warning(
                        "window cache %s: record for %s failed verification; "
                        "recomputing", name, key.hex()[:12])
                    continue
                out[raw] = np.frombuffer(record, dtype=np.float64,
                                         offset=_HEADER.size + _KEY_LEN).copy()
                hits += 1
        self.stats["hits"] += hits
        self.stats["misses"] += misses
        self.stats["corrupt_records"] += corrupt
        if observability.is_enabled():
            registry = observability.get_registry()
            registry.inc("batch.cache.hits", hits)
            registry.inc("batch.cache.misses", misses)
            if corrupt:
                registry.inc("batch.cache.corrupt_records", corrupt)
        return out

    # -- writes ------------------------------------------------------------------

    def _active_segment(self):
        if self._active is None:
            name = f"seg-{os.getpid()}-{os.urandom(4).hex()}.bin"
            self._active_name = name
            self._active = open(self.directory / name, "ab")
            self._active_size = 0
        return self._active

    def put_many(self, pairs: list[tuple[bytes, np.ndarray]]) -> None:
        """Append (raw window-id bytes, float64 leaf row) records.

        Every row's width is checked before any record is written, so a
        rejected call stores nothing.
        """
        records: dict[bytes, bytes] = {}
        for raw, row in pairs:
            payload = np.ascontiguousarray(row, dtype=np.float64).tobytes()
            if len(payload) != self._payload_len:
                raise ValueError(
                    f"leaf row has {len(payload)} payload bytes, "
                    f"store expects {self._payload_len}")
            records.setdefault(window_key(raw), payload)
        with self._lock:
            fresh = [(key, payload) for key, payload in records.items()
                     if key not in self._entries]
            if fresh:
                handle = self._active_segment()
                for key, payload in fresh:
                    handle.write(_HEADER.pack(_MAGIC, self._payload_len,
                                              zlib.crc32(payload, zlib.crc32(key))))
                    handle.write(key)
                    handle.write(payload)
                    self._entries[key] = (
                        self._active_name,
                        self._active_size + _HEADER.size + _KEY_LEN)
                    self._active_size += self._record_len
        appended = len(fresh)
        self.stats["appends"] += appended
        if appended and observability.is_enabled():
            observability.inc("batch.cache.appends", appended)

    def _flush_segment(self) -> None:
        if self._active is not None:
            self._active.flush()
            os.fsync(self._active.fileno())
            fsync_dir(self.directory)

    def flush(self) -> None:
        """Make every appended record durable (fsync segment and directory)."""
        with self._lock:
            self._flush_segment()

    def close(self) -> None:
        """Flush, then release every file."""
        with self._lock:
            self._flush_segment()
            for handle in self._readers.values():
                handle.close()
            self._readers.clear()
            if self._active is not None:
                self._active.close()
                self._active = None

    def __enter__(self) -> "WindowCacheStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
