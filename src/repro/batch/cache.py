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
    ├── seg-<pid>-<nonce>.bin   append-only record segments
    └── index.json              verified index (rebuilt if stale/corrupt)

Each segment record is self-verifying::

    magic u32 | paylen u32 | crc32 u32 (payload) | key 32 B (SHA-256
    of the window's token-id bytes) | payload (float64 leaf row)

Design contract — the cache is an *accelerator*, never an authority:

* **content-hash keys** — a window's key is the SHA-256 of its encoded
  token-id bytes, so hits are exact; a hit returns the bit-identical
  float64 row the engine once computed (resumed batch jobs therefore
  reproduce uninterrupted runs exactly);
* **model-key namespace** — the store binds to one model's
  :meth:`~repro.core.artifacts.ModelBundle.content_key`; a retrained or
  hot-reloaded bundle reads/writes a different namespace, so stale rows
  can never serve a new model;
* **append-only + crash-tolerant** — writers only ever append to their
  own uniquely named segment; a crash leaves at most a torn tail, which
  the opening scan truncates at the first malformed record;
* **corruption-tolerant, never trusted** — every read re-verifies the
  record's CRC; a flipped byte (or a record whose index entry outlived
  the bytes) is counted, logged, dropped and transparently recomputed
  by the engine — never returned, never fatal;
* **verified index, written once per store** — :meth:`WindowCacheStore.flush`
  only flushes and fsyncs the active segment, so its cost does not grow
  with the entries already stored; :meth:`WindowCacheStore.close` writes
  ``index.json``.  The index carries its own SHA-256 and the byte extent
  of every segment it covers; if it is missing, damaged, or behind the
  segments on disk (a writer killed after flushing but before closing),
  the uncovered segment bytes are scanned record by record on open, so
  every flushed record is recovered.

Observability: ``batch.cache.hits`` / ``batch.cache.misses`` /
``batch.cache.corrupt_records`` / ``batch.cache.appends`` counters plus
the same numbers on :attr:`WindowCacheStore.stats` per instance.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import threading
import zlib
from hashlib import sha256
from pathlib import Path

import numpy as np

from repro.core import observability
from repro.core.fsutil import atomic_write, fsync_dir

logger = logging.getLogger(__name__)

#: Record framing: magic, payload length, payload CRC-32.
_HEADER = struct.Struct("<III")
_MAGIC = 0x43A71CA5
_KEY_LEN = 32

INDEX_NAME = "index.json"
INDEX_FORMAT = "cati-window-cache-index/1"
SEGMENT_GLOB = "seg-*.bin"


def window_key(raw: bytes) -> bytes:
    """The 32-byte content key of one encoded window's id bytes."""
    return sha256(raw).digest()


class WindowCacheStore:
    """Crash- and corruption-tolerant on-disk map: window key → leaf row.

    ``model_key`` namespaces the store (see module docstring);
    ``row_len`` is the leaf-row width (19 for the full taxonomy) used to
    reject mis-sized payloads; ``fsync`` governs whether appends are
    made power-cut durable on :meth:`flush` (tests turn it off for
    speed, jobs leave it on).
    """

    def __init__(self, directory: str | Path, model_key: str, *,
                 row_len: int, fsync: bool = True) -> None:
        if not model_key or any(c in model_key for c in "/\\"):
            raise ValueError(f"model_key must be a plain token, got {model_key!r}")
        self.directory = Path(directory) / model_key
        self.model_key = model_key
        self.row_len = int(row_len)
        self._payload_len = self.row_len * 8  # float64 rows
        self._fsync = fsync
        self._lock = threading.Lock()
        #: key → (segment name, payload offset)
        self._entries: dict[bytes, tuple[str, int]] = {}
        #: segment name → bytes covered by the in-memory entries
        self._extents: dict[str, int] = {}
        self._readers: dict[str, object] = {}
        self._active: object | None = None
        self._active_name: str | None = None
        self._dirty = False
        self.stats = {"hits": 0, "misses": 0, "appends": 0,
                      "corrupt_records": 0, "segments_scanned": 0,
                      "index_rebuilds": 0}
        self.directory.mkdir(parents=True, exist_ok=True)
        self._load()

    # -- opening / index ---------------------------------------------------------

    def _load(self) -> None:
        """Load the verified index, then scan whatever it does not cover."""
        covered = self._load_index()
        for path in sorted(self.directory.glob(SEGMENT_GLOB)):
            name = path.name
            start = covered.get(name, 0)
            size = path.stat().st_size
            if size > start:
                self._scan_segment(path, start)
            self._extents.setdefault(name, min(start, size))
            if covered.get(name, 0) > size:
                # The index claims more bytes than exist: a replaced or
                # truncated segment.  Re-scan from zero, dropping every
                # entry that pointed into it.
                self._drop_segment_entries(name)
                self._scan_segment(path, 0)

    def _load_index(self) -> dict[str, int]:
        """Covered byte extent per segment, {} when the index is unusable."""
        path = self.directory / INDEX_NAME
        try:
            body = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        if not isinstance(body, dict) or body.get("format") != INDEX_FORMAT:
            return {}
        claimed = body.pop("sha256", None)
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        if claimed != sha256(canonical.encode("utf-8")).hexdigest():
            logger.warning("window cache index %s failed verification; "
                           "rebuilding from segments", path)
            self.stats["index_rebuilds"] += 1
            observability.inc("batch.cache.index_rebuilds")
            return {}
        segments = body.get("segments")
        entries = body.get("entries")
        if not isinstance(segments, dict) or not isinstance(entries, list):
            return {}
        covered: dict[str, int] = {}
        names = sorted(segments)
        for name in names:
            size = segments[name]
            if not isinstance(size, int) or size < 0:
                return {}
            covered[name] = size
        try:
            for key_hex, seg_index, offset in entries:
                name = names[seg_index]
                if (path_ := self.directory / name).exists() \
                        and offset + self._payload_len <= max(
                            covered[name], path_.stat().st_size):
                    self._entries[bytes.fromhex(key_hex)] = (name, int(offset))
        except (TypeError, ValueError, IndexError, KeyError):
            self._entries.clear()
            return {}
        self._extents.update({name: size for name, size in covered.items()
                              if (self.directory / name).exists()})
        return covered

    def _write_index(self) -> None:
        names = sorted(self._extents)
        index_of = {name: i for i, name in enumerate(names)}
        body = {
            "format": INDEX_FORMAT,
            "model_key": self.model_key,
            "row_len": self.row_len,
            "segments": {name: self._extents[name] for name in names},
            "entries": [[key.hex(), index_of[name], offset]
                        for key, (name, offset) in self._entries.items()],
        }
        # The digest covers the canonical body; the file is that same text
        # with the digest added as one more key, so the body is encoded once.
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        digest = sha256(canonical.encode("utf-8")).hexdigest()
        atomic_write(self.directory / INDEX_NAME,
                     f'{canonical[:-1]},"sha256":"{digest}"}}',
                     fsync=self._fsync)

    def _scan_segment(self, path: Path, start: int) -> None:
        """Adopt every valid record from byte ``start``; truncate at the
        first malformed one (torn tail or corruption — never trusted)."""
        self.stats["segments_scanned"] += 1
        record_len = _HEADER.size + _KEY_LEN + self._payload_len
        adopted = start
        try:
            with open(path, "rb") as handle:
                handle.seek(start)
                while True:
                    record = handle.read(record_len)
                    if len(record) < record_len:
                        if record:
                            logger.warning(
                                "window cache segment %s: torn tail at byte "
                                "%d dropped", path.name, adopted)
                        break
                    magic, paylen, crc = _HEADER.unpack_from(record)
                    payload = record[_HEADER.size + _KEY_LEN:]
                    if (magic != _MAGIC or paylen != self._payload_len
                            or zlib.crc32(payload) != crc):
                        self.stats["corrupt_records"] += 1
                        observability.inc("batch.cache.corrupt_records")
                        logger.warning(
                            "window cache segment %s: bad record at byte %d; "
                            "dropping the segment remainder (will be "
                            "recomputed)", path.name, adopted)
                        break
                    key = record[_HEADER.size:_HEADER.size + _KEY_LEN]
                    self._entries[key] = (
                        path.name, adopted + _HEADER.size + _KEY_LEN)
                    adopted += record_len
        except OSError as error:
            logger.warning("window cache segment %s unreadable: %s",
                           path.name, error)
        self._extents[path.name] = adopted

    def _drop_segment_entries(self, name: str) -> None:
        for key in [k for k, (seg, _) in self._entries.items() if seg == name]:
            del self._entries[key]

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
                    header = handle.read(_HEADER.size)
                    stored_key = handle.read(_KEY_LEN)
                    payload = handle.read(self._payload_len)
                    magic, paylen, crc = _HEADER.unpack(header)
                    valid = (magic == _MAGIC and paylen == self._payload_len
                             and stored_key == key
                             and len(payload) == self._payload_len
                             and zlib.crc32(payload) == crc)
                except (OSError, struct.error):
                    valid = False
                if not valid:
                    corrupt += 1
                    misses += 1
                    del self._entries[key]
                    self._dirty = True
                    logger.warning(
                        "window cache %s: record for %s failed verification; "
                        "recomputing", name, key.hex()[:12])
                    continue
                out[raw] = np.frombuffer(payload, dtype=np.float64).copy()
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
            self._extents.setdefault(name, 0)
        return self._active

    def put_many(self, pairs: list[tuple[bytes, np.ndarray]]) -> None:
        """Append (raw window-id bytes, float64 leaf row) records."""
        if not pairs:
            return
        appended = 0
        with self._lock:
            handle = self._active_segment()
            name = self._active_name
            assert name is not None
            offset = self._extents[name]
            for raw, row in pairs:
                key = window_key(raw)
                if key in self._entries:
                    continue
                payload = np.ascontiguousarray(
                    row, dtype=np.float64).tobytes()
                if len(payload) != self._payload_len:
                    raise ValueError(
                        f"leaf row has {len(payload)} payload bytes, "
                        f"store expects {self._payload_len}")
                handle.write(_HEADER.pack(_MAGIC, self._payload_len,
                                          zlib.crc32(payload)))
                handle.write(key)
                handle.write(payload)
                self._entries[key] = (name, offset + _HEADER.size + _KEY_LEN)
                offset += _HEADER.size + _KEY_LEN + self._payload_len
                appended += 1
            self._extents[name] = offset
            self._dirty = self._dirty or appended > 0
        self.stats["appends"] += appended
        if appended and observability.is_enabled():
            observability.inc("batch.cache.appends", appended)

    def _flush_segment(self) -> None:
        if self._active is not None:
            self._active.flush()
            if self._fsync:
                os.fsync(self._active.fileno())
                fsync_dir(self.directory)

    def flush(self) -> None:
        """Make appended records durable; the index waits for :meth:`close`."""
        with self._lock:
            self._flush_segment()

    def close(self) -> None:
        """Flush, write the verified index if anything changed, release files."""
        with self._lock:
            self._flush_segment()
            if self._dirty:
                self._write_index()
                self._dirty = False
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
