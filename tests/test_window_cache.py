"""Durable window cache (repro.batch.cache): persistence + corruption.

The store's contract is "accelerator, never authority": every test that
damages bytes on disk asserts the damage is detected, counted, and
answered with a miss (so the engine recomputes) — never a crash, never
a wrong row.
"""

from __future__ import annotations

import json
from hashlib import sha256

import numpy as np
import pytest

from repro.batch.cache import _HEADER, _KEY_LEN, WindowCacheStore

ROW_LEN = 19


def make_store(tmp_path, key="model-a"):
    return WindowCacheStore(tmp_path, key, row_len=ROW_LEN)


def rows(n, seed=0):
    rng = np.random.default_rng(seed)
    return [(bytes([i]) * 12, rng.random(ROW_LEN)) for i in range(n)]


def earlier_index(namespace, row_len=ROW_LEN) -> bytes:
    """The ``index.json`` earlier versions wrote beside a namespace's
    segments: each record's key, segment and payload offset, and each
    segment's size, closed by the SHA-256 of that canonical text."""
    payload_at = _HEADER.size + _KEY_LEN
    record_len = payload_at + row_len * 8
    names = sorted(path.name for path in namespace.glob("seg-*.bin"))
    segments, entries = {}, []
    for number, name in enumerate(names):
        blob = (namespace / name).read_bytes()
        segments[name] = len(blob)
        entries += [[blob[start + _HEADER.size:start + payload_at].hex(), number,
                     start + payload_at]
                    for start in range(0, len(blob) - record_len + 1, record_len)]
    body = {"format": "cati-window-cache-index/1", "model_key": namespace.name,
            "row_len": row_len, "segments": segments, "entries": entries}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    digest = sha256(canonical.encode("utf-8")).hexdigest()
    return f'{canonical[:-1]},"sha256":"{digest}"}}'.encode("utf-8")


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        store = make_store(tmp_path)
        pairs = rows(5)
        store.put_many(pairs)
        store.flush()
        got = store.get_many([raw for raw, _ in pairs])
        assert len(got) == 5
        for raw, row in pairs:
            np.testing.assert_array_equal(got[raw], row)
        store.close()

    def test_missing_keys_are_misses(self, tmp_path):
        store = make_store(tmp_path)
        store.put_many(rows(2))
        got = store.get_many([b"absent-key"])
        assert got == {}
        assert store.stats["misses"] == 1
        store.close()

    def test_rows_are_bit_identical(self, tmp_path):
        store = make_store(tmp_path)
        row = np.random.default_rng(7).random(ROW_LEN)
        store.put_many([(b"key", row)])
        got = store.get_many([b"key"])[b"key"]
        assert got.tobytes() == row.astype(np.float64).tobytes()
        store.close()

    def test_duplicate_puts_are_idempotent(self, tmp_path):
        store = make_store(tmp_path)
        pairs = rows(3)
        store.put_many(pairs)
        appended = store.stats["appends"]
        store.put_many(pairs)
        assert store.stats["appends"] == appended
        store.close()

    def test_wrong_row_width_rejected(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(ValueError, match="payload bytes"):
            store.put_many([(b"key", np.zeros(ROW_LEN + 1))])
        store.close()

    def test_rejected_put_stores_nothing(self, tmp_path):
        """A wrong-width row after good ones in one call writes no record,
        so the next append's bookkeeping still points at its own bytes."""
        store = make_store(tmp_path)
        with pytest.raises(ValueError, match="payload bytes"):
            store.put_many([*rows(2), (b"narrow", np.zeros(2))])
        assert len(store) == 0
        assert store.stats["appends"] == 0
        raw, row = rows(3, seed=1)[2]
        store.put_many([(raw, row)])
        assert store.get_many([raw])[raw].tobytes() == row.tobytes()
        assert store.stats["corrupt_records"] == 0
        store.close()


class TestPersistence:
    def test_survives_reopen(self, tmp_path):
        pairs = rows(8)
        with make_store(tmp_path) as store:
            store.put_many(pairs)
        reopened = make_store(tmp_path)
        got = reopened.get_many([raw for raw, _ in pairs])
        assert len(got) == 8
        assert reopened.stats["segments_scanned"] == 1
        reopened.close()

    def test_flushed_store_reopens_without_close(self, tmp_path):
        """A writer killed after flush() but before close() loses nothing."""
        closed, flushed = rows(4), rows(9)[4:]
        with make_store(tmp_path) as store:
            store.put_many(closed)
        writer = make_store(tmp_path)
        writer.put_many(flushed[:2])
        writer.flush()
        writer.put_many(flushed[2:])
        writer.flush()
        reopened = make_store(tmp_path)
        got = reopened.get_many([raw for raw, _ in closed + flushed])
        assert len(got) == len(closed + flushed)
        for raw, row in closed + flushed:
            assert got[raw].tobytes() == row.tobytes()
        reopened.close()
        writer.close()

    def test_earlier_index_is_ignored(self, tmp_path):
        """A namespace an earlier version left, ``index.json`` included,
        serves every row; the index is never read or rewritten."""
        pairs = rows(6)
        with make_store(tmp_path) as store:
            store.put_many(pairs[:4])
        index = store.directory / "index.json"
        index.write_bytes(earlier_index(store.directory))
        before = index.read_bytes()
        with make_store(tmp_path) as reopened:
            assert reopened.stats["segments_scanned"] == 1
            reopened.put_many(pairs[4:])
            got = reopened.get_many([raw for raw, _ in pairs])
        assert {raw: row.tobytes() for raw, row in got.items()} == \
               {raw: row.tobytes() for raw, row in pairs}
        assert index.read_bytes() == before

    def test_model_key_namespaces_are_isolated(self, tmp_path):
        pairs = rows(3)
        with make_store(tmp_path, key="model-a") as store:
            store.put_many(pairs)
        other = make_store(tmp_path, key="model-b")
        assert other.get_many([raw for raw, _ in pairs]) == {}
        other.close()


class TestCorruption:
    def test_flipped_byte_is_a_counted_miss(self, tmp_path):
        pairs = rows(6)
        with make_store(tmp_path) as store:
            store.put_many(pairs)
            directory = store.directory
        segment = next(directory.glob("seg-*.bin"))
        blob = bytearray(segment.read_bytes())
        # flip one payload byte of the third record
        record_len = _HEADER.size + _KEY_LEN + ROW_LEN * 8
        victim = 2 * record_len + _HEADER.size + _KEY_LEN + 5
        blob[victim] ^= 0xFF
        segment.write_bytes(blob)
        store = make_store(tmp_path)
        got = store.get_many([raw for raw, _ in pairs])
        # the damaged record is a miss (to be recomputed); others intact
        assert len(got) == 5
        assert pairs[2][0] not in got
        assert store.stats["corrupt_records"] == 1
        # the slot is recomputable: a fresh put serves again
        store.put_many([pairs[2]])
        assert len(store.get_many([pairs[2][0]])) == 1
        store.close()

    def test_flipped_key_byte_is_a_counted_miss(self, tmp_path):
        """The CRC covers the key: a damaged key is never adopted."""
        pairs = rows(6)
        with make_store(tmp_path) as store:
            store.put_many(pairs)
            directory = store.directory
        segment = next(directory.glob("seg-*.bin"))
        blob = bytearray(segment.read_bytes())
        record_len = _HEADER.size + _KEY_LEN + ROW_LEN * 8
        blob[2 * record_len + _HEADER.size + 5] ^= 0xFF
        segment.write_bytes(blob)
        store = make_store(tmp_path)
        assert len(store) == 5
        assert store.stats["corrupt_records"] == 1
        got = store.get_many([raw for raw, _ in pairs])
        assert pairs[2][0] not in got
        assert (store.stats["hits"], store.stats["misses"]) == (5, 1)
        store.close()

    def test_torn_tail_is_truncated_not_fatal(self, tmp_path):
        pairs = rows(3)
        with make_store(tmp_path) as store:
            store.put_many(pairs)
            directory = store.directory
        segment = next(directory.glob("seg-*.bin"))
        with open(segment, "ab") as handle:
            handle.write(b"\x01\x02\x03 torn half-record")
        store = make_store(tmp_path)
        assert len(store.get_many([raw for raw, _ in pairs])) == 3
        store.close()

    def test_vanished_segment_is_tolerated(self, tmp_path):
        pairs = rows(3)
        with make_store(tmp_path) as store:
            store.put_many(pairs)
            directory = store.directory
        next(directory.glob("seg-*.bin")).unlink()
        store = make_store(tmp_path)
        assert store.get_many([raw for raw, _ in pairs]) == {}
        store.close()


class TestEngineIntegration:
    def test_store_serves_after_lru_clear(self, tmp_path, mini_cati, demo_binary):
        from repro.codegen.strip import strip
        from repro.experiments.speed import extents_from_debug

        engine = mini_cati.engine
        stripped, extents = strip(demo_binary), extents_from_debug(demo_binary)
        store = make_store(tmp_path, key="mini")
        engine.attach_window_store(store)
        try:
            baseline = mini_cati.infer_binary(stripped, extents)
            assert store.stats["appends"] > 0
            engine.clear_cache()  # drop the in-memory LRU; keep the disk store
            engine.stats.reset()
            again = mini_cati.infer_binary(stripped, extents)
            assert engine.stats.store_hits > 0
            assert [(p.variable_id, p.predicted, p.scores.tobytes())
                    for p in baseline] == \
                   [(p.variable_id, p.predicted, p.scores.tobytes())
                    for p in again]
        finally:
            engine.attach_window_store(None)
            store.close()

    def test_refresh_detaches_store(self, tmp_path, mini_cati):
        engine = mini_cati.engine
        store = make_store(tmp_path, key="mini2")
        engine.attach_window_store(store)
        engine.refresh()
        assert engine.window_store is None
        store.close()
