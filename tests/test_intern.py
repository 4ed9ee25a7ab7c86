"""Instruction-triple interning: one canonical object per distinct triple.

The intern table is process-wide shared state feeding the encoder's
``intern_id → vocab rows`` fast path and the serving wire decoder, so
these tests pin down the identity, consistency, and process-boundary
(pickle / fork) semantics everything else relies on.
"""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.vuc.intern import (
    InternedTokens,
    intern_count,
    intern_line,
    intern_tokens,
    interned_by_id,
)


class TestInternTable:
    def test_same_object_for_same_triple(self):
        a = intern_tokens(("mov", "reg", "mem"))
        b = intern_tokens(("mov", "reg", "mem"))
        assert a is b
        assert isinstance(a, InternedTokens)
        assert interned_by_id(a.intern_id) is a

    def test_equal_and_hash_compatible_with_plain_tuple(self):
        interned = intern_tokens(("add", "reg", "val"))
        plain = ("add", "reg", "val")
        assert interned == plain
        assert hash(interned) == hash(plain)
        assert interned in {plain}
        assert plain in {interned}

    def test_ids_are_dense_and_stable(self):
        before = intern_count()
        fresh = intern_tokens(("uniq-test", f"op-{before}", "x"))
        assert fresh.intern_id == before
        assert intern_count() == before + 1
        # Re-interning mints no new id.
        intern_tokens(("uniq-test", f"op-{before}", "x"))
        assert intern_count() == before + 1

    def test_line_memo_shares_triple_table(self):
        triple = intern_tokens(("cmp", "reg", "val"))
        assert intern_line("cmp\treg\tval") is triple
        assert intern_line("cmp\treg\tval") is triple  # memo hit

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError):
            intern_line("only-two\ttokens")

    def test_pickle_reinterns_to_same_object(self):
        original = intern_tokens(("xor", "reg", "reg"))
        clone = pickle.loads(pickle.dumps(original))
        assert clone is original
        assert clone.intern_id == original.intern_id


class TestForkConsistency:
    def test_forked_worker_sees_parent_ids(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork start method")
        parent = intern_tokens(("fork-test", "reg", "mem"))
        context = multiprocessing.get_context("fork")
        with context.Pool(1) as pool:
            child_id, child_new_id = pool.apply(_child_intern_ids)
        # Triples interned before the fork keep the parent's id in the
        # child; triples interned after the fork get fresh ids past the
        # inherited table.
        assert child_id == parent.intern_id
        assert child_new_id >= intern_count() - 1


def _child_intern_ids():
    inherited = intern_tokens(("fork-test", "reg", "mem"))
    fresh = intern_tokens(("fork-test-child-only", "reg", "mem"))
    return inherited.intern_id, fresh.intern_id


class TestPipelineIntegration:
    def test_generalize_returns_interned_triples(self, small_corpus):
        sample = next(iter(small_corpus.train))
        assert all(isinstance(triple, InternedTokens) for triple in sample.tokens)

    def test_encode_ids_matches_packed_stream(self, mini_cati, small_corpus):
        from repro.serve import protocol

        windows = [s.tokens for s in small_corpus.test.samples[:50]]
        encoder = mini_cati.encoder
        length = mini_cati.config.vuc_length
        via_tuples = encoder.encode_ids(windows, length=length)
        stream = protocol.stream_from_packed(
            protocol.pack_windows(windows), [f"v{i}" for i in range(len(windows))],
            mini_cati.config.window)
        via_stream = encoder.encode_stream(stream)
        assert via_stream.dtype == via_tuples.dtype
        assert np.array_equal(via_tuples, via_stream)

    def test_unpack_windows_round_trips_interned(self, small_corpus):
        from repro.serve import protocol

        windows = [s.tokens for s in small_corpus.test.samples[:10]]
        packed = protocol.pack_windows(windows)
        unpacked = protocol.unpack_windows(packed)
        assert [tuple(w) for w in unpacked] == [tuple(w) for w in windows]
        for window in unpacked:
            for triple in window:
                assert triple is intern_tokens(tuple(triple))

    def test_uninterned_tuples_still_encode(self, mini_cati, small_corpus):
        windows = [s.tokens for s in small_corpus.test.samples[:5]]
        plain = [tuple(tuple(t) for t in window) for window in windows]
        encoder = mini_cati.encoder
        length = mini_cati.config.vuc_length
        assert np.array_equal(
            encoder.encode_ids(windows, length=length),
            encoder.encode_ids(plain, length=length))
