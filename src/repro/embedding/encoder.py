"""VUC → matrix encoding (§IV-C / Fig. 3c).

Each instruction is three tokens (mnemonic, op1, op2); each token embeds
to a 32-dim vector; the instruction is their concatenation (96 dims);
the VUC is the stacked ``[21, 96]`` float32 matrix the CNN consumes.

Triples arrive *interned* (:mod:`repro.vuc.intern`): generalization
assigns every distinct triple a dense per-process ``intern_id`` at
parse time, so the encoder's hot path is one C-level attribute gather
plus one table lookup — no string hashing, no per-encoder triple memo.
The only per-encoder state is the flat ``intern_id → vocabulary
id-triple`` array, grown in id order as new triples appear.
``encode_ids`` exposes the ``[N, L, 3]`` token-id tensor the inference
engine uses for content-hash deduplication without materializing
embeddings; ``encode_stream`` builds the same tensor from a
:class:`~repro.vuc.stream.VucStream`, encoding each stream slot once
and gathering windows by center offset.  Every serving job and session
carries a stream, so ``encode_stream`` is the only encoder the serving
layer calls.
"""

from __future__ import annotations

import operator
import threading
from collections.abc import Sequence

import numpy as np

from repro.embedding.word2vec import Word2Vec
from repro.vuc.generalize import Tokens
from repro.vuc.intern import intern_tokens, interned_by_id
from repro.vuc.stream import VucStream

_intern_id_of = operator.attrgetter("intern_id")


class VucEncoder:
    """Encode generalized VUC token windows into CNN input tensors."""

    def __init__(self, embedding: Word2Vec) -> None:
        self.embedding = embedding
        #: intern_id → (id(mnemonic), id(op1), id(op2)); rows [0, _resolved)
        #: are valid.  Resolved in intern-id order so the freshness check
        #: on the hot path is a single integer compare.
        self._vocab_rows: np.ndarray = np.empty((0, 3), dtype=np.int32)
        self._resolved = 0
        # Serve handler threads encode concurrently; growth replaces the
        # array atomically under the lock, readers never see a partial row.
        self._memo_lock = threading.Lock()

    @property
    def token_dim(self) -> int:
        return self.embedding.config.dim

    @property
    def instruction_dim(self) -> int:
        return 3 * self.token_dim

    # -- intern_id plumbing ------------------------------------------------------

    def _intern_ids(self, flat: list) -> np.ndarray:
        """[len(flat)] intern ids; tolerates uninterned plain tuples."""
        try:
            return np.fromiter(map(_intern_id_of, flat), dtype=np.int64,
                               count=len(flat))
        except AttributeError:
            # External callers (tests, wire decoders that predate
            # interning) may pass plain tuples; intern them on the fly.
            return np.fromiter(
                (intern_tokens(triple).intern_id for triple in flat),
                dtype=np.int64, count=len(flat))

    def _rows_for(self, idx: np.ndarray) -> np.ndarray:
        """The vocab-row table covering every intern id in ``idx``."""
        top = int(idx.max()) + 1 if len(idx) else 0
        if top <= self._resolved:
            return self._vocab_rows
        with self._memo_lock:
            start = self._resolved
            if top > start:
                lookup = self.embedding.vocab.id_of
                fresh = np.empty((top - start, 3), dtype=np.int32)
                for intern_id in range(start, top):
                    triple = interned_by_id(intern_id)
                    fresh[intern_id - start] = (
                        lookup(triple[0]), lookup(triple[1]), lookup(triple[2]))
                self._vocab_rows = np.concatenate([self._vocab_rows[:start], fresh])
                self._resolved = top
            return self._vocab_rows

    # -- encoding ----------------------------------------------------------------

    def encode_ids(
        self,
        windows: Sequence[Sequence[Tokens]],
        length: int | None = None,
    ) -> np.ndarray:
        """Many VUCs → [N, L, 3] int32 token-id tensor.

        ``length`` fixes L for empty batches (otherwise inferred from the
        first window); all windows must share the same length.
        """
        if not windows:
            return np.zeros((0, length or 0, 3), dtype=np.int32)
        n = len(windows)
        inferred = len(windows[0])
        flat = [triple for window in windows for triple in window]
        if len(flat) != n * inferred:
            raise ValueError("all windows must share the same length")
        idx = self._intern_ids(flat)
        return self._rows_for(idx)[idx].reshape(n, inferred, 3)

    def encode_stream(self, stream: VucStream) -> np.ndarray:
        """A binary's token stream → [N, 2w+1, 3] int32 ids of its windows.

        Encodes each stream slot once and gathers every window
        ``tokens[c-w : c+w+1]`` by its center ``c``; the result equals
        :meth:`encode_ids` over ``stream.windows()``, bit for bit.
        """
        window = stream.window
        if not len(stream):
            return np.zeros((0, 2 * window + 1, 3), dtype=np.int32)
        idx = self._intern_ids(stream.tokens)
        rows = self._rows_for(idx)[idx]
        offsets = np.arange(-window, window + 1)
        return rows[np.asarray(stream.centers)[:, None] + offsets]

    def encode_batch(
        self,
        windows: Sequence[Sequence[Tokens]],
        length: int | None = None,
    ) -> np.ndarray:
        """Many VUCs → [N, L, 3*dim] tensor (all windows must share L).

        ``length`` threads the window length through so empty batches
        keep the [0, L, C] shape downstream ``x.shape[1]`` consumers
        expect.
        """
        if not windows:
            return np.zeros((0, length or 0, self.instruction_dim), dtype=np.float32)
        ids = self.encode_ids(windows, length=length)
        n, win_len, _ = ids.shape
        vectors = self.embedding.embed_ids(ids.reshape(-1))
        return vectors.reshape(n, win_len, self.instruction_dim).astype(np.float32)
