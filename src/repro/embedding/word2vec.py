"""Word2Vec — skip-gram with negative sampling, in numpy.

Implements the paper's embedding stage (§IV-C, eq. 1): maximize
``log P(Ins_{t+j} | Ins_t)`` over a +-m window (m=5) of the generalized
token stream, with the standard SGNS approximation of the softmax.  The
output dimension is 32 per token, matching CATI.

The trainer is fully vectorized: one SGD step processes a minibatch of
(center, positive, negatives) triples with `np.add.at` scatter updates
on the flattened tables (:func:`scatter_add_rows`), which keeps a full
training run on a corpus of a few million tokens in the tens of seconds
on one CPU core.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.embedding.vocab import Vocab


@dataclass
class Word2VecConfig:
    """SGNS hyperparameters; defaults follow the paper where stated."""

    dim: int = 32               # embedding length per token (§IV-C)
    window: int = 5             # maximum distance m in eq. (1)
    negatives: int = 5
    epochs: int = 3
    learning_rate: float = 0.025
    min_learning_rate: float = 0.002
    batch_size: int = 1024
    subsample_pairs: float = 1.0   # keep this fraction of (center,ctx) pairs
    subsample_threshold: float = 1e-3  # frequent-token downsampling (t)
    seed: int = 13


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def scatter_add_rows(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """In-place ``np.add.at(table, rows, values)`` for a 2-D ``table``.

    Scatters through the flattened table at ``row * dim + col``: numpy's
    ``add.at`` has a fast path for a 1-D operand with a 1-D index, and
    the flat form adds to each element in the same order as the 2-D
    form (row ``i`` of ``values`` before row ``i + 1``), so the result
    is bit-identical.  The table must be C-contiguous; reshaping any
    other layout returns a copy, and the update would be silently lost.
    """
    if table.ndim != 2 or not table.flags.c_contiguous:
        raise ValueError("scatter_add_rows needs a C-contiguous 2-D table")
    dim = table.shape[1]
    index = (rows[:, None] * dim + np.arange(dim)).reshape(-1)
    np.add.at(table.reshape(-1), index, values.reshape(-1))


class Word2Vec:
    """Trained token embeddings with a gensim-like lookup interface."""

    def __init__(self, vocab: Vocab, config: Word2VecConfig | None = None) -> None:
        self.vocab = vocab
        self.config = config or Word2VecConfig()
        rng = np.random.default_rng(self.config.seed)
        scale = 0.5 / self.config.dim
        self.vectors = rng.uniform(-scale, scale, (len(vocab), self.config.dim)).astype(np.float32)
        self.context_vectors = np.zeros_like(self.vectors)
        self._trained = False

    # -- training ----------------------------------------------------------------

    def _make_pairs(self, sequences: Sequence[np.ndarray], rng: np.random.Generator) -> np.ndarray:
        """Collect (center, context) id pairs over all sequences."""
        pairs: list[np.ndarray] = []
        window = self.config.window
        for ids in sequences:
            n = len(ids)
            if n < 2:
                continue
            for offset in range(1, window + 1):
                if offset >= n:
                    break
                left = ids[:-offset]
                right = ids[offset:]
                pairs.append(np.stack([left, right], axis=1))
                pairs.append(np.stack([right, left], axis=1))
        if not pairs:
            return np.zeros((0, 2), dtype=np.int64)
        all_pairs = np.concatenate(pairs).astype(np.int64)
        if self.config.subsample_pairs < 1.0:
            keep = rng.random(len(all_pairs)) < self.config.subsample_pairs
            all_pairs = all_pairs[keep]
        return all_pairs

    def _keep_probs(self) -> np.ndarray:
        """Mikolov-style frequent-token downsampling probabilities.

        Without this, ultra-frequent tokens (BLANK, $IMM) dominate every
        batch and the summed scatter updates diverge.
        """
        t = self.config.subsample_threshold
        freqs = self.vocab.counts / max(self.vocab.counts.sum(), 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            keep = np.sqrt(t / np.maximum(freqs, 1e-12)) + t / np.maximum(freqs, 1e-12)
        return np.clip(keep, 0.0, 1.0)

    def train(self, sequences: Iterable[Sequence[str]]) -> "Word2Vec":
        """Train embeddings on token sequences (one sequence per VUC)."""
        rng = np.random.default_rng(self.config.seed)
        keep_probs = self._keep_probs()
        encoded = []
        for seq in sequences:
            ids = self.vocab.encode(seq)
            kept = ids[rng.random(len(ids)) < keep_probs[ids]]
            if len(kept) >= 2:
                encoded.append(kept)
        pairs = self._make_pairs(encoded, rng)
        if len(pairs) == 0:
            self._trained = True
            return self
        noise = self.vocab.unigram_table()
        vocab_size = len(self.vocab)
        total_steps = max(1, self.config.epochs * (len(pairs) // self.config.batch_size + 1))
        step = 0
        for _epoch in range(self.config.epochs):
            order = rng.permutation(len(pairs))
            for start in range(0, len(pairs), self.config.batch_size):
                batch = pairs[order[start:start + self.config.batch_size]]
                if len(batch) == 0:
                    continue
                lr = max(
                    self.config.min_learning_rate,
                    self.config.learning_rate * (1.0 - step / total_steps),
                )
                self._sgd_step(batch, noise, vocab_size, lr, rng)
                step += 1
        self._trained = True
        return self

    def _sgd_step(self, batch: np.ndarray, noise: np.ndarray, vocab_size: int,
                  lr: float, rng: np.random.Generator) -> None:
        centers = batch[:, 0]
        positives = batch[:, 1]
        k = self.config.negatives
        negatives = rng.choice(vocab_size, size=(len(batch), k), p=noise)

        v_center = self.vectors[centers]                          # [B, D]
        v_pos = self.context_vectors[positives]                   # [B, D]
        v_neg = self.context_vectors[negatives]                   # [B, K, D]

        pos_score = _sigmoid(np.einsum("bd,bd->b", v_center, v_pos))
        neg_score = _sigmoid(np.einsum("bkd,bd->bk", v_neg, v_center))

        grad_pos = (pos_score - 1.0)[:, None]                     # [B, 1]
        grad_neg = neg_score[:, :, None]                          # [B, K, 1]

        grad_center = grad_pos * v_pos + np.einsum("bkd,bk->bd", v_neg, neg_score)
        grad_v_pos = grad_pos * v_center
        grad_v_neg = grad_neg * v_center[:, None, :]

        scatter_add_rows(self.vectors, centers, (-lr * grad_center).astype(np.float32))
        scatter_add_rows(self.context_vectors, positives, (-lr * grad_v_pos).astype(np.float32))
        scatter_add_rows(
            self.context_vectors,
            negatives.reshape(-1),
            (-lr * grad_v_neg).reshape(-1, self.config.dim).astype(np.float32),
        )

    # -- lookup --------------------------------------------------------------------

    def __getitem__(self, token: str) -> np.ndarray:
        return self.vectors[self.vocab.id_of(token)]

    def embed_ids(self, ids: np.ndarray) -> np.ndarray:
        return self.vectors[ids]

    # -- persistence -----------------------------------------------------------------

    def get_state(self) -> dict[str, np.ndarray]:
        """Serializable array dict: vectors, vocab tokens/counts, dim.

        Consumed by :class:`repro.core.artifacts.ModelBundle`.
        """
        tokens = list(self.vocab.token_to_id)
        return {
            "vectors": self.vectors,
            "context_vectors": self.context_vectors,
            "tokens": np.asarray(tokens, dtype=object),
            "counts": self.vocab.counts,
            "dim": np.asarray(self.config.dim),
        }

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "Word2Vec":
        """Rebuild a trained embedding from a :meth:`get_state` dict."""
        for key in ("vectors", "context_vectors", "tokens", "counts", "dim"):
            if key not in state:
                raise ValueError(f"embedding state lacks array {key!r}")
        vocab = Vocab(
            token_to_id={str(t): i for i, t in enumerate(state["tokens"])},
            counts=np.asarray(state["counts"]),
        )
        model = cls(vocab, Word2VecConfig(dim=int(state["dim"])))
        vectors = np.asarray(state["vectors"])
        context_vectors = np.asarray(state["context_vectors"])
        expected = (len(vocab), model.config.dim)
        if vectors.shape != expected or context_vectors.shape != expected:
            raise ValueError(
                f"embedding arrays have shapes {vectors.shape}/"
                f"{context_vectors.shape}, vocabulary expects {expected}")
        model.vectors = vectors
        model.context_vectors = context_vectors
        model._trained = True
        return model
