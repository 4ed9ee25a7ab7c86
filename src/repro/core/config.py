"""Configuration for the CATI pipeline.

Defaults follow the paper where it states values (window 10, token dim
32, confidence threshold 0.9, 2-layer 32-64 CNN); training-scale knobs
(epochs, FC width, corpus size) default to laptop scale.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field

from repro.embedding.word2vec import Word2VecConfig

logger = logging.getLogger(__name__)

#: Fields earlier versions wrote into ``manifest.json`` / ``job.json``
#: that no longer exist.  :meth:`CatiConfig.from_dict` drops them (with
#: one logged note) so artifacts written before their removal still load.
RETIRED_FIELDS = ("n_workers", "job_timeout", "quantize_embeddings",
                  "tool_timeout", "tool_retries", "posterior_enabled",
                  "max_batch", "dedup_cache_size", "metrics_enabled",
                  "serve_max_batch", "serve_max_delay_ms", "serve_workers",
                  "posterior_min_accesses", "session_ttl_s", "session_max_bytes")


@dataclass
class CatiConfig:
    """The trained model's knobs, frozen into each bundle's ``manifest.json``.

    Serving and session settings are keyword arguments of the objects
    that use them (``ServeDaemon``, ``SessionStore``, ...).
    """

    window: int = 10                   # w: instructions before/after target
    token_dim: int = 32                # Word2Vec embedding length (§IV-C)
    confidence_threshold: float = 0.9  # eq. (3) clipping threshold
    conv_channels: tuple[int, int] = (32, 64)
    fc_width: int = 128                # paper: 1024 at 22M-VUC scale
    dropout: float = 0.3
    epochs: int = 12
    batch_size: int = 64
    learning_rate: float = 1e-3
    class_weighting: bool = True       # sqrt-inverse-frequency loss weights
    min_token_count: int = 2
    seed: int = 0
    metrics_vote_detail: bool = True   # observability: per-leaf-type vote-margin histograms
    word2vec: Word2VecConfig = field(default_factory=lambda: Word2VecConfig(
        dim=32, window=5, epochs=2, subsample_pairs=0.5,
    ))

    def __post_init__(self) -> None:
        if self.window < 0:
            # window 0 = no context (the bare target instruction); used by
            # the window-size ablation as the no-context baseline.
            raise ValueError("window must be >= 0")
        if not 0.0 < self.confidence_threshold <= 1.0:
            raise ValueError("confidence threshold must be in (0, 1]")
        self.word2vec.dim = self.token_dim

    def to_dict(self) -> dict:
        """JSON-ready snapshot of every knob (nested word2vec included).

        The exact inverse of :meth:`from_dict`; this is what
        :class:`repro.core.artifacts.ModelBundle` freezes into
        ``manifest.json`` so a load can restore the training-time
        configuration instead of trusting the caller's.
        """
        data = dataclasses.asdict(self)
        data["conv_channels"] = list(self.conv_channels)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CatiConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown fields raise ``ValueError`` — a manifest written by a
        newer code version must not be silently half-applied.  The one
        exception is :data:`RETIRED_FIELDS`, which are dropped with a
        logged note.
        """
        data = dict(data)
        retired = [name for name in RETIRED_FIELDS if name in data]
        if retired:
            for name in retired:
                del data[name]
            logger.info("ignoring retired CatiConfig fields: %s", ", ".join(retired))
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown CatiConfig fields: {', '.join(unknown)}")
        word2vec = data.get("word2vec")
        if isinstance(word2vec, dict):
            w2v_known = {f.name for f in dataclasses.fields(Word2VecConfig)}
            w2v_unknown = sorted(set(word2vec) - w2v_known)
            if w2v_unknown:
                raise ValueError(
                    f"unknown Word2VecConfig fields: {', '.join(w2v_unknown)}")
            data["word2vec"] = Word2VecConfig(**word2vec)
        if "conv_channels" in data:
            data["conv_channels"] = tuple(data["conv_channels"])
        return cls(**data)

    @property
    def vuc_length(self) -> int:
        """Instructions per VUC: 2w + 1 (= 21 at the paper's w=10)."""
        return 2 * self.window + 1

    @property
    def instruction_dim(self) -> int:
        """Embedded instruction width: 3 tokens x token_dim (= 96)."""
        return 3 * self.token_dim
