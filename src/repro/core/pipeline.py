"""The CATI facade: train on a labeled corpus, infer on stripped binaries.

``Cati.train`` fits the Word2Vec embedding and the six stage CNNs;
``Cati.predict_*`` expose VUC- and variable-granularity predictions; and
``Cati.infer_binary`` runs the full §V-B pipeline on a stripped binary:
disassemble → locate → extract VUCs → generalize → embed → classify →
vote.

The ``predict_*`` methods are the naive float64 reference path; the
deployment hot paths (``infer_binary`` and everything reachable through
:attr:`Cati.engine`) run on the batched, dedup-aware
:class:`repro.core.engine.InferenceEngine`, whose outputs are
equivalence-tested against the reference to ≤1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.artifacts import ModelBundle, provenance_from_training

from repro.codegen.binary import Binary
from repro.core.classifier import MultiStageClassifier
from repro.core.config import CatiConfig
from repro.core.types import ALL_TYPES, TypeName
from repro.core.voting import clip_confidences, observe_clipping, observe_votes, vote_margins
from repro.embedding.encoder import VucEncoder
from repro.embedding.vocab import Vocab
from repro.embedding.word2vec import Word2Vec
from repro.vuc.dataflow import VariableExtent
from repro.vuc.dataset import VucDataset
from repro.vuc.generalize import Tokens

if TYPE_CHECKING:
    from repro.core.engine import InferenceEngine, InferenceResult
    from repro.core.errors import FailureReport


@dataclass
class VariablePrediction:
    """One inferred variable: its id, winning type and vote detail."""

    variable_id: str
    predicted: TypeName
    n_vucs: int
    scores: np.ndarray  # summed clipped confidences per leaf type


def predictions_from_probs(
    probs: np.ndarray,
    variable_ids: list[str],
    threshold: float,
    metrics: bool = False,
    vote_detail: bool = True,
) -> list[VariablePrediction]:
    """Vote per variable over a flat [N, 19] leaf confidence matrix (eqs. 3-4).

    Shared by the naive path and the engine's ``Analysis`` so both produce
    identical grouping order and identical summation order.  ``winner``
    is the argmax of the summed clipped scores, which is exactly
    eq. (4)'s :func:`~repro.core.voting.vote` over the same matrix.

    With ``metrics`` (callers pass ``CatiConfig.metrics_enabled``), clip
    counts and per-variable vote margins are recorded into the global
    registry; ``vote_detail`` adds the per-winning-leaf-type margin
    histograms.
    """
    n = len(variable_ids)
    group_of: dict[str, int] = {}
    gid = np.empty(n, dtype=np.int64)
    for index, variable_id in enumerate(variable_ids):
        gid[index] = group_of.setdefault(variable_id, len(group_of))
    if metrics:
        observe_clipping(probs, threshold)
    if not group_of:
        return []
    # One clip + one grouped reduction over the whole matrix instead of a
    # per-variable fancy-index/sum loop.  Extraction emits each
    # variable's VUCs contiguously, so the stable sort is usually a no-op
    # and reduceat sums each variable's rows in their original order.
    clipped = clip_confidences(probs, threshold)
    if np.all(gid[:-1] <= gid[1:]):
        ordered, sorted_gid = clipped, gid
    else:
        order = np.argsort(gid, kind="stable")
        ordered, sorted_gid = clipped[order], gid[order]
    starts = np.searchsorted(sorted_gid, np.arange(len(group_of)))
    scores = np.add.reduceat(ordered, starts, axis=0)
    counts = np.bincount(gid, minlength=len(group_of))
    winners = scores.argmax(axis=1)
    out = [
        VariablePrediction(
            variable_id=variable_id,
            predicted=ALL_TYPES[winners[g]],
            n_vucs=int(counts[g]),
            scores=scores[g],
        )
        for variable_id, g in group_of.items()
    ]
    if metrics:
        margins = vote_margins([p.scores for p in out])
        observe_votes(winners.tolist(), margins, counts.tolist(),
                      detail=vote_detail)
    return out


class Cati:
    """The end-to-end system of the paper."""

    def __init__(self, config: CatiConfig | None = None) -> None:
        self.config = config or CatiConfig()
        self.embedding: Word2Vec | None = None
        self.encoder: VucEncoder | None = None
        self.classifier = MultiStageClassifier(self.config)
        self._engine: InferenceEngine | None = None
        #: Train provenance stamped into saved bundles (who/when/on what).
        self.provenance: dict = {}
        #: True when :meth:`load` actually memory-mapped the payloads.
        self.mmap_active: bool = False

    # -- training ------------------------------------------------------------------

    def train(self, dataset: VucDataset, verbose: bool = False) -> "Cati":
        """Fit embedding + stage CNNs on a labeled VUC corpus."""
        if len(dataset) == 0:
            raise ValueError("cannot train on an empty dataset")
        sequences = [self._flatten(sample.tokens) for sample in dataset]
        vocab = Vocab.build(sequences, min_count=self.config.min_token_count)
        if verbose:
            print(f"[train] vocabulary: {len(vocab)} tokens over {len(sequences)} VUCs")
        self.embedding = Word2Vec(vocab, self.config.word2vec).train(sequences)
        self.encoder = VucEncoder(self.embedding)
        self._engine = None
        self.provenance = provenance_from_training(len(dataset), len(vocab))
        x = self.encoder.encode_batch([sample.tokens for sample in dataset])
        labels = [sample.label for sample in dataset]
        self.classifier.train(x, labels, verbose=verbose)
        return self

    @staticmethod
    def _flatten(tokens: tuple[Tokens, ...]) -> list[str]:
        return [token for triple in tokens for token in triple]

    def _require_trained(self) -> VucEncoder:
        if self.encoder is None or self.embedding is None:
            raise RuntimeError("Cati is not trained; call train() or load() first")
        return self.encoder

    @property
    def engine(self) -> "InferenceEngine":
        """The batched, dedup-aware inference engine over this model."""
        from repro.core.engine import InferenceEngine

        if self._engine is None:
            self._engine = InferenceEngine(
                self.classifier, self._require_trained(), self.config,
            )
        return self._engine

    # -- VUC-level prediction ----------------------------------------------------------

    def encode(self, windows: list[tuple[Tokens, ...]]) -> np.ndarray:
        return self._require_trained().encode_batch(windows, length=self.config.vuc_length)

    def predict_vuc_proba(self, windows: list[tuple[Tokens, ...]]) -> np.ndarray:
        """[N, 19] leaf confidence matrix for generalized VUC windows."""
        return self.classifier.leaf_proba(self.encode(windows))

    def predict_vucs(self, windows: list[tuple[Tokens, ...]]) -> list[TypeName]:
        probs = self.predict_vuc_proba(windows)
        return [ALL_TYPES[i] for i in probs.argmax(axis=1)]

    # -- variable-level prediction (voting) -----------------------------------------------

    def predict_variables(
        self,
        windows: list[tuple[Tokens, ...]],
        variable_ids: list[str],
    ) -> list[VariablePrediction]:
        """Vote per variable over its VUCs' leaf confidences (eqs. 3-4)."""
        if len(windows) != len(variable_ids):
            raise ValueError("windows and variable_ids must align")
        probs = self.predict_vuc_proba(windows)
        return predictions_from_probs(
            probs, variable_ids, self.config.confidence_threshold,
            metrics=self.config.metrics_enabled,
            vote_detail=self.config.metrics_vote_detail)

    # -- whole-binary inference --------------------------------------------------------------

    def infer_binary(
        self,
        stripped: Binary,
        extents_by_function: list[list[VariableExtent]],
        on_error: str = "raise",
        failures: "FailureReport | None" = None,
        structs: bool = False,
    ) -> "InferenceResult":
        """Full pipeline on a stripped binary with given variable locations.

        This is the deployment path of Fig. 3(e-f): takes ~the paper's
        "6 seconds per binary" stages (extraction + prediction + voting),
        and runs on the dedup-aware engine.

        ``on_error="skip"`` degrades per function instead of dying on
        the first undecodable one: the returned
        :class:`~repro.core.engine.InferenceResult` (a ``list`` of
        :class:`VariablePrediction`) carries a machine-readable
        ``failures`` report of everything skipped, plus a ``metrics``
        snapshot when ``CatiConfig.metrics_enabled``.

        ``structs=True`` also runs the posterior struct-recovery stage
        and attaches recovered layouts to the result (see
        :mod:`repro.posterior`).
        """
        self._require_trained()
        return self.engine.infer_binary(
            stripped, extents_by_function, on_error=on_error, failures=failures,
            structs=structs)

    # -- persistence ------------------------------------------------------------------------------

    def save(self, directory: str) -> "ModelBundle":
        """Write a versioned, checksummed model bundle (atomic).

        The bundle's ``manifest.json`` freezes this Cati's full config,
        vocab size, per-file SHA-256 checksums, tensor shapes and train
        provenance; see :mod:`repro.core.artifacts`.
        """
        self._require_trained()
        assert self.embedding is not None  # narrowed by _require_trained
        return ModelBundle.save(
            directory,
            config=self.config,
            embedding=self.embedding,
            classifier=self.classifier,
            provenance=self.provenance,
        )

    @classmethod
    def load(cls, directory: str, config: CatiConfig | None = None,
             warm_start: bool = False, *, mmap: bool = False) -> "Cati":
        """Load a saved model bundle, restoring its saved config.

        The manifest's config snapshot is authoritative: with
        ``config=None`` it is restored verbatim, and an explicit
        ``config`` whose structural fields disagree raises
        :class:`~repro.core.errors.ConfigMismatchError` naming each
        mismatched field (see
        :data:`repro.core.artifacts.STRUCTURAL_FIELDS`).  Every payload
        is checksum-verified before its arrays are trusted.  A directory
        without a ``manifest.json`` raises
        :class:`~repro.core.errors.BundleSchemaError`.

        ``warm_start=True`` additionally compiles the inference
        engine's float32 kernels now, so the first ``infer_binary``
        call does not pay the compile latency.

        ``mmap=True`` loads bundle payloads through the shared ``.npy``
        mirror (:meth:`ModelBundle.load_shared`), keeping the embedding
        table a read-only memory map so N serving workers share one
        physical copy (:attr:`mmap_active` records it).
        """
        bundle = ModelBundle.open(directory)
        resolved = bundle.resolve_config(config)
        cati = cls(resolved)
        cati.embedding = bundle.load_embedding(mmap=mmap)
        cati.encoder = VucEncoder(cati.embedding)
        cati.classifier.load_state(
            bundle.load_classifier_state(mmap=mmap),
            input_length=resolved.vuc_length,
            input_channels=resolved.instruction_dim,
        )
        cati.provenance = dict(bundle.manifest.get("provenance") or {})
        cati.mmap_active = mmap
        if warm_start:
            cati.engine.warm_start()
        return cati
