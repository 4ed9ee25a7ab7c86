"""The multi-stage classifier (Fig. 5): six CNNs arranged in a tree.

Each stage is an independently trained CNN over the encoded VUC matrix.
A VUC's *leaf distribution* over the 19 types is the product of stage
confidences along each root-to-leaf path — the tree factorization of the
joint classifier.  Per-stage evaluation (Tables III/IV) routes samples by
their *ground-truth* parent decisions, exactly as the paper scores each
stage on the samples that truly belong to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import CatiConfig
from repro.core.types import ALL_TYPES, STAGE_SPECS, Stage, StageSpec, TypeName, stage_label, stage_path
from repro.core.voting import clip_confidences
from repro.nn.model import Sequential, build_cati_cnn
from repro.nn.optimizers import Adam


def compose_leaves(stage_probs: dict[Stage, np.ndarray]) -> np.ndarray:
    """[N, 19] leaf distribution from per-stage confidence matrices.

    Column order follows :data:`repro.core.types.ALL_TYPES`; raw path
    products are renormalized (paths have different lengths, so they are
    sub-stochastic) to keep eq. (3)'s threshold semantics meaningful at
    the leaf level.
    """
    n = len(next(iter(stage_probs.values())))
    out = np.zeros((n, len(ALL_TYPES)))
    for column, leaf in enumerate(ALL_TYPES):
        path = stage_path(leaf)
        factor = np.ones(n)
        for stage, label in path:
            spec = STAGE_SPECS[stage]
            factor = factor * stage_probs[stage][:, spec.label_index(label)]
        out[:, column] = factor
    totals = out.sum(axis=1, keepdims=True)
    return out / np.maximum(totals, 1e-12)


@dataclass
class StageModel:
    """One trained stage: its spec and CNN."""

    spec: StageSpec
    model: Sequential

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return self.model.predict_proba(x)


class MultiStageClassifier:
    """Six stage CNNs + tree composition over the 19 leaf types."""

    def __init__(self, config: CatiConfig) -> None:
        self.config = config
        self.stages: dict[Stage, StageModel] = {}

    # -- training -------------------------------------------------------------

    def train(self, x: np.ndarray, labels: list[TypeName], verbose: bool = False) -> None:
        """Train every stage on the samples routed to it by ground truth.

        ``x`` is the encoded [N, L, C] VUC tensor; ``labels`` the leaf
        types.  A stage with fewer than 2 distinct labels present falls
        back to a trivial constant model (can happen on tiny corpora).
        """
        for stage, spec in STAGE_SPECS.items():
            stage_y: list[int] = []
            stage_idx: list[int] = []
            for index, leaf in enumerate(labels):
                label = stage_label(leaf, stage)
                if label is not None:
                    stage_idx.append(index)
                    stage_y.append(spec.label_index(label))
            model = build_cati_cnn(
                input_length=x.shape[1],
                input_channels=x.shape[2],
                n_classes=len(spec.labels),
                conv_channels=self.config.conv_channels,
                fc_width=self.config.fc_width,
                dropout=self.config.dropout,
                seed=self.config.seed + sum(ord(c) for c in stage.value),
            )
            if stage_idx:
                sx = x[np.asarray(stage_idx)]
                sy = np.asarray(stage_y, dtype=np.int64)
                class_weights = None
                if self.config.class_weighting:
                    counts = np.bincount(sy, minlength=len(spec.labels)).astype(np.float64)
                    weights = 1.0 / np.sqrt(np.maximum(counts, 1.0))
                    class_weights = weights / weights.mean()
                if verbose:
                    print(f"[train] {stage.value}: {len(sy)} VUCs, {len(spec.labels)} classes")
                model.fit(
                    sx, sy,
                    epochs=self.config.epochs,
                    batch_size=self.config.batch_size,
                    optimizer=Adam(self.config.learning_rate),
                    class_weights=class_weights,
                    seed=self.config.seed,
                    verbose=verbose,
                )
            self.stages[stage] = StageModel(spec=spec, model=model)

    # -- prediction --------------------------------------------------------------

    def stage_proba(self, stage: Stage, x: np.ndarray) -> np.ndarray:
        """Stage-local confidence matrix [N, C_stage]."""
        return self.stages[stage].predict_proba(x)

    def leaf_proba(self, x: np.ndarray) -> np.ndarray:
        """[N, 19] leaf distribution: product of stage confidences."""
        return compose_leaves({stage: self.stage_proba(stage, x) for stage in self.stages})

    def predict_leaf(self, x: np.ndarray) -> list[TypeName]:
        """Hard 19-type prediction per VUC."""
        probs = self.leaf_proba(x)
        return [ALL_TYPES[i] for i in probs.argmax(axis=1)]

    def padded_output_heads(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """Final-layer weights stacked across stages, zero-padded on classes.

        The stage heads share their input width (``fc_width``) but output
        different class counts, so stacking them into one ``[S, F,
        C_max]`` batched-GEMM operand zero-pads the missing columns; a
        padded column contributes a constant 0 logit that callers slice
        off (``counts[s]``) before softmax.  Stage order matches
        iteration over ``self.stages`` — the same order the inference
        engine compiles its kernels in.
        """
        heads = [stage_model.model.layers[-1] for stage_model in self.stages.values()]
        widths = {head.weight.shape[0] for head in heads}
        if len(widths) != 1:
            raise ValueError(f"stage heads disagree on input width: {sorted(widths)}")
        counts = tuple(head.weight.shape[1] for head in heads)
        weight = np.zeros((len(heads), widths.pop(), max(counts)))
        bias = np.zeros((len(heads), 1, max(counts)))
        for index, head in enumerate(heads):
            weight[index, :, :counts[index]] = head.weight
            bias[index, 0, :counts[index]] = head.bias
        return weight, bias, counts

    def vote_variable(self, stage_probs: dict[Stage, np.ndarray],
                      indices: list[int], threshold: float = 0.9) -> TypeName:
        """Hierarchical per-variable decision (the paper's §V-B flow).

        At each stage, the variable's VUC confidences are clipped
        (eq. 3) and summed (eq. 4); the winning label routes to the next
        stage until a leaf is reached.  ``stage_probs`` maps each stage
        to its full [N, C] confidence matrix; ``indices`` selects the
        variable's VUC rows.

        Degenerate input is defined, never an IndexError: a variable
        with zero VUCs (``indices == []``) sums an empty matrix to the
        zero vector at every stage and deterministically routes down
        each stage's first label.
        """
        stage = Stage.STAGE1
        while True:
            spec = STAGE_SPECS[stage]
            matrix = stage_probs[stage][indices]
            totals = clip_confidences(matrix, threshold).sum(axis=0)
            label = spec.labels[int(totals.argmax())]
            next_stage = spec.routes[label]
            if next_stage is None:
                return next(t for t in ALL_TYPES if t.value == label)
            stage = next_stage

    # -- persistence ---------------------------------------------------------------

    def get_state(self) -> dict[str, dict[str, np.ndarray]]:
        """Per-stage weight dicts keyed by stage name (``"Stage1"``...).

        This is the classifier's contribution to a
        :class:`repro.core.artifacts.ModelBundle`.
        """
        return {stage.value: stage_model.model.get_state()
                for stage, stage_model in self.stages.items()}

    def load_state(self, states: dict[str, dict[str, np.ndarray]],
                   input_length: int, input_channels: int) -> None:
        """Restore all six stages from a :meth:`get_state` dict.

        Rebuilds each stage's architecture from the config and validates
        every array shape (``ValueError`` on any mismatch, nothing
        half-applied).
        """
        for stage, spec in STAGE_SPECS.items():
            if stage.value not in states:
                raise ValueError(f"classifier state lacks stage {stage.value!r}")
        fresh: dict[Stage, StageModel] = {}
        for stage, spec in STAGE_SPECS.items():
            model = build_cati_cnn(
                input_length=input_length,
                input_channels=input_channels,
                n_classes=len(spec.labels),
                conv_channels=self.config.conv_channels,
                fc_width=self.config.fc_width,
                dropout=self.config.dropout,
                seed=self.config.seed,
            )
            try:
                model.load_state(states[stage.value])
            except ValueError as error:
                raise ValueError(f"stage {stage.value}: {error}") from error
            fresh[stage] = StageModel(spec=spec, model=model)
        self.stages = fresh
