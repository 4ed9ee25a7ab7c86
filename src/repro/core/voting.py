"""Confidence-based voting (§V-B, eqs. 3-4).

A variable's final type is decided from all of its VUCs' confidence
vectors: confidences at or above the threshold (0.9) are clipped up to
1.0 so confident votes dominate (eq. 3), then the per-class sums are
taken and the argmax wins (eq. 4).

Observability: :func:`observe_clipping` counts how many confidences
eq. (3) actually clipped and :func:`observe_votes` records each decided
vote's margin (winner minus runner-up of the summed clipped scores)
overall and per winning leaf type — the per-type margin distribution is
where low-confidence type families (e.g. Stage 2-1's pointer subkinds)
show up in a metrics dump.  Both no-op when the global registry is
disabled, and callers on the hot path skip them then.
:func:`observe_votes` takes the whole batch at once so per-variable
cost is a list append, not a lock round-trip.
"""

from __future__ import annotations

import numpy as np

from repro.core import observability
from repro.core.errors import InferenceError
from repro.core.observability import MARGIN_BUCKETS
from repro.core.types import ALL_TYPES

#: The paper's empirically chosen threshold.
DEFAULT_THRESHOLD = 0.9


def clip_confidences(probs: np.ndarray, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Eq. (3): Z'_ij = 1.0 where Z_ij >= threshold, else Z_ij."""
    clipped = probs.copy()
    clipped[clipped >= threshold] = 1.0
    return clipped


def vote(probs: np.ndarray, threshold: float = DEFAULT_THRESHOLD) -> int:
    """Eq. (4): final class for one variable from its [N, C] VUC matrix.

    An empty or mis-shaped matrix raises a typed
    :class:`~repro.core.errors.InferenceError` (a ``ValueError``
    subclass) — a variable with zero VUCs has no defined vote.
    """
    probs = np.asarray(probs)
    if probs.ndim != 2 or len(probs) == 0:
        raise InferenceError(
            "vote needs a non-empty [N, C] confidence matrix "
            f"(got shape {probs.shape})", stage="vote")
    totals = clip_confidences(probs, threshold).sum(axis=0)
    return int(totals.argmax())


def vote_scores(probs: np.ndarray, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """The summed clipped confidences per class (for inspection)."""
    return clip_confidences(probs, threshold).sum(axis=0)


def observe_clipping(probs: np.ndarray, threshold: float = DEFAULT_THRESHOLD) -> None:
    """Count how many VUC confidences eq. (3) clips to 1.0.

    Emits ``vote.confidences`` (entries seen) and
    ``vote.clipped_confidences`` (entries at/above the threshold); their
    ratio is the clip rate an operator reads off a metrics dump.
    """
    registry = observability.get_registry()
    if not registry.enabled or probs.size == 0:
        return
    registry.inc("vote.confidences", int(probs.size))
    registry.inc("vote.clipped_confidences", int(np.count_nonzero(probs >= threshold)))


def vote_margins(score_rows: list[np.ndarray]) -> list[float]:
    """Winner-minus-runner-up gap per summed clipped score vector.

    One vectorized partition over the stacked ``[V, C]`` matrix: the
    top partition entry is each row's winning score, the next one the
    runner-up (equal on ties -> margin 0).
    """
    if not score_rows:
        return []
    matrix = np.stack(score_rows)
    if matrix.shape[1] < 2:
        return matrix[:, 0].tolist()
    top2 = np.partition(matrix, -2, axis=1)
    return (top2[:, -1] - top2[:, -2]).tolist()


def observe_votes(winners: list[int], margins: list[float],
                  vuc_counts: list[int], detail: bool = True) -> None:
    """Record a batch of decided votes: margin histograms + vote counters.

    ``winners``/``margins``/``vuc_counts`` align per decided variable
    (see :func:`vote_margin`).  Margins land in the ``vote.margin``
    histogram and, with ``detail``, in per-winning-type
    ``vote.margin.<leaf>`` histograms; ``vote.vucs_per_variable`` tracks
    how much evidence each variable had.
    """
    registry = observability.get_registry()
    if not registry.enabled or not winners:
        return
    registry.inc("vote.variables", len(winners))
    registry.observe_many("vote.vucs_per_variable", vuc_counts,
                          observability.SIZE_BUCKETS)
    registry.observe_many("vote.margin", margins, MARGIN_BUCKETS)
    if detail:
        by_leaf: dict[int, list[float]] = {}
        for winner, margin in zip(winners, margins):
            by_leaf.setdefault(winner, []).append(margin)
        for winner, leaf_margins in by_leaf.items():
            leaf = ALL_TYPES[winner].value.replace(" ", "_")
            registry.observe_many(f"vote.margin.{leaf}", leaf_margins, MARGIN_BUCKETS)


def vote_many(
    probs: np.ndarray,
    variable_ids: list[str],
    threshold: float = DEFAULT_THRESHOLD,
) -> dict[str, int]:
    """Vote per variable over a flat VUC confidence matrix.

    ``variable_ids[i]`` names the variable VUC ``i`` belongs to; returns
    the winning class index per variable id.
    """
    if len(probs) != len(variable_ids):
        raise InferenceError("probs and variable_ids must align", stage="vote")
    groups: dict[str, list[int]] = {}
    for index, variable_id in enumerate(variable_ids):
        groups.setdefault(variable_id, []).append(index)
    return {
        variable_id: vote(probs[indices], threshold)
        for variable_id, indices in groups.items()
    }
