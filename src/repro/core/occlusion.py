"""Occlusion importance ε (§VII-B, eq. 5, Fig. 6).

For a VUC and a trained model, ε_k is the ratio of the predicted class's
confidence after BLANKing instruction k to the unoccluded confidence.
ε < 1 means the instruction supported the prediction; the paper's Fig. 6
shows central/target instructions have the smallest ε and importance
decays with distance.

``occlusion_epsilons`` is the naive per-window reference (L+1 separate
forward passes); ``occlusion_epsilons_many`` and ``epsilon_distribution``
run on the batched, dedup-aware engine, which materializes every
occluded variant in one id tensor and shares all untouched contexts with
the base window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import BatchedOcclusion
from repro.core.pipeline import Cati
from repro.vuc.generalize import BLANK_TOKENS, Tokens


@dataclass
class OcclusionResult:
    """ε for every window position of one VUC."""

    epsilons: np.ndarray          # [L]
    predicted_index: int          # leaf class index used as the probe
    base_confidence: float


def occlusion_epsilons(cati: Cati, window: tuple[Tokens, ...]) -> OcclusionResult:
    """Compute eq. (5) for one generalized VUC window."""
    base = cati.predict_vuc_proba([window])[0]
    predicted = int(base.argmax())
    base_confidence = float(base[predicted])
    occluded = []
    for position in range(len(window)):
        variant = list(window)
        variant[position] = BLANK_TOKENS
        occluded.append(tuple(variant))
    probs = cati.predict_vuc_proba(occluded)
    epsilons = probs[:, predicted] / max(base_confidence, 1e-12)
    return OcclusionResult(
        epsilons=epsilons,
        predicted_index=predicted,
        base_confidence=base_confidence,
    )


def occlusion_epsilons_many(
    cati: Cati,
    windows: list[tuple[Tokens, ...]],
) -> "BatchedOcclusion":
    """Engine-path eq. (5) for a whole batch of windows at once."""
    engine = cati.engine
    return engine.occlusion_epsilons_many(
        engine.encoder.encode_ids(windows, length=cati.config.vuc_length))


def epsilon_distribution(
    cati: Cati,
    windows: list[tuple[Tokens, ...]],
    thresholds: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    use_engine: bool = True,
) -> np.ndarray:
    """Fig. 6b's heat map: per position, P(ε in (t, 1)) for each t.

    Returns a [L, len(thresholds)] matrix; row ordering matches window
    positions (row w is the central instruction).  ``use_engine=False``
    forces the naive per-window path (equivalence testing / debugging).
    """
    if not windows:
        raise ValueError("need at least one window")
    length = len(windows[0])
    if use_engine:
        all_eps = occlusion_epsilons_many(cati, windows).epsilons        # [N, L]
    else:
        all_eps = np.stack([occlusion_epsilons(cati, w).epsilons for w in windows])
    # An occlusion that changes nothing (e.g. BLANKing an already-BLANK
    # padding row) has ε = 1 up to batch-composition float noise; snap it
    # so the strict ε < 1 indicator below treats it as "no effect".
    all_eps = np.where(np.abs(all_eps - 1.0) < 1e-9, 1.0, all_eps)
    out = np.zeros((length, len(thresholds)))
    for column, threshold in enumerate(thresholds):
        out[:, column] = ((all_eps > threshold) & (all_eps < 1.0)).mean(axis=0)
    return out
