"""Struct-layout recovery from pooled per-access leaf posteriors.

The pipeline's voting stage (eqs. 3-4) decides one leaf type per
variable.  Here we go one level deeper: every VUC row carries an
:class:`~repro.vuc.dataflow.AccessSite` — the byte offset the access
touches *inside its base object* — so for variables the vote decided
are ``struct`` or ``struct*`` we can re-aggregate the same [N, 19]
leaf-posterior rows **per field offset** and vote a leaf type for each
field.

Base objects:

* a variable predicted ``struct`` is itself an object; its SLOT
  accesses' interior offsets are field offsets,
* a variable predicted ``struct*`` owns a *pointee* object (id suffixed
  ``->``); its DEREF accesses' ``[reg+disp]`` displacements are field
  offsets.

Objects are then pooled **across functions**: two objects whose access
-offset signatures agree (shared offsets with identical dominant access
widths, enough overlap to be evidence rather than coincidence) are
treated as instances of the same struct type, and their per-offset
posterior rows are summed together.  That is what lifts sparse objects
— a function that touches only one field still gets the full layout
voted from its siblings.

Per offset, the decision is eq. (4) over the pooled clipped rows; ties
are broken by access width (the leaf whose canonical width matches the
dominant width observed at the offset wins), then by mean posterior
confidence.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.types import ALL_TYPES, TypeName
from repro.core.voting import DEFAULT_THRESHOLD, clip_confidences
from repro.vuc.dataflow import AccessSite
from repro.vuc.locate import TargetKind

#: Canonical storage width per leaf type (bytes); 0 = no single width.
TYPE_WIDTHS: dict[TypeName, int] = {
    TypeName.BOOL: 1,
    TypeName.STRUCT: 0,
    TypeName.CHAR: 1,
    TypeName.UNSIGNED_CHAR: 1,
    TypeName.FLOAT: 4,
    TypeName.DOUBLE: 8,
    TypeName.LONG_DOUBLE: 16,
    TypeName.ENUM: 4,
    TypeName.INT: 4,
    TypeName.SHORT_INT: 2,
    TypeName.LONG_INT: 8,
    TypeName.LONG_LONG_INT: 8,
    TypeName.UNSIGNED_INT: 4,
    TypeName.SHORT_UNSIGNED_INT: 2,
    TypeName.LONG_UNSIGNED_INT: 8,
    TypeName.LONG_LONG_UNSIGNED_INT: 8,
    TypeName.VOID_POINTER: 8,
    TypeName.STRUCT_POINTER: 8,
    TypeName.ARITH_POINTER: 8,
}

#: Minimum shared offsets for two objects to pool (capped by the smaller
#: object's own offset count, so single-field objects can still attach).
_POOL_MIN_SHARED = 2


@dataclass(frozen=True, slots=True)
class FieldPrediction:
    """One recovered field: offset, voted leaf type and vote detail."""

    offset: int
    label: TypeName
    n_accesses: int
    width: int          # dominant access width observed at the offset
    confidence: float   # winning summed clipped score / total
    margin: float       # winner minus runner-up of the summed scores


@dataclass
class StructLayout:
    """A recovered layout: the pooled objects and their voted fields."""

    object_id: str                 # canonical (first) object id
    objects: tuple[str, ...]       # every pooled object id
    fields: list[FieldPrediction]
    n_accesses: int                # pooled accesses across all offsets

    def field_types(self) -> dict[int, TypeName]:
        return {f.offset: f.label for f in self.fields}


@dataclass
class _Object:
    """Accumulator for one base object's per-offset posterior rows."""

    object_id: str
    rows_by_offset: dict[int, list[int]]      # offset -> row indices
    widths_by_offset: dict[int, list[int]]    # offset -> access widths


def _collect_objects(
    predictions,
    variable_ids: list[str],
    sites: list[AccessSite],
) -> list[_Object]:
    """Group posterior rows into base objects, in first-seen order.

    A variable owns a *slot object* (its own frame storage is a struct)
    when the vote said ``struct``, or — because member-labeled models
    vote the dominant *field* type instead — when its SLOT accesses span
    at least two distinct interior offsets (a scalar only ever touches
    offset 0).  A variable owns a *pointee object* (``->`` suffix) when
    the vote said ``struct*`` or its DEREF accesses reach a nonzero
    ``[reg+disp]`` displacement (scalar pointers dereference at disp 0).
    """
    predicted_by_var = {p.variable_id: p.predicted for p in predictions}
    slot_offsets: dict[str, set[int]] = defaultdict(set)
    deref_disps: dict[str, set[int]] = defaultdict(set)
    for variable_id, site in zip(variable_ids, sites):
        if site.offset < 0:
            continue
        if site.kind is TargetKind.SLOT:
            slot_offsets[variable_id].add(site.offset)
        else:
            deref_disps[variable_id].add(site.offset)

    objects: dict[str, _Object] = {}
    for row, (variable_id, site) in enumerate(zip(variable_ids, sites)):
        predicted = predicted_by_var.get(variable_id)
        if site.kind is TargetKind.SLOT and (
                predicted is TypeName.STRUCT
                or len(slot_offsets[variable_id]) >= 2):
            object_id = variable_id
        elif site.kind is TargetKind.DEREF and (
                predicted is TypeName.STRUCT_POINTER
                or max(deref_disps[variable_id], default=0) > 0):
            object_id = variable_id + "->"
        else:
            continue
        if site.offset < 0:
            continue  # negative interior offsets are locator noise
        obj = objects.get(object_id)
        if obj is None:
            obj = _Object(object_id=object_id, rows_by_offset=defaultdict(list),
                          widths_by_offset=defaultdict(list))
            objects[object_id] = obj
        obj.rows_by_offset[site.offset].append(row)
        obj.widths_by_offset[site.offset].append(site.width)
    return list(objects.values())


def _dominant_width(widths: list[int]) -> int:
    """Most frequent non-zero access width (ties -> smaller width)."""
    counts: dict[int, int] = defaultdict(int)
    for width in widths:
        if width > 0:
            counts[width] += 1
    if not counts:
        return 0
    return min(counts, key=lambda w: (-counts[w], w))


def _compatible(a: _Object, b: _Object) -> bool:
    """Do two objects look like instances of the same struct type?

    Shared offsets must agree on dominant access width everywhere, and
    there must be enough overlap (``_POOL_MIN_SHARED``, capped by the
    smaller object's offset count) that pooling is evidence-driven.
    """
    shared = set(a.rows_by_offset) & set(b.rows_by_offset)
    need = min(_POOL_MIN_SHARED,
               len(a.rows_by_offset), len(b.rows_by_offset))
    if len(shared) < need:
        return False
    for offset in shared:
        wa = _dominant_width(a.widths_by_offset[offset])
        wb = _dominant_width(b.widths_by_offset[offset])
        if wa and wb and wa != wb:
            return False
    return True


def _cluster_objects(objects: list[_Object]) -> list[list[_Object]]:
    """Greedy signature clustering, deterministic in input order.

    Objects are visited richest-first (most distinct offsets) so cluster
    anchors carry the fullest signatures; each object joins the first
    compatible cluster (compared against the anchor) or starts its own.
    """
    order = sorted(objects, key=lambda o: (-len(o.rows_by_offset), o.object_id))
    clusters: list[list[_Object]] = []
    for obj in order:
        for cluster in clusters:
            if _compatible(cluster[0], obj):
                cluster.append(obj)
                break
        else:
            clusters.append([obj])
    return clusters


def _vote_fields(
    cluster: list[_Object],
    clipped: np.ndarray,
    probs: np.ndarray,
    min_accesses: int,
) -> tuple[list[FieldPrediction], int]:
    """Vote a leaf type per pooled field offset (eq. 4 per offset)."""
    rows_by_offset: dict[int, list[int]] = defaultdict(list)
    widths_by_offset: dict[int, list[int]] = defaultdict(list)
    for obj in cluster:
        for offset, rows in obj.rows_by_offset.items():
            rows_by_offset[offset].extend(rows)
            widths_by_offset[offset].extend(obj.widths_by_offset[offset])

    fields: list[FieldPrediction] = []
    total_accesses = 0
    for offset in sorted(rows_by_offset):
        rows = rows_by_offset[offset]
        total_accesses += len(rows)
        if len(rows) < min_accesses:
            continue
        totals = clipped[rows].sum(axis=0)
        if float(totals.max()) <= 0.0:
            # No access cleared the clip threshold (eq. 3): fall back to
            # the unclipped pooled posterior rather than tie-break noise.
            totals = probs[rows].sum(axis=0)
        best = float(totals.max())
        candidates = [i for i, t in enumerate(totals) if t >= best - 1e-12]
        width = _dominant_width(widths_by_offset[offset])
        if len(candidates) > 1 and width:
            matched = [i for i in candidates if TYPE_WIDTHS[ALL_TYPES[i]] == width]
            if matched:
                candidates = matched
        if len(candidates) > 1:
            # Residual tie: highest mean (unclipped) posterior wins.
            means = probs[rows].mean(axis=0)
            candidates.sort(key=lambda i: -float(means[i]))
        winner = candidates[0]
        ranked = np.sort(totals)
        margin = float(ranked[-1] - ranked[-2]) if len(ranked) > 1 else float(ranked[-1])
        denom = float(totals.sum())
        fields.append(FieldPrediction(
            offset=offset,
            label=ALL_TYPES[winner],
            n_accesses=len(rows),
            width=width,
            confidence=best / denom if denom else 0.0,
            margin=margin,
        ))
    return fields, total_accesses


def recover_layouts(
    predictions,
    probs: np.ndarray,
    variable_ids: list[str],
    sites: list[AccessSite],
    threshold: float = DEFAULT_THRESHOLD,
    min_accesses: int = 2,
    pool: bool = True,
) -> list[StructLayout]:
    """Recover struct layouts from one binary's posterior rows.

    ``probs`` is the [N, 19] leaf-posterior matrix whose rows align with
    ``variable_ids`` and ``sites`` (the engine extracts them together);
    ``predictions`` are the already-voted per-variable results that
    decide which variables own base objects.  ``min_accesses`` drops
    offsets with too little pooled evidence; ``pool=False`` disables
    cross-function pooling (the flat per-slot baseline).
    """
    if len(variable_ids) != len(sites):
        raise ValueError(
            f"variable_ids ({len(variable_ids)}) and sites ({len(sites)}) "
            "must be row-aligned")
    probs = np.asarray(probs)
    objects = _collect_objects(predictions, variable_ids, sites)
    if not objects:
        return []
    clipped = clip_confidences(probs, threshold)
    clusters = _cluster_objects(objects) if pool else [[obj] for obj in objects]

    layouts: list[StructLayout] = []
    for cluster in clusters:
        fields, n_accesses = _vote_fields(cluster, clipped, probs, min_accesses)
        if not fields:
            continue
        member_ids = tuple(sorted(obj.object_id for obj in cluster))
        layouts.append(StructLayout(
            object_id=member_ids[0],
            objects=member_ids,
            fields=fields,
            n_accesses=n_accesses,
        ))
    layouts.sort(key=lambda layout: layout.object_id)
    return layouts


def flat_baseline_layouts(
    predictions,
    probs: np.ndarray,
    variable_ids: list[str],
    sites: list[AccessSite],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[StructLayout]:
    """The no-pooling baseline: each object voted from its own accesses.

    No cross-function aggregation, no evidence floor (``min_accesses=1``)
    — exactly what a per-slot argmax without the posterior stage gives.
    The benchmark gates the posterior's field-level accuracy strictly
    above this.
    """
    return recover_layouts(predictions, probs, variable_ids, sites,
                           threshold=threshold, min_accesses=1, pool=False)


def layouts_to_fields(layouts: list[StructLayout]) -> dict[str, dict[int, TypeName]]:
    """Flatten layouts to ``object id -> {offset: label}`` for evaluation.

    Every pooled member object receives the cluster's voted fields, so a
    sparse object is scored against the full recovered layout.
    """
    out: dict[str, dict[int, TypeName]] = {}
    for layout in layouts:
        fields = layout.field_types()
        for object_id in layout.objects:
            out[object_id] = dict(fields)
    return out
