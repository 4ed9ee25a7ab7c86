"""Group target instructions into variables.

The paper assumes variable *locations* are given (§VII-B: either from
IDA/DEBIN-style variable recovery or, during evaluation, from ground
truth) and concentrates on typing them.  Accordingly, this module takes
a list of frame extents — one per variable — and assigns every located
:class:`~repro.vuc.locate.Target` to the variable whose extent contains
its displacement.  Targets falling outside every extent (spill slots,
compiler temporaries) are dropped, as they are in the paper's corpus
construction.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.vuc.locate import Target, TargetKind


@dataclass(frozen=True, slots=True)
class VariableExtent:
    """One variable's frame location: [offset, offset+size) on a base."""

    name: str
    base: str       # "rbp" or "rsp"
    offset: int
    size: int

    def contains(self, base: str, disp: int) -> bool:
        return base == self.base and self.offset <= disp < self.offset + self.size


@dataclass
class VariableGroup:
    """All target instructions attributed to one variable."""

    variable_id: str
    extent: VariableExtent
    targets: list[Target] = field(default_factory=list)

    @property
    def n_targets(self) -> int:
        return len(self.targets)

    @property
    def is_orphan(self) -> bool:
        """Orphan variables have only 1-2 related instructions (§II-B)."""
        return self.n_targets <= 2


def group_targets(
    targets: list[Target],
    extents: list[VariableExtent],
    scope: str,
) -> list[VariableGroup]:
    """Assign targets to variables by frame extent.

    ``scope`` (binary/function identifier) is prefixed onto variable ids
    so ids stay globally unique across a corpus.  Extents are looked up
    per frame base in offset-sorted order: a ``bisect`` bounds the
    candidates to those starting at or below the displacement, and the
    scan over them runs in ascending offset order.  When extents overlap
    (a malformed or deliberately adversarial frame map), the containing
    extent with the **lowest start offset** wins — ascending order makes
    that tie-break deterministic regardless of caller order.  Variables
    with no targets at all are omitted (they produce no VUCs, hence no
    prediction — the paper's corpora count only variables with ≥1 VUC).
    """
    # base register -> (sorted start offsets, extents and their variable
    # ids in that order); each id is built once per extent.
    by_base: dict[str, tuple[list[int], list[VariableExtent], list[str]]] = {}
    for extent in sorted(extents, key=lambda e: (e.base, e.offset)):
        offsets, ordered, ids = by_base.setdefault(extent.base, ([], [], []))
        offsets.append(extent.offset)
        ordered.append(extent)
        ids.append(f"{scope}::{extent.base}{extent.offset:+d}")

    groups: dict[str, VariableGroup] = {}
    for target in targets:
        entry = by_base.get(target.base)
        if entry is None:
            continue
        offsets, ordered, ids = entry
        disp = target.offset
        # Every extent before the bisect point starts at or below disp.
        for position in range(bisect_right(offsets, disp)):
            extent = ordered[position]
            if disp < extent.offset + extent.size:
                variable_id = ids[position]
                group = groups.get(variable_id)
                if group is None:
                    group = groups[variable_id] = VariableGroup(variable_id, extent)
                group.targets.append(target)
                break
    return list(groups.values())


@dataclass(frozen=True, slots=True)
class AccessSite:
    """One memory access attributed to a variable, as a base+offset record.

    The posterior struct-recovery stage (:mod:`repro.posterior`) consumes
    these alongside per-VUC leaf posteriors.  ``offset`` is the access's
    byte offset *inside the base object*: for SLOT targets the interior
    offset within the variable's frame extent
    (``target.offset - extent.offset``), for DEREF targets the
    ``[reg+disp]`` displacement into the pointee.  ``width`` is the access
    width in bytes (0 = unknown / address-only).
    """

    variable_id: str
    kind: TargetKind
    offset: int
    width: int


def access_site(target: Target, extent: VariableExtent, variable_id: str) -> AccessSite:
    """Build the :class:`AccessSite` record for one grouped target."""
    if target.kind is TargetKind.DEREF:
        offset = target.deref_disp
    else:
        offset = target.offset - extent.offset
    return AccessSite(variable_id=variable_id, kind=target.kind,
                      offset=offset, width=target.width)
