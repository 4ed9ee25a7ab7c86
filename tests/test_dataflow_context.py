"""Data-flow grouping and VUC window extraction tests."""

import pytest

from repro.asm.instruction import FunctionListing, make
from repro.asm.operands import Imm, Mem, Reg
from repro.vuc.context import extract_vuc
from repro.vuc.dataflow import AccessSite, VariableExtent, access_site, group_targets
from repro.vuc.locate import Target, TargetKind, locate_targets


def _slot_target(index, offset, base="rbp"):
    ins = make("movl", Imm(0), Mem(disp=offset, base=base))
    return Target(index=index, kind=TargetKind.SLOT, base=base, offset=offset, instruction=ins)


class TestExtents:
    def test_contains_boundaries(self):
        extent = VariableExtent("v", "rbp", -16, 8)
        assert extent.contains("rbp", -16)
        assert extent.contains("rbp", -9)
        assert not extent.contains("rbp", -8)   # exclusive upper bound
        assert not extent.contains("rbp", -17)
        assert not extent.contains("rsp", -16)


class TestGrouping:
    def test_groups_by_extent(self):
        extents = [
            VariableExtent("a", "rbp", -4, 4),
            VariableExtent("s", "rbp", -32, 24),
        ]
        targets = [
            _slot_target(0, -4),
            _slot_target(1, -32),   # struct base
            _slot_target(2, -24),   # struct interior member
            _slot_target(3, -4),
        ]
        groups = group_targets(targets, extents, "bin/0")
        by_name = {g.extent.name: g for g in groups}
        assert by_name["a"].n_targets == 2
        assert by_name["s"].n_targets == 2

    def test_targets_outside_extents_dropped(self):
        groups = group_targets([_slot_target(0, -100)], [VariableExtent("a", "rbp", -4, 4)], "s")
        assert groups == []

    def test_variable_ids_unique_per_scope(self):
        extents = [VariableExtent("a", "rbp", -4, 4)]
        g1 = group_targets([_slot_target(0, -4)], extents, "bin1/0")
        g2 = group_targets([_slot_target(0, -4)], extents, "bin2/0")
        assert g1[0].variable_id != g2[0].variable_id

    def test_orphan_property(self):
        extents = [VariableExtent("a", "rbp", -4, 4)]
        one = group_targets([_slot_target(0, -4)], extents, "s")[0]
        assert one.is_orphan
        three = group_targets([_slot_target(i, -4) for i in range(3)], extents, "s")[0]
        assert not three.is_orphan

    def test_variables_without_targets_omitted(self):
        extents = [VariableExtent("a", "rbp", -4, 4), VariableExtent("b", "rbp", -8, 4)]
        groups = group_targets([_slot_target(0, -4)], extents, "s")
        assert len(groups) == 1

    def test_overlapping_extents_lowest_start_wins(self):
        """Documented tie-break: with overlapping extents the containing
        extent with the lowest start offset wins, whatever the caller's
        extent order."""
        wide = VariableExtent("wide", "rbp", -8, 8)
        narrow = VariableExtent("narrow", "rbp", -4, 4)
        targets = [_slot_target(0, -4)]   # contained by both
        for extents in ([wide, narrow], [narrow, wide]):
            groups = group_targets(targets, list(extents), "s")
            assert [g.extent.name for g in groups] == ["wide"]

    def test_target_at_extent_start_is_found(self):
        # bisect_right must include extents starting exactly at the
        # displacement (regression for an off-by-one candidate bound).
        groups = group_targets([_slot_target(0, -16)],
                               [VariableExtent("a", "rbp", -16, 8)], "s")
        assert [g.extent.name for g in groups] == ["a"]

    def test_target_below_all_extent_starts_dropped(self):
        groups = group_targets([_slot_target(0, -40)],
                               [VariableExtent("a", "rbp", -16, 8)], "s")
        assert groups == []

    def test_same_offset_on_different_bases_resolved_by_base(self):
        extents = [VariableExtent("a", "rbp", -4, 4), VariableExtent("b", "rsp", -4, 4)]
        targets = [_slot_target(0, -4, base="rbp"), _slot_target(1, -4, base="rsp")]
        groups = group_targets(targets, extents, "s")
        by_name = {g.extent.name: g for g in groups}
        assert by_name["a"].targets[0].base == "rbp"
        assert by_name["b"].targets[0].base == "rsp"


class TestAccessSites:
    def test_slot_site_uses_interior_offset(self):
        extent = VariableExtent("s", "rbp", -32, 24)
        target = Target(index=0, kind=TargetKind.SLOT, base="rbp", offset=-24,
                        instruction=make("movl", Imm(0), Mem(disp=-24, base="rbp")),
                        width=4)
        site = access_site(target, extent, "vid")
        assert site == AccessSite(variable_id="vid", kind=TargetKind.SLOT,
                                  offset=8, width=4)

    def test_deref_site_uses_pointee_displacement(self):
        extent = VariableExtent("p", "rbp", -16, 8)
        target = Target(index=3, kind=TargetKind.DEREF, base="rbp", offset=-16,
                        instruction=make("mov", Mem(disp=24, base="rax"), Reg("rdx")),
                        deref_disp=24, width=8)
        site = access_site(target, extent, "vid")
        assert site.kind is TargetKind.DEREF
        assert site.offset == 24       # not relative to the frame extent
        assert site.width == 8


class TestVucExtraction:
    def _listing(self, n):
        return FunctionListing(
            name="f", address=0,
            instructions=[make("nop", address=i) for i in range(n)],
        )

    def test_window_length_is_2w_plus_1(self):
        vuc = extract_vuc(self._listing(50), 25, window=10)
        assert len(vuc) == 21
        assert vuc.target is not None

    def test_center_is_target(self):
        listing = self._listing(50)
        listing.instructions[25] = make("movl", Imm(1), Mem(disp=-4, base="rbp"), address=25)
        vuc = extract_vuc(listing, 25, window=10)
        assert vuc.target.mnemonic == "movl"

    def test_padding_at_function_start(self):
        vuc = extract_vuc(self._listing(50), 3, window=10)
        assert vuc.window[:7] == (None,) * 7
        assert vuc.window[7] is not None

    def test_padding_at_function_end(self):
        vuc = extract_vuc(self._listing(50), 47, window=10)
        assert vuc.window[-8:] == (None,) * 8

    def test_tiny_function_mostly_padding(self):
        vuc = extract_vuc(self._listing(1), 0, window=10)
        assert sum(ins is None for ins in vuc.window) == 20
        assert vuc.window[10] is not None

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            extract_vuc(self._listing(5), 5)

    def test_custom_window_size(self):
        vuc = extract_vuc(self._listing(50), 25, window=3)
        assert len(vuc) == 7
