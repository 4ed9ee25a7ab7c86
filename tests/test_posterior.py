"""Posterior struct-recovery tests: object collection, pooling, field
voting, tie-breaks, the flat baseline, and engine integration.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.types import ALL_TYPES, TypeName
from repro.posterior import (
    flat_baseline_layouts,
    layouts_to_fields,
    recover_layouts,
    truth_layouts,
)
from repro.vuc.dataflow import AccessSite
from repro.vuc.locate import TargetKind

IDX = {name: i for i, name in enumerate(ALL_TYPES)}


@dataclass(frozen=True)
class _Pred:
    """The two attributes recover_layouts reads off a prediction."""

    variable_id: str
    predicted: TypeName


def _row(*pairs):
    """One [19] posterior row from (TypeName, prob) pairs."""
    row = np.zeros(len(ALL_TYPES))
    for name, prob in pairs:
        row[IDX[name]] = prob
    return row


def _slot(vid, offset, width=4):
    return AccessSite(variable_id=vid, kind=TargetKind.SLOT, offset=offset, width=width)


def _deref(vid, offset, width=4):
    return AccessSite(variable_id=vid, kind=TargetKind.DEREF, offset=offset, width=width)


class TestObjectCollection:
    def test_struct_vote_owns_slot_object(self):
        sites = [_slot("s", 0), _slot("s", 0)]
        probs = np.stack([_row((TypeName.INT, 1.0))] * 2)
        layouts = recover_layouts([_Pred("s", TypeName.STRUCT)], probs,
                                  ["s", "s"], sites)
        assert len(layouts) == 1
        assert layouts[0].object_id == "s"

    def test_struct_pointer_owns_pointee_object(self):
        sites = [_deref("p", 8, width=8), _deref("p", 8, width=8)]
        probs = np.stack([_row((TypeName.LONG_INT, 1.0))] * 2)
        layouts = recover_layouts([_Pred("p", TypeName.STRUCT_POINTER)], probs,
                                  ["p", "p"], sites)
        assert [layout.object_id for layout in layouts] == ["p->"]

    def test_structural_fallback_multi_offset_slots(self):
        """Member-labeled models vote field types, not struct: a variable
        whose SLOT accesses span >=2 interior offsets is still an object."""
        sites = [_slot("s", 0), _slot("s", 0), _slot("s", 8), _slot("s", 8)]
        probs = np.stack([_row((TypeName.INT, 1.0))] * 4)
        layouts = recover_layouts([_Pred("s", TypeName.INT)], probs,
                                  ["s"] * 4, sites)
        assert len(layouts) == 1

    def test_single_offset_scalar_is_not_an_object(self):
        sites = [_slot("v", 0), _slot("v", 0)]
        probs = np.stack([_row((TypeName.INT, 1.0))] * 2)
        assert recover_layouts([_Pred("v", TypeName.INT)], probs,
                               ["v", "v"], sites) == []

    def test_structural_fallback_nonzero_deref_disp(self):
        sites = [_deref("p", 16, width=8), _deref("p", 16, width=8)]
        probs = np.stack([_row((TypeName.LONG_INT, 1.0))] * 2)
        layouts = recover_layouts([_Pred("p", TypeName.ARITH_POINTER)], probs,
                                  ["p", "p"], sites)
        assert [layout.object_id for layout in layouts] == ["p->"]

    def test_zero_disp_scalar_pointer_is_not_an_object(self):
        sites = [_deref("p", 0), _deref("p", 0)]
        probs = np.stack([_row((TypeName.INT, 1.0))] * 2)
        assert recover_layouts([_Pred("p", TypeName.ARITH_POINTER)], probs,
                               ["p", "p"], sites) == []

    def test_negative_offsets_are_locator_noise(self):
        sites = [_slot("s", -4), _slot("s", -4)]
        probs = np.stack([_row((TypeName.INT, 1.0))] * 2)
        assert recover_layouts([_Pred("s", TypeName.STRUCT)], probs,
                               ["s", "s"], sites) == []

    def test_misaligned_rows_raise(self):
        with pytest.raises(ValueError):
            recover_layouts([], np.zeros((1, len(ALL_TYPES))), ["a"], [])


class TestFieldVoting:
    def test_fields_voted_per_offset(self):
        sites = [_slot("s", 0, width=4), _slot("s", 0, width=4),
                 _slot("s", 8, width=8), _slot("s", 8, width=8)]
        probs = np.stack([
            _row((TypeName.INT, 1.0)), _row((TypeName.INT, 1.0)),
            _row((TypeName.LONG_INT, 1.0)), _row((TypeName.LONG_INT, 1.0)),
        ])
        layouts = recover_layouts([_Pred("s", TypeName.STRUCT)], probs,
                                  ["s"] * 4, sites)
        assert layouts[0].field_types() == {0: TypeName.INT, 8: TypeName.LONG_INT}
        assert layouts[0].n_accesses == 4

    def test_min_accesses_floor_drops_sparse_offsets(self):
        sites = [_slot("s", 0), _slot("s", 0), _slot("s", 8)]
        probs = np.stack([_row((TypeName.INT, 1.0))] * 3)
        pooled = recover_layouts([_Pred("s", TypeName.STRUCT)], probs,
                                 ["s"] * 3, sites, min_accesses=2)
        assert set(pooled[0].field_types()) == {0}
        flat = flat_baseline_layouts([_Pred("s", TypeName.STRUCT)], probs,
                                     ["s"] * 3, sites)
        assert set(flat[0].field_types()) == {0, 8}

    def test_width_breaks_score_ties(self):
        # Both rows split evenly between int (width 4) and long (width 8):
        # the observed access width must decide.
        probs = np.stack([_row((TypeName.INT, 0.5), (TypeName.LONG_INT, 0.5))] * 2)
        for width, expected in ((8, TypeName.LONG_INT), (4, TypeName.INT)):
            sites = [_slot("s", 0, width=width), _slot("s", 8, width=width)]
            layouts = recover_layouts([_Pred("s", TypeName.STRUCT)], probs,
                                      ["s", "s"], sites, min_accesses=1)
            assert all(label is expected
                       for label in layouts[0].field_types().values())

    def test_mean_posterior_breaks_residual_ties(self):
        # Both leaves clear the clip threshold (eq. 3 sets them to 1.0),
        # so summed clipped scores tie; the unclipped mean must decide.
        probs = np.stack(
            [_row((TypeName.INT, 0.95), (TypeName.LONG_INT, 0.90)),
             _row((TypeName.INT, 0.95), (TypeName.LONG_INT, 0.90)),
             _row((TypeName.INT, 0.95), (TypeName.LONG_INT, 0.90)),
             _row((TypeName.INT, 0.95), (TypeName.LONG_INT, 0.90))])
        sites = [_slot("s", 0, width=0), _slot("s", 0, width=0),
                 _slot("s", 8, width=0), _slot("s", 8, width=0)]
        layouts = recover_layouts([_Pred("s", TypeName.STRUCT)], probs,
                                  ["s"] * 4, sites)
        assert all(label is TypeName.INT
                   for label in layouts[0].field_types().values())

    def test_confidence_and_margin(self):
        sites = [_slot("s", 0), _slot("s", 0), _slot("s", 8), _slot("s", 8)]
        probs = np.stack([_row((TypeName.INT, 1.0))] * 4)
        field = recover_layouts([_Pred("s", TypeName.STRUCT)], probs,
                                ["s"] * 4, sites)[0].fields[0]
        assert field.label is TypeName.INT
        assert field.n_accesses == 2
        assert field.confidence == pytest.approx(1.0)
        assert field.margin == pytest.approx(2.0)   # 2 clipped votes vs 0

    def test_layouts_sorted_by_object_id(self):
        sites = [_slot("z", 0), _slot("z", 0), _slot("a", 0), _slot("a", 0)]
        probs = np.stack([_row((TypeName.INT, 1.0))] * 4)
        predictions = [_Pred("z", TypeName.STRUCT), _Pred("a", TypeName.STRUCT)]
        layouts = flat_baseline_layouts(predictions, probs,
                                        ["z", "z", "a", "a"], sites)
        assert [layout.object_id for layout in layouts] == ["a", "z"]


class TestPooling:
    def _rich_and_sparse(self):
        variable_ids = ["f1::s"] * 4 + ["f2::s"] * 2
        sites = [_slot("f1::s", 0, width=4), _slot("f1::s", 0, width=4),
                 _slot("f1::s", 8, width=8), _slot("f1::s", 8, width=8),
                 _slot("f2::s", 0, width=4), _slot("f2::s", 0, width=4)]
        probs = np.stack([
            _row((TypeName.INT, 1.0)), _row((TypeName.INT, 1.0)),
            _row((TypeName.LONG_INT, 1.0)), _row((TypeName.LONG_INT, 1.0)),
            _row((TypeName.INT, 1.0)), _row((TypeName.INT, 1.0)),
        ])
        predictions = [_Pred("f1::s", TypeName.STRUCT),
                       _Pred("f2::s", TypeName.STRUCT)]
        return predictions, probs, variable_ids, sites

    def test_sparse_object_inherits_cluster_layout(self):
        predictions, probs, variable_ids, sites = self._rich_and_sparse()
        layouts = recover_layouts(predictions, probs, variable_ids, sites)
        assert len(layouts) == 1
        assert layouts[0].objects == ("f1::s", "f2::s")
        fields = layouts_to_fields(layouts)
        # The sparse f2 object (one observed offset) gets the pooled layout.
        assert fields["f2::s"] == {0: TypeName.INT, 8: TypeName.LONG_INT}

    def test_flat_baseline_keeps_objects_separate(self):
        predictions, probs, variable_ids, sites = self._rich_and_sparse()
        layouts = flat_baseline_layouts(predictions, probs, variable_ids, sites)
        assert len(layouts) == 2
        fields = layouts_to_fields(layouts)
        assert set(fields["f2::s"]) == {0}

    def test_disagreeing_widths_do_not_pool(self):
        variable_ids = ["f1::s"] * 4 + ["f2::s"] * 4
        sites = [_slot("f1::s", 0, width=4), _slot("f1::s", 0, width=4),
                 _slot("f1::s", 8, width=8), _slot("f1::s", 8, width=8),
                 _slot("f2::s", 0, width=8), _slot("f2::s", 0, width=8),
                 _slot("f2::s", 8, width=8), _slot("f2::s", 8, width=8)]
        probs = np.stack([_row((TypeName.INT, 1.0))] * 8)
        predictions = [_Pred("f1::s", TypeName.STRUCT),
                       _Pred("f2::s", TypeName.STRUCT)]
        layouts = recover_layouts(predictions, probs, variable_ids, sites)
        assert len(layouts) == 2


class TestEngineIntegration:
    def test_disabled_path_predictions_identical(self, mini_cati, demo_binary):
        """structs=True must not perturb per-variable predictions."""
        from repro.codegen.strip import strip
        from repro.experiments.speed import extents_from_debug

        stripped = strip(demo_binary)
        extents = extents_from_debug(demo_binary)
        try:
            plain = mini_cati.infer_binary(stripped, extents)
            with_structs = mini_cati.infer_binary(stripped, extents, structs=True)
        finally:
            # mini_cati is session-scoped: drop what we put in its window
            # LRU so later cache tests see a cold engine.
            mini_cati.engine.clear_cache()
        assert plain.layouts is None            # stage off by default
        assert with_structs.layouts is not None  # stage ran ([] is fine)
        assert len(plain) == len(with_structs)
        for a, b in zip(plain, with_structs):
            assert a.variable_id == b.variable_id
            assert a.predicted is b.predicted
            assert a.n_vucs == b.n_vucs
            assert list(a.scores) == list(b.scores)
        # The recovered layouts are keyed like the DWARF ground truth.
        truth = truth_layouts(demo_binary, scope_name=stripped.name)
        assert set(layouts_to_fields(with_structs.layouts)) & set(truth)

    def test_truth_layouts_keyed_like_pipeline_objects(self, demo_binary):
        truth = truth_layouts(demo_binary, scope_name="scoped")
        assert truth  # the demo generator always emits some structs
        for object_id, fields in truth.items():
            assert object_id.startswith("scoped/")
            assert "::" in object_id
            assert fields
            for offset, label in fields.items():
                assert offset >= 0
                assert isinstance(label, TypeName)
