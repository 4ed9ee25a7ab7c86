"""Labeled-dataset assembly tests: labels match generator truth, grouping
is consistent, helpers behave.
"""

import pytest

from repro.codegen import GccCompiler, debug_variables
from repro.core.types import TypeName
from repro.vuc.dataset import VucDataset, extract_labeled_vucs, target_signature


@pytest.fixture(scope="module")
def binary():
    return GccCompiler().compile_fresh(seed=21, name="ds", opt_level=0)


@pytest.fixture(scope="module")
def dataset(binary):
    return extract_labeled_vucs(binary, app="ds")


class TestExtraction:
    def test_nonempty(self, dataset):
        assert len(dataset) > 50
        assert dataset.n_variables() > 10

    def test_window_shape(self, dataset):
        for sample in dataset.samples[:20]:
            assert len(sample.tokens) == 21
            assert all(len(triple) == 3 for triple in sample.tokens)

    def test_requires_debug_info(self, binary):
        from repro.codegen import strip

        with pytest.raises(ValueError):
            extract_labeled_vucs(strip(binary))

    def test_labels_match_generator_truth(self, binary, dataset):
        """Every VUC's label must equal the type the generator assigned
        to the variable whose slot the target instruction touches."""
        # Build generator truth: function index -> slot offset range -> label
        truth = {}
        for func_index, lowered in enumerate(binary.lowered):
            for slot in lowered.slots.values():
                truth[(func_index, slot.offset)] = (slot.var.label, slot.size)
        checked = 0
        for sample in dataset.samples:
            scope, slot_part = sample.variable_id.rsplit("::", 1)
            func_index = int(scope.rsplit("/", 1)[1])
            offset = int(slot_part.replace("rbp", "").replace("rsp", ""))
            # find the covering slot
            for (fi, off), (label, size) in truth.items():
                if fi == func_index and off <= offset < off + size:
                    assert sample.label is label
                    checked += 1
                    break
        assert checked == len(dataset.samples)

    def test_vucs_grouped_by_variable_share_label(self, dataset):
        for vucs in dataset.by_variable().values():
            labels = {v.label for v in vucs}
            assert len(labels) == 1

    def test_app_and_compiler_recorded(self, dataset):
        assert all(s.app == "ds" for s in dataset.samples)
        assert all(s.compiler == "gcc" for s in dataset.samples)


class TestDatasetHelpers:
    def test_label_counts_consistent(self, dataset):
        assert sum(dataset.label_counts().values()) == len(dataset)
        assert sum(dataset.variable_label_counts().values()) == dataset.n_variables()

    def test_extend_merges(self, dataset):
        merged = VucDataset(window=dataset.window)
        merged.extend(dataset)
        merged.extend(dataset)
        assert len(merged) == 2 * len(dataset)

    def test_extend_rejects_window_mismatch(self, dataset):
        other = VucDataset(window=5)
        with pytest.raises(ValueError):
            other.extend(dataset)

    def test_subsample_keeps_whole_variables(self, dataset):
        sub = dataset.subsample(len(dataset) // 2, seed=1)
        assert len(sub) <= len(dataset) // 2 + 30
        full_groups = dataset.by_variable()
        for vid, vucs in sub.by_variable().items():
            assert len(vucs) == len(full_groups[vid])

    def test_subsample_noop_when_under_limit(self, dataset):
        assert dataset.subsample(10**9) is dataset

    def test_target_signature_is_target_row(self, dataset):
        sample = dataset.samples[0]
        assert target_signature(sample) == " ".join(sample.tokens[10])

    def test_apps_order_stable(self, dataset):
        assert dataset.apps() == ["ds"]
