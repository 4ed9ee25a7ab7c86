"""Multi-stage classifier + pipeline integration tests (use the
session-scoped mini-trained CATI).
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.config import CatiConfig
from repro.core.pipeline import Cati
from repro.core.types import ALL_TYPES, STAGE_SPECS, Stage, TypeName, stage_label
from repro.embedding import word2vec
from repro.embedding.word2vec import Word2VecConfig
from repro.nn.layers import Conv1d
from tests.test_nn_layers import held_arrays, traced_growth


class TestClassifier:
    def test_all_six_stages_trained(self, mini_cati):
        assert set(mini_cati.classifier.stages) == set(STAGE_SPECS)

    def test_leaf_proba_shape_and_normalization(self, mini_cati, small_corpus):
        windows = [s.tokens for s in small_corpus.test.samples[:20]]
        probs = mini_cati.predict_vuc_proba(windows)
        assert probs.shape == (20, 19)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_stage_proba_rows_normalized(self, mini_cati, small_corpus):
        x = mini_cati.encode([s.tokens for s in small_corpus.test.samples[:10]])
        for stage in STAGE_SPECS:
            probs = mini_cati.classifier.stage_proba(stage, x)
            assert probs.shape == (10, len(STAGE_SPECS[stage].labels))
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-5)

    def test_leaf_proba_consistent_with_stage_product(self, mini_cati, small_corpus):
        """Leaf column = normalized product of its path's stage confidences."""
        from repro.core.types import stage_path

        x = mini_cati.encode([s.tokens for s in small_corpus.test.samples[:5]])
        stage_probs = {s: mini_cati.classifier.stage_proba(s, x) for s in STAGE_SPECS}
        leaf = mini_cati.classifier.leaf_proba(x)
        raw = np.zeros_like(leaf)
        for col, t in enumerate(ALL_TYPES):
            factor = np.ones(len(x))
            for stage, label in stage_path(t):
                factor *= stage_probs[stage][:, STAGE_SPECS[stage].label_index(label)]
            raw[:, col] = factor
        raw /= raw.sum(axis=1, keepdims=True)
        assert np.allclose(leaf, raw, atol=1e-9)

    def test_predict_leaf_returns_typenames(self, mini_cati, small_corpus):
        x = mini_cati.encode([s.tokens for s in small_corpus.test.samples[:5]])
        preds = mini_cati.classifier.predict_leaf(x)
        assert all(isinstance(p, TypeName) for p in preds)

    def test_hierarchical_vote_returns_leaf(self, mini_cache, mini_cati):
        """vote_variable routes clipped stage votes down to a leaf type."""
        groups: dict[str, list[int]] = {}
        for i, vid in enumerate(mini_cache.variable_ids):
            groups.setdefault(vid, []).append(i)
        some = list(groups.items())[:20]
        for _vid, indices in some:
            leaf = mini_cati.classifier.vote_variable(mini_cache.stage_probs, indices)
            assert isinstance(leaf, TypeName)

    def test_hierarchical_vote_agrees_with_certain_stages(self, mini_cache, mini_cati):
        """When stage 1 is unanimous for 'pointer', the hierarchical vote
        must land on a pointer leaf."""
        import numpy as np

        from repro.core.types import POINTER_TYPES, STAGE_SPECS, Stage

        groups: dict[str, list[int]] = {}
        for i, vid in enumerate(mini_cache.variable_ids):
            groups.setdefault(vid, []).append(i)
        pointer_col = STAGE_SPECS[Stage.STAGE1].label_index("pointer")
        checked = 0
        for _vid, indices in groups.items():
            stage1 = mini_cache.stage_probs[Stage.STAGE1][indices]
            if (stage1[:, pointer_col] > 0.8).all():
                leaf = mini_cati.classifier.vote_variable(mini_cache.stage_probs, indices)
                assert leaf in POINTER_TYPES
                checked += 1
            if checked >= 10:
                break
        if checked == 0:
            pytest.skip("mini model produced no confidently-pointer variables")

    def test_hierarchical_vote_agrees_with_leaf_vote_when_confident(self, mini_cati):
        """When every stage on a leaf's path is confident, stage-by-stage
        routing (vote_variable) and flat leaf-level voting (eq. 4 over
        the composed leaf_proba) must pick the same type — the tree
        factorization cannot disagree with its own product when every
        factor is certain.  Checked for every one of the 19 leaves with
        constructed stage confidences (the mini model rarely reaches
        unanimous confidence on its own)."""
        from repro.core.classifier import compose_leaves
        from repro.core.types import stage_path
        from repro.core.voting import vote

        threshold = mini_cati.config.confidence_threshold
        n = 3  # a few VUCs per synthetic variable
        for leaf in ALL_TYPES:
            path = dict(stage_path(leaf))
            stage_probs = {}
            for stage in STAGE_SPECS:
                labels = STAGE_SPECS[stage].labels
                row = np.full(len(labels), (1.0 - 0.98) / max(len(labels) - 1, 1))
                if stage in path:
                    row[:] = (1.0 - 0.98) / max(len(labels) - 1, 1)
                    row[STAGE_SPECS[stage].label_index(path[stage])] = 0.98
                else:
                    row[:] = 1.0 / len(labels)
                stage_probs[stage] = np.tile(row, (n, 1))
            leaf_rows = compose_leaves(stage_probs)
            flat_winner = ALL_TYPES[vote(leaf_rows, threshold)]
            routed = mini_cati.classifier.vote_variable(
                stage_probs, list(range(n)), threshold)
            assert routed is leaf
            assert flat_winner is leaf


class TestPipeline:
    def test_training_beats_chance_on_unseen_apps(self, mini_cati, small_corpus):
        samples = small_corpus.test.samples
        preds = mini_cati.predict_vucs([s.tokens for s in samples])
        acc = sum(p is s.label for p, s in zip(preds, samples)) / len(samples)
        assert acc > 0.25, f"VUC accuracy {acc:.3f} barely above chance (1/19)"

    def test_variable_predictions_cover_all_variables(self, mini_cati, small_corpus):
        samples = small_corpus.test.samples
        predictions = mini_cati.predict_variables(
            [s.tokens for s in samples], [s.variable_id for s in samples],
        )
        assert {p.variable_id for p in predictions} == {s.variable_id for s in samples}

    def test_vote_scores_nonnegative(self, mini_cati, small_corpus):
        samples = small_corpus.test.samples[:50]
        predictions = mini_cati.predict_variables(
            [s.tokens for s in samples], [s.variable_id for s in samples],
        )
        for p in predictions:
            assert p.scores.shape == (19,)
            assert (p.scores >= 0).all()
            assert p.n_vucs >= 1

    def test_misaligned_inputs_raise(self, mini_cati, small_corpus):
        with pytest.raises(ValueError):
            mini_cati.predict_variables([small_corpus.test.samples[0].tokens], [])

    def test_untrained_raises(self, mini_config):
        with pytest.raises(RuntimeError):
            Cati(mini_config).predict_vucs([])

    def test_train_empty_raises(self, mini_config):
        from repro.vuc.dataset import VucDataset

        with pytest.raises(ValueError):
            Cati(mini_config).train(VucDataset())

    def test_save_load_round_trip(self, mini_cati, small_corpus, tmp_path, mini_config):
        directory = str(tmp_path / "model")
        mini_cati.save(directory)
        loaded = Cati.load(directory, mini_config)
        windows = [s.tokens for s in small_corpus.test.samples[:10]]
        assert np.allclose(
            mini_cati.predict_vuc_proba(windows),
            loaded.predict_vuc_proba(windows),
            atol=1e-6,
        )

    def test_infer_binary_end_to_end(self, mini_cati):
        from repro.codegen import GccCompiler, strip
        from repro.experiments.speed import extents_from_debug

        binary = GccCompiler().compile_fresh(seed=555, name="t", opt_level=0)
        extents = extents_from_debug(binary)
        predictions = mini_cati.infer_binary(strip(binary), extents)
        assert len(predictions) > 5
        assert all(isinstance(p.predicted, TypeName) for p in predictions)

    def test_infer_binary_no_extents_returns_empty(self, mini_cati):
        from repro.codegen import GccCompiler, strip

        binary = GccCompiler().compile_fresh(seed=556, name="t2", opt_level=0)
        assert mini_cati.infer_binary(strip(binary), []) == []


class TestInferenceState:
    """The naive forward keeps nothing once it returns, so it is re-entrant."""

    def test_predict_vuc_proba_retains_nothing(self, mini_cati, small_corpus):
        windows = [s.tokens for s in small_corpus.test.samples[:400]]
        mini_cati.predict_vuc_proba(windows)  # first-use allocations
        probs, growth = traced_growth(lambda: mini_cati.predict_vuc_proba(windows))
        assert probs.shape == (len(windows), 19)
        assert growth - probs.nbytes <= 1_000_000
        for stage_model in mini_cati.classifier.stages.values():
            for layer in stage_model.model.layers:
                assert held_arrays(layer) == [], type(layer).__name__

    def test_concurrent_leaf_proba_matches_sequential(self, mini_cati, small_corpus):
        """More threads than cores and a short switch interval, each on its
        own rows: any layer state shared between forwards would mix them."""
        x = mini_cati.encode([s.tokens for s in small_corpus.test.samples[:600]])
        parts = np.array_split(x, 4)
        want = [mini_cati.classifier.leaf_proba(part) for part in parts]
        barrier = threading.Barrier(len(parts))
        got: dict[int, list[np.ndarray]] = {}

        def run(index):
            barrier.wait()
            got[index] = [mini_cati.classifier.leaf_proba(parts[index]) for _ in range(3)]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(parts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(got) == list(range(len(parts)))
        for index, expected in enumerate(want):
            for probs in got[index]:
                assert probs.dtype == expected.dtype
                assert probs.tobytes() == expected.tobytes()


class TestTrainingKernels:
    def test_reference_kernels_train_identical_weights(self, small_corpus, monkeypatch):
        """Training on the BLAS weight-gradient GEMM and the flat scatter
        gives the same weights, bit for bit, as on the kernels they
        replaced: Conv1d's ``einsum`` and Word2Vec's 2-D ``np.add.at``."""
        config = CatiConfig(
            epochs=1, fc_width=32,
            word2vec=Word2VecConfig(dim=32, window=5, epochs=1, subsample_pairs=0.4))
        dataset = small_corpus.train.subsample(600, seed=0)
        fast = Cati(config).train(dataset)

        gemm_backward = Conv1d.backward
        reference_calls = []

        def einsum_backward(self, grad):
            _x_shape, cols = self._pending  # backward consumes it
            d_x = gemm_backward(self, grad)
            self.d_weight[...] = np.einsum("blk,blo->ko", cols, grad)
            reference_calls.append("conv")
            return d_x

        def add_at_2d(table, rows, values):
            np.add.at(table, rows, values)
            reference_calls.append("scatter")

        monkeypatch.setattr(Conv1d, "backward", einsum_backward)
        monkeypatch.setattr(word2vec, "scatter_add_rows", add_at_2d)
        reference = Cati(config).train(dataset)
        assert {"conv", "scatter"} <= set(reference_calls)

        for key in ("vectors", "context_vectors"):
            got, want = fast.embedding.get_state()[key], reference.embedding.get_state()[key]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), key
        fast_state, reference_state = fast.classifier.get_state(), reference.classifier.get_state()
        assert fast_state.keys() == reference_state.keys() == {s.value for s in STAGE_SPECS}
        for stage, arrays in reference_state.items():
            assert fast_state[stage].keys() == arrays.keys()
            for name, want in arrays.items():
                got = fast_state[stage][name]
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (stage, name)


class TestConfig:
    def test_vuc_length(self, mini_config):
        assert mini_config.vuc_length == 21
        assert mini_config.instruction_dim == 96

    def test_invalid_window_rejected(self):
        from repro.core.config import CatiConfig

        with pytest.raises(ValueError):
            CatiConfig(window=-1)

    def test_window_zero_allowed_for_ablation(self):
        from repro.core.config import CatiConfig

        config = CatiConfig(window=0)
        assert config.vuc_length == 1

    def test_invalid_threshold_rejected(self):
        from repro.core.config import CatiConfig

        with pytest.raises(ValueError):
            CatiConfig(confidence_threshold=1.5)

    def test_word2vec_dim_follows_token_dim(self):
        from repro.core.config import CatiConfig

        config = CatiConfig(token_dim=16)
        assert config.word2vec.dim == 16
        assert config.instruction_dim == 48
