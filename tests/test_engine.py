"""Equivalence suite for the batched inference engine.

Every fast path (window dedup, context-dedup cascade, float32 stacked
kernels, chunking, batched occlusion) must reproduce
the naive float64 reference to ≤1e-6 — that tolerance is the engine's
contract (ISSUE acceptance criterion), everything below it is free
performance.
"""

import numpy as np
import pytest

from repro.core.config import CatiConfig
from repro.core.engine import (
    InferenceEngine,
    _compile_ops,
    _neighbor_rows,
    _run_ops,
    _unique_rows,
)
from repro.core.occlusion import (
    epsilon_distribution,
    occlusion_epsilons,
    occlusion_epsilons_many,
)
from repro.serve.protocol import pack_windows, stream_from_packed
from repro.vuc.generalize import BLANK_TOKENS
from repro.vuc.stream import VucStream

TOL = 1e-6


@pytest.fixture(scope="module")
def test_windows(small_corpus):
    return [s.tokens for s in small_corpus.test.samples[:300]]


@pytest.fixture(scope="module")
def test_variable_ids(small_corpus):
    return [s.variable_id for s in small_corpus.test.samples[:300]]


def fresh_engine(mini_cati, **overrides) -> InferenceEngine:
    """An engine over the mini model with config knobs overridden."""
    base = mini_cati.config
    config = CatiConfig(
        epochs=base.epochs, fc_width=base.fc_width, word2vec=base.word2vec,
        **overrides,
    )
    return InferenceEngine(mini_cati.classifier, mini_cati.encoder, config)


class TestDedupPrimitives:
    def test_unique_rows_round_trip(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 5, size=(200, 3)).astype(np.int64)
        unique, inverse = _unique_rows(rows)
        assert len(unique) < len(rows)
        assert np.array_equal(unique[inverse], rows)
        assert len({r.tobytes() for r in unique}) == len(unique)

    def test_neighbor_rows_edges_are_padding(self):
        positions = np.array([[3, 1, 4, 1]])
        contexts = _neighbor_rows(positions)
        assert contexts.shape == (1, 4, 3)
        assert contexts[0, 0].tolist() == [-1, 3, 1]
        assert contexts[0, 1].tolist() == [3, 1, 4]
        assert contexts[0, 3].tolist() == [4, 1, -1]


class TestCompiledOps:
    def test_generic_ops_match_model_forward(self):
        """The float32 mirror program agrees with the float64 Sequential,
        including the no-pooling shape used by the window-0 ablation."""
        from repro.nn.model import build_cati_cnn

        rng = np.random.default_rng(7)
        for length in (1, 5, 21):
            model = build_cati_cnn(
                input_length=length, input_channels=12, n_classes=4,
                conv_channels=(8, 16), fc_width=32, dropout=0.5, seed=3,
            )
            ops = _compile_ops(model)
            assert ops is not None
            x = rng.standard_normal((9, length, 12)).astype(np.float32)
            got = _run_ops(ops, x)
            want = model.forward(x, training=False)
            assert np.abs(got - want).max() <= TOL

    def test_unknown_layer_returns_none(self):
        class Odd:
            layers = [object()]

        assert _compile_ops(Odd()) is None


class TestLeafProbaEquivalence:
    def test_matches_naive(self, mini_cati, test_windows):
        naive = mini_cati.predict_vuc_proba(test_windows)
        fast = mini_cati.engine.leaf_proba(test_windows)
        assert fast.shape == naive.shape
        assert np.abs(fast - naive).max() <= TOL

    def test_cascade_path_is_active(self, mini_cati, test_windows):
        """The mini model has the canonical stack, so the dedup cascade
        (not the generic fallback) must be what the equivalence covers."""
        engine = mini_cati.engine
        engine.leaf_proba(test_windows[:5])
        assert engine._cascade
        assert engine.stats.ctx_unique > 0

    def test_chunking_invariance(self, mini_cati, test_windows):
        naive = mini_cati.predict_vuc_proba(test_windows)
        for max_batch in (1, 17, 4096):
            engine = fresh_engine(mini_cati, max_batch=max_batch)
            assert np.abs(engine.leaf_proba(test_windows) - naive).max() <= TOL

    def test_cache_disabled_matches(self, mini_cati, test_windows):
        engine = fresh_engine(mini_cati, dedup_cache_size=0)
        naive = mini_cati.predict_vuc_proba(test_windows)
        assert np.abs(engine.leaf_proba(test_windows) - naive).max() <= TOL
        assert len(engine._cache) == 0

    def test_empty_input(self, mini_cati):
        empty_ids = mini_cati.encoder.encode_ids([], length=mini_cati.config.vuc_length)
        fast = mini_cati.engine.leaf_proba_ids(empty_ids)
        assert fast.shape == (0, 19)
        assert mini_cati.engine.leaf_proba([]).shape == (0, 19)
        assert mini_cati.engine.score([]) == []
        (empty,) = mini_cati.engine.score([VucStream(mini_cati.config.window)])
        assert empty.probs.shape == (0, 19)
        assert empty.predictions == [] and empty.layouts == []
        # The naive reference agrees on the empty batch too.
        naive = mini_cati.predict_vuc_proba([])
        assert naive.shape == fast.shape and np.array_equal(naive, fast)
        assert mini_cati.predict_variables([], []) == []

    def test_cache_hits_across_calls(self, mini_cati, test_windows):
        engine = fresh_engine(mini_cati)
        first = engine.leaf_proba(test_windows)
        hits_before = engine.stats.cache_hits
        second = engine.leaf_proba(test_windows)
        assert engine.stats.cache_hits >= hits_before + engine.stats.unique_windows // 2
        assert np.array_equal(first, second)

    def test_cache_eviction_bounded(self, mini_cati, test_windows):
        engine = fresh_engine(mini_cati, dedup_cache_size=16)
        engine.leaf_proba(test_windows)
        assert len(engine._cache) <= 16
        naive = mini_cati.predict_vuc_proba(test_windows)
        assert np.abs(engine.leaf_proba(test_windows) - naive).max() <= TOL

    def test_refresh_recompiles(self, mini_cati, test_windows):
        engine = fresh_engine(mini_cati)
        before = engine.leaf_proba(test_windows[:10])
        engine.refresh()
        assert engine._ops is None and len(engine._cache) == 0
        assert np.abs(engine.leaf_proba(test_windows[:10]) - before).max() <= TOL


def stream_of(windows, variable_ids, window: int) -> VucStream:
    """Whole windows laid end to end as one stream, as the wire decodes them."""
    return stream_from_packed(pack_windows(windows), list(variable_ids), window)


class TestVoteEquivalence:
    def test_predictions_match_naive(self, mini_cati, test_windows, test_variable_ids):
        naive = mini_cati.predict_variables(test_windows, test_variable_ids)
        stream = stream_of(test_windows, test_variable_ids, mini_cati.config.window)
        fast = mini_cati.engine.score([stream])[0].predictions
        assert [p.variable_id for p in fast] == [p.variable_id for p in naive]
        assert [p.predicted for p in fast] == [p.predicted for p in naive]
        assert [p.n_vucs for p in fast] == [p.n_vucs for p in naive]
        for a, b in zip(fast, naive):
            assert np.abs(a.scores - b.scores).max() <= TOL

    def test_misaligned_inputs_raise(self, mini_cati, test_windows, test_variable_ids):
        stream = stream_of(test_windows, test_variable_ids, mini_cati.config.window)
        ids = mini_cati.encoder.encode_stream(stream)
        with pytest.raises(ValueError):
            mini_cati.engine.score([stream], [ids[:-1]])
        with pytest.raises(ValueError):
            mini_cati.engine.score([stream, stream], [ids])


class TestOcclusionEquivalence:
    def test_matches_naive(self, mini_cati, test_windows):
        sub = test_windows[:12]
        batched = occlusion_epsilons_many(mini_cati, sub)
        assert batched.epsilons.shape == (len(sub), 21)
        for i, window in enumerate(sub):
            single = occlusion_epsilons(mini_cati, window)
            assert np.abs(batched.epsilons[i] - single.epsilons).max() <= TOL
            assert batched.predicted_indices[i] == single.predicted_index
            assert abs(batched.base_confidences[i] - single.base_confidence) <= TOL

    def test_occluding_padding_is_neutral(self, mini_cati, small_corpus):
        """BLANKing an already-BLANK row is a bitwise no-op: window dedup
        must make epsilon exactly 1, not approximately."""
        sample = next(
            s for s in small_corpus.test.samples if s.tokens[0] == BLANK_TOKENS
        )
        batched = occlusion_epsilons_many(mini_cati, [sample.tokens])
        assert batched.epsilons[0, 0] == 1.0

    def test_group_chunking_invariance(self, mini_cati, test_windows):
        sub = test_windows[:8]
        reference = occlusion_epsilons_many(mini_cati, sub).epsilons
        tiny = fresh_engine(mini_cati, max_batch=5)  # forces group size 1
        ids = tiny.encoder.encode_ids(sub)
        assert np.abs(tiny.occlusion_epsilons_many(ids).epsilons - reference).max() <= TOL

    def test_epsilon_distribution_paths_agree(self, mini_cati, test_windows):
        """Both heat-map paths agree except where an ε sits within the
        equivalence tolerance of an indicator boundary (the strict
        ε ∈ (t, 1) test is discontinuous there, so a ≤1e-6 value
        difference can legitimately flip a count)."""
        sub = test_windows[:10]
        thresholds = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        fast = epsilon_distribution(mini_cati, sub, use_engine=True)
        slow = epsilon_distribution(mini_cati, sub, use_engine=False)
        assert fast.shape == slow.shape == (21, 10)
        naive_eps = np.stack(
            [occlusion_epsilons(mini_cati, w).epsilons for w in sub])   # [N, L]
        bounds = np.asarray(thresholds + (1.0,))
        near = (np.abs(naive_eps[:, :, None] - bounds) <= TOL).any(axis=2)
        allowance = near.mean(axis=0)                                   # [L]
        assert (np.abs(fast - slow).max(axis=1) <= allowance + 1e-12).all()

    def test_empty_input(self, mini_cati):
        batched = occlusion_epsilons_many(mini_cati, [])
        assert batched.epsilons.shape == (0, 21)


class TestBinaryInference:
    @pytest.fixture(scope="class")
    def job(self):
        from repro.codegen import GccCompiler, strip
        from repro.experiments.speed import extents_from_debug

        binary = GccCompiler().compile_fresh(seed=901, name="j901", opt_level=0)
        return strip(binary), extents_from_debug(binary)

    def test_infer_binary_matches_naive(self, mini_cati, job):
        from repro.vuc.dataset import extract_unlabeled_vucs

        stripped, extents = job
        fast = mini_cati.engine.infer_binary(stripped, extents)
        pairs = extract_unlabeled_vucs(stripped, extents, mini_cati.config.window)
        naive = mini_cati.predict_variables(
            [tokens for _vid, tokens in pairs], [vid for vid, _tokens in pairs],
        )
        assert [p.variable_id for p in fast] == [p.variable_id for p in naive]
        assert [p.predicted for p in fast] == [p.predicted for p in naive]


class TestPipelineIntegration:
    def test_engine_property_cached_and_reset_on_load(self, mini_cati, tmp_path,
                                                      mini_config, test_windows):
        from repro.core.pipeline import Cati

        assert mini_cati.engine is mini_cati.engine
        directory = str(tmp_path / "model")
        mini_cati.save(directory)
        loaded = Cati.load(directory, mini_config)
        assert loaded._engine is None
        assert np.abs(
            loaded.engine.leaf_proba(test_windows[:20])
            - mini_cati.predict_vuc_proba(test_windows[:20])
        ).max() <= TOL


class TestKernelArena:
    """The arena-fused cascade must be invisible: any chunking, any call
    size, buffers reused — identical probabilities."""

    def test_ragged_chunk_boundaries(self, mini_cati, test_windows):
        naive = mini_cati.predict_vuc_proba(test_windows)
        n = len(test_windows)
        for max_batch in (7, 64, n - 1, n, n + 1):
            engine = fresh_engine(mini_cati, max_batch=max_batch)
            assert np.abs(engine.leaf_proba(test_windows) - naive).max() <= TOL

    def test_arena_reused_across_differently_sized_calls(self, mini_cati,
                                                         test_windows):
        engine = fresh_engine(mini_cati, dedup_cache_size=0)
        naive = mini_cati.predict_vuc_proba(test_windows)
        engine.leaf_proba(test_windows)  # peak-size call grows the arena
        peak = engine.arena_nbytes
        assert peak > 0
        for size in (20, 150, 1, len(test_windows)):
            got = engine.leaf_proba(test_windows[:size])
            assert np.abs(got - naive[:size]).max() <= TOL
        # Shrink-and-regrow must reuse the grown buffers, not reallocate.
        assert engine.arena_nbytes == peak

    def test_refresh_drops_arena(self, mini_cati, test_windows):
        engine = fresh_engine(mini_cati)
        engine.leaf_proba(test_windows[:40])
        assert engine.arena_nbytes > 0
        engine.refresh()
        assert engine.arena_nbytes == 0
        naive = mini_cati.predict_vuc_proba(test_windows[:40])
        assert np.abs(engine.leaf_proba(test_windows[:40]) - naive).max() <= TOL

