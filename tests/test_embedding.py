"""Embedding tests: vocabulary, Word2Vec training, VUC encoding."""

import numpy as np
import pytest

from repro.embedding.encoder import VucEncoder
from repro.embedding.vocab import UNK, Vocab
from repro.embedding.word2vec import Word2Vec, Word2VecConfig, scatter_add_rows


class TestVocab:
    def test_unk_is_id_zero(self):
        vocab = Vocab.build([["a", "b"]])
        assert vocab.id_of(UNK) == 0
        assert vocab.id_of("never-seen") == 0

    def test_frequency_order(self):
        vocab = Vocab.build([["a", "a", "a", "b", "b", "c"]])
        assert vocab.id_of("a") < vocab.id_of("b") < vocab.id_of("c")

    def test_min_count_drops_rare(self):
        vocab = Vocab.build([["a", "a", "b"]], min_count=2)
        assert "a" in vocab
        assert "b" not in vocab
        assert vocab.id_of("b") == 0

    def test_dropped_mass_goes_to_unk(self):
        vocab = Vocab.build([["a", "a", "b", "c"]], min_count=2)
        assert vocab.counts[0] == 2  # b + c

    def test_encode(self):
        vocab = Vocab.build([["a", "b"]])
        ids = vocab.encode(["a", "b", "zzz"])
        assert ids.dtype == np.int32
        assert ids[2] == 0

    def test_unigram_table_normalized(self):
        vocab = Vocab.build([["a"] * 10 + ["b"]])
        table = vocab.unigram_table()
        assert table.shape == (len(vocab),)
        assert np.isclose(table.sum(), 1.0)
        assert table[vocab.id_of("a")] > table[vocab.id_of("b")]

    def test_coverage(self):
        vocab = Vocab.build([["a", "b"]])
        assert vocab.coverage([["a", "b"]]) == 1.0
        assert vocab.coverage([["a", "x"]]) == 0.5
        assert vocab.coverage([]) == 1.0


class TestWord2Vec:
    @pytest.fixture(scope="class")
    def trained(self):
        # Two disjoint co-occurrence clusters.
        seqs = ([["a", "b", "c", "a", "b", "c"]] * 60
                + [["x", "y", "z", "x", "y", "z"]] * 60)
        vocab = Vocab.build(seqs)
        config = Word2VecConfig(dim=16, epochs=4, seed=1, subsample_threshold=1.0)
        return Word2Vec(vocab, config).train(seqs)

    def test_no_nan(self, trained):
        assert not np.isnan(trained.vectors).any()

    def test_cluster_neighbors(self, trained):
        """Co-occurring tokens must be more similar than cross-cluster ones."""

        def cosine(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v) + 1e-9))

        same = cosine(trained["a"], trained["b"])
        cross = cosine(trained["a"], trained["x"])
        assert same > cross

    def test_vector_shape(self, trained):
        assert trained["a"].shape == (16,)

    def test_unknown_token_gets_unk_vector(self, trained):
        assert np.array_equal(trained["qqq"], trained.vectors[0])

    def test_save_load_round_trip(self, trained):
        loaded = Word2Vec.from_state(trained.get_state())
        assert np.array_equal(loaded.vectors, trained.vectors)
        assert np.array_equal(loaded.context_vectors, trained.context_vectors)
        assert loaded.vocab.token_to_id == trained.vocab.token_to_id

    def test_empty_training_is_noop(self):
        vocab = Vocab.build([["a"]])
        model = Word2Vec(vocab, Word2VecConfig(dim=8, epochs=1))
        model.train([])  # must not raise
        assert model.vectors.shape == (len(vocab), 8)

    def test_deterministic(self):
        seqs = [["a", "b", "c"] * 5] * 20
        vocab = Vocab.build(seqs)
        config = Word2VecConfig(dim=8, epochs=2, seed=3)
        a = Word2Vec(vocab, config).train(seqs)
        b = Word2Vec(vocab, config).train(seqs)
        assert np.array_equal(a.vectors, b.vectors)


class TestScatterAddRows:
    def test_matches_2d_add_at_bitwise(self):
        """Duplicate rows accumulate in the same order as the 2-D
        ``np.add.at`` reference, so float32 sums match bit for bit."""
        rng = np.random.default_rng(0)
        table = rng.normal(size=(50, 32)).astype(np.float32)
        rows = rng.integers(0, 10, size=400)  # ~40 updates per touched row
        values = rng.normal(size=(400, 32)).astype(np.float32)
        reference = table.copy()
        np.add.at(reference, rows, values)
        scatter_add_rows(table, rows, values)
        assert table.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("layout", ["strided", "fortran"])
    def test_non_contiguous_table_raises(self, layout):
        """Reshaping such a table copies it, which would drop the update."""
        table = np.zeros((8, 6), dtype=np.float32)
        table = table[:, ::2] if layout == "strided" else np.asfortranarray(table)
        values = np.ones((2, table.shape[1]), dtype=np.float32)
        with pytest.raises(ValueError, match="C-contiguous"):
            scatter_add_rows(table, np.array([0, 1]), values)


class TestEncoder:
    @pytest.fixture(scope="class")
    def encoder(self):
        seqs = [["mov", "%rax", "%rbx", "add", "$IMM", "%rax"]] * 30
        vocab = Vocab.build(seqs)
        model = Word2Vec(vocab, Word2VecConfig(dim=32, epochs=1)).train(seqs)
        return VucEncoder(model)

    def test_dimensions(self, encoder):
        assert encoder.token_dim == 32
        assert encoder.instruction_dim == 96

    def test_window_shape(self, encoder):
        window = [("mov", "%rax", "%rbx")] * 21
        (matrix,) = encoder.encode_batch([window])
        assert matrix.shape == (21, 96)
        assert matrix.dtype == np.float32

    def test_instruction_concatenation_order(self, encoder):
        window = [("mov", "%rax", "%rbx")]
        (matrix,) = encoder.encode_batch([window])
        assert np.array_equal(matrix[0, :32], encoder.embedding["mov"])
        assert np.array_equal(matrix[0, 32:64], encoder.embedding["%rax"])
        assert np.array_equal(matrix[0, 64:], encoder.embedding["%rbx"])

    def test_batch_shape(self, encoder):
        windows = [[("mov", "%rax", "%rbx")] * 21] * 5
        batch = encoder.encode_batch(windows)
        assert batch.shape == (5, 21, 96)

    def test_empty_batch(self, encoder):
        assert encoder.encode_batch([]).shape[0] == 0

    def test_empty_batch_keeps_window_length(self, encoder):
        """Regression: with a declared length, an empty batch must come
        back [0, L, C] (not [0, 0, C]) so downstream reshapes/concats
        over chunked corpora keep working."""
        batch = encoder.encode_batch([], length=21)
        assert batch.shape == (0, 21, 96)
        assert batch.dtype == np.float32
        ids = encoder.encode_ids([], length=21)
        assert ids.shape == (0, 21, 3)

    def test_encode_ids_matches_batch(self, encoder):
        windows = [[("mov", "%rax", "%rbx"), ("add", "$IMM", "%rax")]] * 3
        ids = encoder.encode_ids(windows)
        assert ids.shape == (3, 2, 3)
        vectors = encoder.embedding.vectors[ids.reshape(-1)].reshape(3, 2, 96)
        assert np.allclose(encoder.encode_batch(windows), vectors)

    def test_ragged_windows_raise(self, encoder):
        windows = [
            [("mov", "%rax", "%rbx")] * 2,
            [("mov", "%rax", "%rbx")] * 3,
        ]
        with pytest.raises(ValueError):
            encoder.encode_batch(windows)
