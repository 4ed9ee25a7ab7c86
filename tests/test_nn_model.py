"""Sequential model and optimizer tests."""

import numpy as np
import pytest

from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential, build_cati_cnn
from repro.nn.optimizers import SGD, Adam
from tests.test_nn_layers import held_arrays, traced_growth


def _xor_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 2)).astype(np.float32)
    y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(np.int64)
    return x, y


class TestSequential:
    def test_fit_learns_xor(self):
        x, y = _xor_data()
        rng = np.random.default_rng(1)
        model = Sequential([Dense(2, 32, rng), ReLU(), Dense(32, 2, rng)])
        result = model.fit(x, y, epochs=60, batch_size=32, optimizer=Adam(1e-2))
        assert result.train_accuracy[-1] > 0.9
        assert result.losses[-1] < result.losses[0]

    def test_sgd_also_converges(self):
        x, y = _xor_data()
        rng = np.random.default_rng(2)
        model = Sequential([Dense(2, 32, rng), ReLU(), Dense(32, 2, rng)])
        result = model.fit(x, y, epochs=80, batch_size=32, optimizer=SGD(0.05))
        assert result.train_accuracy[-1] > 0.85

    def test_predict_proba_rows_sum_to_one(self):
        x, y = _xor_data(50)
        rng = np.random.default_rng(3)
        model = Sequential([Dense(2, 8, rng), ReLU(), Dense(8, 3, rng)])
        probs = model.predict_proba(x)
        assert probs.shape == (50, 3)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_predict_proba_batching_consistent(self):
        x, _y = _xor_data(100)
        rng = np.random.default_rng(4)
        model = Sequential([Dense(2, 8, rng), ReLU(), Dense(8, 2, rng)])
        small = model.predict_proba(x, batch_size=7)
        big = model.predict_proba(x, batch_size=100)
        assert np.allclose(small, big, atol=1e-6)

    def test_save_load_round_trip(self):
        x, y = _xor_data(50)
        rng = np.random.default_rng(5)
        model = Sequential([Dense(2, 8, rng), ReLU(), Dense(8, 2, rng)])
        model.fit(x, y, epochs=5)
        clone = Sequential([Dense(2, 8), ReLU(), Dense(8, 2)])
        clone.load_state(model.get_state())
        assert np.array_equal(model.predict_proba(x), clone.predict_proba(x))

    def test_deterministic_training(self):
        x, y = _xor_data(80)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(6)
            model = Sequential([Dense(2, 8, rng), ReLU(), Dense(8, 2, rng)])
            model.fit(x, y, epochs=5, seed=0)
            outs.append(model.predict_proba(x[:5]))
        assert np.array_equal(outs[0], outs[1])

    def test_class_weights_shift_decisions(self):
        """Heavily weighting class 1 must increase its prediction share."""
        rng0 = np.random.default_rng(7)
        x = rng0.normal(size=(300, 4)).astype(np.float32)
        y = (rng0.random(300) < 0.15).astype(np.int64)  # skewed
        share = []
        for weights in (None, np.array([0.2, 5.0])):
            rng = np.random.default_rng(8)
            model = Sequential([Dense(4, 16, rng), ReLU(), Dense(16, 2, rng)])
            model.fit(x, y, epochs=20, class_weights=weights, seed=1)
            share.append((model.predict(x) == 1).mean())
        assert share[1] > share[0]


class TestCatiCnn:
    def test_architecture_shapes(self):
        model = build_cati_cnn(21, 96, 5, fc_width=64)
        probs = model.predict_proba(np.zeros((3, 21, 96), dtype=np.float32))
        assert probs.shape == (3, 5)
        assert model.predict_proba(np.zeros((0, 21, 96), dtype=np.float32)).shape == (0, 5)

    def test_learns_positional_signal(self):
        """The CNN must pick up a signal at the central (target) position."""
        rng = np.random.default_rng(9)
        x = rng.normal(size=(400, 21, 16)).astype(np.float32)
        y = (x[:, 10, 0] > 0).astype(np.int64)
        model = build_cati_cnn(21, 16, 2, conv_channels=(8, 16), fc_width=32)
        result = model.fit(x, y, epochs=30, optimizer=Adam(2e-3), seed=2)
        assert result.train_accuracy[-1] > 0.75

    def test_fit_leaves_no_activation_behind(self):
        """Once ``fit`` returns no layer holds a minibatch: each backward
        consumed what its training forward recorded."""
        rng = np.random.default_rng(10)
        x = rng.normal(size=(256, 21, 96)).astype(np.float32)
        y = rng.integers(0, 5, size=256)
        model = build_cati_cnn(21, 96, 5, fc_width=64)
        _result, growth = traced_growth(lambda: model.fit(x, y, epochs=1, seed=3))
        assert growth <= 1_000_000
        for layer in model.layers:
            assert held_arrays(layer) == [], type(layer).__name__

    def test_default_follows_paper_conv_channels(self):
        model = build_cati_cnn(21, 96, 2)
        conv_layers = [l for l in model.layers if l.__class__.__name__ == "Conv1d"]
        assert [c.out_channels for c in conv_layers] == [32, 64]


class TestOptimizers:
    def test_adam_bias_correction_first_step(self):
        """First Adam step must be ~lr in magnitude, not lr*(1-beta1)."""
        param = np.zeros(1, dtype=np.float32)
        grad = np.ones(1, dtype=np.float32)
        adam = Adam(learning_rate=0.1)
        adam.step([("p", param, grad)])
        assert np.isclose(param[0], -0.1, atol=1e-3)

    def test_sgd_momentum_accumulates(self):
        param = np.zeros(1, dtype=np.float32)
        grad = np.ones(1, dtype=np.float32)
        sgd = SGD(learning_rate=0.1, momentum=0.9)
        sgd.step([("p", param, grad)])
        first = param.copy()
        sgd.step([("p", param, grad)])
        second_delta = param - first
        assert abs(second_delta[0]) > abs(first[0])  # momentum grows the step
