"""Gradient checks for every NN layer against finite differences, plus
shape/behavior tests and the layers' state contract.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.nn.layers import Conv1d, Dense, Dropout, Flatten, MaxPool1d, ReLU
from repro.nn.losses import cross_entropy, softmax


def _numeric_grad(f, x, eps=1e-4):
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = f()
        flat[i] = original - eps
        down = f()
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


def _check_input_grad(layer, x, tol=2e-3):
    rng = np.random.default_rng(0)
    out = layer.forward(x, training=True)
    upstream = rng.normal(size=out.shape)

    def loss():
        return float((layer.forward(x, training=False) * upstream).sum())

    analytic = layer.backward(upstream)
    numeric = _numeric_grad(loss, x)
    assert np.allclose(analytic, numeric, atol=tol), (
        f"max err {np.abs(analytic - numeric).max()}"
    )


def _check_param_grads(layer, x, tol=2e-3):
    rng = np.random.default_rng(1)
    out = layer.forward(x, training=True)
    upstream = rng.normal(size=out.shape)
    layer.backward(upstream)
    for name, value, grad in layer.params():
        def loss():
            return float((layer.forward(x, training=False) * upstream).sum())

        numeric = _numeric_grad(loss, value)
        assert np.allclose(grad, numeric, atol=tol), (
            f"{name}: max err {np.abs(grad - numeric).max()}"
        )


class TestDense:
    def test_forward_shape(self):
        layer = Dense(8, 3)
        assert layer.forward(np.zeros((4, 8), dtype=np.float64)).shape == (4, 3)

    def test_input_gradient(self):
        x = np.random.default_rng(0).normal(size=(3, 6))
        _check_input_grad(Dense(6, 4), x)

    def test_param_gradients(self):
        x = np.random.default_rng(0).normal(size=(3, 6))
        _check_param_grads(Dense(6, 4), x)


class TestConv1d:
    def test_same_padding_shape(self):
        layer = Conv1d(8, 5, kernel_size=3)
        out = layer.forward(np.zeros((2, 21, 8), dtype=np.float64))
        assert out.shape == (2, 21, 5)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            Conv1d(4, 4, kernel_size=2)

    def test_input_gradient(self):
        x = np.random.default_rng(0).normal(size=(2, 7, 3))
        _check_input_grad(Conv1d(3, 4, kernel_size=3), x)

    def test_param_gradients(self):
        x = np.random.default_rng(2).normal(size=(2, 6, 3))
        _check_param_grads(Conv1d(3, 2, kernel_size=3), x)

    def test_kernel5_gradient(self):
        x = np.random.default_rng(3).normal(size=(1, 9, 2))
        _check_input_grad(Conv1d(2, 3, kernel_size=5), x)

    @pytest.mark.parametrize("in_channels, out_channels, length", [
        (96, 32, 21),   # conv1: cols [64, 21, 288]
        (32, 64, 10),   # conv2: cols [64, 10, 96]
    ])
    def test_weight_gradient_matches_einsum(self, in_channels, out_channels, length):
        """The weight-gradient GEMM against the einsum it replaced, on the
        shapes and dtypes training passes: float32 activations, float64
        upstream gradient (MaxPool1d.backward promotes it)."""
        rng = np.random.default_rng(11)
        layer = Conv1d(in_channels, out_channels, kernel_size=3, rng=rng)
        layer.d_weight = np.zeros(layer.weight.shape)  # float64: keep the product unrounded
        layer.forward(rng.normal(size=(64, length, in_channels)).astype(np.float32),
                      training=True)
        _x_shape, cols = layer._pending  # backward consumes it
        grad = rng.normal(size=(64, length, out_channels))
        layer.backward(grad)
        assert cols.shape == (64, length, 3 * in_channels) and cols.dtype == np.float32
        reference = np.einsum("blk,blo->ko", cols, grad)
        # Both sum 64 * length float64 products per entry, in different orders.
        assert np.abs(layer.d_weight - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_identity_kernel(self):
        """A kernel that only picks the center column reproduces a linear map."""
        layer = Conv1d(2, 2, kernel_size=3)
        layer.weight[...] = 0.0
        layer.weight[2, 0] = 1.0  # center position, channel 0 -> out 0
        layer.weight[3, 1] = 1.0
        layer.bias[...] = 0.0
        x = np.random.default_rng(4).normal(size=(1, 5, 2)).astype(np.float32)
        out = layer.forward(x)
        assert np.allclose(out, x, atol=1e-6)


class TestReLU:
    def test_forward(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_gradient_masks_negatives(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]), training=True)
        grad = layer.backward(np.array([[5.0, 5.0]]))
        assert np.array_equal(grad, [[0.0, 5.0]])

    def test_numeric_gradient(self):
        x = np.random.default_rng(5).normal(size=(3, 4)) + 0.5
        _check_input_grad(ReLU(), x)


class TestMaxPool1d:
    def test_forward_shape(self):
        layer = MaxPool1d(2)
        assert layer.forward(np.zeros((2, 21, 4))).shape == (2, 10, 4)

    def test_forward_values(self):
        layer = MaxPool1d(2)
        x = np.array([[[1.0], [3.0], [2.0], [0.0]]])
        assert np.array_equal(layer.forward(x), [[[3.0], [2.0]]])

    def test_gradient_conserved(self):
        layer = MaxPool1d(2)
        x = np.random.default_rng(6).normal(size=(2, 8, 3))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(out))
        assert np.isclose(grad.sum(), out.size)

    def test_numeric_gradient(self):
        x = np.random.default_rng(7).normal(size=(1, 6, 2))
        _check_input_grad(MaxPool1d(2), x)

    def test_odd_length_trims_tail(self):
        layer = MaxPool1d(2)
        x = np.random.default_rng(8).normal(size=(1, 5, 1))
        out = layer.forward(x, training=True)
        assert out.shape == (1, 2, 1)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape
        assert grad[0, 4, 0] == 0.0  # trimmed tail gets no gradient


class TestFlattenDropout:
    def test_flatten_round_trip(self):
        layer = Flatten()
        x = np.random.default_rng(9).normal(size=(2, 3, 4))
        out = layer.forward(x, training=True)
        assert out.shape == (2, 12)
        assert layer.backward(out).shape == x.shape

    def test_dropout_identity_at_inference(self):
        layer = Dropout(0.5)
        x = np.ones((4, 4))
        assert np.array_equal(layer.forward(x, training=False), x)

    def test_dropout_scales_at_training(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((100, 100))
        out = layer.forward(x, training=True)
        kept = out[out > 0]
        assert np.allclose(kept, 2.0)
        assert 0.4 < (out > 0).mean() < 0.6

    def test_dropout_rate_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


def held_arrays(layer) -> list[np.ndarray]:
    """The ndarrays ``layer`` holds beyond its parameters and their gradients."""
    own = {id(array) for _name, value, grad in layer.params() for array in (value, grad)}
    found = []

    def walk(value):
        if isinstance(value, np.ndarray):
            if id(value) not in own:
                found.append(value)
        elif isinstance(value, (tuple, list)):
            for item in value:
                walk(item)

    for value in vars(layer).values():
        walk(value)
    return found


def traced_growth(call):
    """``(call(), bytes still allocated once it returns)``, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


#: (layer factory, input shape): every layer kind, Dropout both when it
#: draws a mask and when its rate is 0.
CONTRACT_LAYERS = {
    "conv1d": (lambda: Conv1d(3, 4, kernel_size=3, rng=np.random.default_rng(12)), (2, 6, 3)),
    "relu": (ReLU, (2, 6, 3)),
    "maxpool1d": (lambda: MaxPool1d(2), (2, 6, 3)),
    "flatten": (Flatten, (2, 6, 3)),
    "dense": (lambda: Dense(6, 4, rng=np.random.default_rng(13)), (3, 6)),
    "dropout": (lambda: Dropout(0.5, rng=np.random.default_rng(14)), (3, 6)),
    "dropout-rate0": (lambda: Dropout(0.0), (3, 6)),
}


@pytest.mark.parametrize("kind", sorted(CONTRACT_LAYERS))
class TestStateContract:
    """``forward(training=True)`` records what ``backward`` reads and
    ``backward`` consumes it; ``forward(training=False)`` writes nothing."""

    @staticmethod
    def _layer_and_input(kind):
        make, shape = CONTRACT_LAYERS[kind]
        return make(), np.random.default_rng(15).normal(size=shape)

    def test_inference_forward_writes_nothing(self, kind):
        layer, x = self._layer_and_input(kind)
        before = dict(vars(layer))
        layer.forward(x, training=False)
        after = vars(layer)
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())

    def test_backward_without_training_forward_raises(self, kind):
        layer, x = self._layer_and_input(kind)
        out = layer.forward(x, training=False)
        with pytest.raises(RuntimeError, match=type(layer).__name__):
            layer.backward(np.ones_like(out))

    def test_backward_consumes_the_training_forward(self, kind):
        layer, x = self._layer_and_input(kind)
        out = layer.forward(x, training=True)
        layer.backward(np.ones_like(out))
        assert held_arrays(layer) == []
        with pytest.raises(RuntimeError, match=type(layer).__name__):
            layer.backward(np.ones_like(out))


def test_inference_forward_between_does_not_redirect_backward():
    """forward(A, training=True), forward(B), backward(grad_A) differentiates A."""
    rng = np.random.default_rng(16)
    a, b = rng.normal(size=(2, 2, 7, 3))
    upstream = rng.normal(size=(2, 7, 4))
    reference = Conv1d(3, 4, kernel_size=3, rng=np.random.default_rng(17))
    reference.forward(a, training=True)
    want_dx = reference.backward(upstream)

    layer = Conv1d(3, 4, kernel_size=3, rng=np.random.default_rng(17))
    layer.forward(a, training=True)
    layer.forward(b, training=False)
    got_dx = layer.backward(upstream)
    assert np.array_equal(got_dx, want_dx)
    assert np.array_equal(layer.d_weight, reference.d_weight)
    assert np.array_equal(layer.d_bias, reference.d_bias)


class TestLoss:
    def test_softmax_rows_sum_to_one(self):
        probs = softmax(np.random.default_rng(0).normal(size=(5, 7)))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_softmax_stability(self):
        probs = softmax(np.array([[1e4, 0.0]]))
        assert not np.isnan(probs).any()

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])

        def loss():
            return cross_entropy(logits, labels)[0]

        _, analytic = cross_entropy(logits, labels)
        numeric = _numeric_grad(loss, logits)
        assert np.allclose(analytic, numeric, atol=1e-4)

    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _grad = cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-6

    def test_class_weights_scale_loss(self):
        logits = np.zeros((2, 2))
        labels = np.array([0, 1])
        weights = np.array([2.0, 0.5])
        weighted, _ = cross_entropy(logits, labels, weights)
        unweighted, _ = cross_entropy(logits, labels)
        assert weighted != unweighted
