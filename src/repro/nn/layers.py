"""Layers of the from-scratch numpy neural-network library.

Implements exactly what CATI's classifier needs (§V-A): 1-D convolutions
over the 21-instruction axis, ReLU, max-pooling, dense layers and
dropout.  Every layer exposes ``forward(x, training)`` and
``backward(grad)``, plus ``params()`` returning (name, value, gradient)
triples for the optimizer.

State contract: ``forward(x, training=True)`` records exactly what the
matching ``backward`` reads, and that ``backward`` consumes it;
``forward(x, training=False)`` writes nothing to the layer.  So an
inference forward keeps no activation alive past its return, concurrent
inference forwards on one layer are safe, and a trained model holds no
minibatch once its last ``backward`` has run.  ``backward`` without a
pending training forward raises ``RuntimeError``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import glorot_uniform, he_uniform, zeros


class Layer:
    """Base layer: stateless by default."""

    #: What the pending training forward left for ``backward`` (None: nothing pending).
    _pending: tuple | None = None

    def _take_pending(self) -> tuple:
        """Hand the pending training forward's record to ``backward``, once."""
        pending, self._pending = self._pending, None
        if pending is None:
            raise RuntimeError(f"{type(self).__name__}.backward called without a "
                               "pending training forward")
        return pending

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        return []

    def state(self) -> dict[str, np.ndarray]:
        """Serializable parameter dict (empty for stateless layers)."""
        return {name: value for name, value, _grad in self.params()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for name, value, _grad in self.params():
            value[...] = state[name]


class Conv1d(Layer):
    """1-D convolution over [B, L, C_in] with 'same' zero padding."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 rng: np.random.Generator | None = None) -> None:
        if kernel_size % 2 != 1:
            raise ValueError("kernel_size must be odd for 'same' padding")
        rng = rng or np.random.default_rng(0)
        self.kernel_size = kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        fan_in = kernel_size * in_channels
        self.weight = he_uniform((fan_in, out_channels), fan_in, rng)
        self.bias = zeros((out_channels,))
        self.d_weight = np.zeros_like(self.weight)
        self.d_bias = np.zeros_like(self.bias)

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        pad = self.kernel_size // 2
        padded = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (self.kernel_size, x.shape[2]), axis=(1, 2)
        )  # [B, L, 1, K, C]
        batch, length = x.shape[0], x.shape[1]
        return windows.reshape(batch, length, self.kernel_size * x.shape[2])

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        cols = self._im2col(x)                       # [B, L, K*C]
        if training:
            self._pending = (x.shape, cols)
        return cols @ self.weight + self.bias        # [B, L, C_out]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_shape, cols = self._take_pending()
        batch, length, channels = x_shape
        # One BLAS GEMM over the flattened batch x length axis; an einsum
        # over [B, L] never reaches BLAS.  The float64 products of the two
        # differ by ~1e-13, far below the rounding into float32 d_weight.
        self.d_weight[...] = (cols.reshape(-1, self.kernel_size * channels).T
                              @ grad.reshape(-1, self.out_channels))
        self.d_bias[...] = grad.sum(axis=(0, 1))
        d_cols = grad @ self.weight.T                # [B, L, K*C]
        d_cols = d_cols.reshape(batch, length, self.kernel_size, channels)
        pad = self.kernel_size // 2
        d_padded = np.zeros((batch, length + 2 * pad, channels), dtype=grad.dtype)
        for k in range(self.kernel_size):
            d_padded[:, k:k + length, :] += d_cols[:, :, k, :]
        return d_padded[:, pad:pad + length, :]

    def params(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        return [("weight", self.weight, self.d_weight), ("bias", self.bias, self.d_bias)]


class ReLU(Layer):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = x > 0
        if training:
            self._pending = (mask,)
        return x * mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        (mask,) = self._take_pending()
        return grad * mask


class MaxPool1d(Layer):
    """Max pooling over the length axis of [B, L, C] (stride = pool size)."""

    def __init__(self, pool: int = 2) -> None:
        self.pool = pool

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        batch, length, channels = x.shape
        out_len = length // self.pool
        trimmed = x[:, :out_len * self.pool, :]
        reshaped = trimmed.reshape(batch, out_len, self.pool, channels)
        out = reshaped.max(axis=2)
        if training:
            self._pending = (x.shape, reshaped, out)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_shape, reshaped, out = self._take_pending()
        mask = reshaped == out[:, :, None, :]
        # Break ties by normalizing so gradient mass is conserved.
        mask = mask / np.maximum(mask.sum(axis=2, keepdims=True), 1)
        d_reshaped = mask * grad[:, :, None, :]
        batch, length, channels = x_shape
        out_len = d_reshaped.shape[1]
        dx = np.zeros(x_shape, dtype=grad.dtype)
        dx[:, :out_len * self.pool, :] = d_reshaped.reshape(batch, out_len * self.pool, channels)
        return dx


class Flatten(Layer):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._pending = (x.shape,)
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        (x_shape,) = self._take_pending()
        return grad.reshape(x_shape)


class Dense(Layer):
    """Fully connected layer on [B, F_in] → [B, F_out]."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None) -> None:
        rng = rng or np.random.default_rng(0)
        self.weight = glorot_uniform((in_features, out_features), in_features, out_features, rng)
        self.bias = zeros((out_features,))
        self.d_weight = np.zeros_like(self.weight)
        self.d_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._pending = (x,)
        return x @ self.weight + self.bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        (x,) = self._take_pending()
        self.d_weight[...] = x.T @ grad
        self.d_bias[...] = grad.sum(axis=0)
        return grad @ self.weight.T

    def params(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        return [("weight", self.weight, self.d_weight), ("bias", self.bias, self.d_bias)]


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(self, rate: float = 0.5, rng: np.random.Generator | None = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training:
            return x
        if self.rate == 0.0:
            self._pending = (None,)
            return x
        keep = 1.0 - self.rate
        mask = (self.rng.random(x.shape) < keep) / keep
        self._pending = (mask,)
        return x * mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        (mask,) = self._take_pending()
        return grad if mask is None else grad * mask
