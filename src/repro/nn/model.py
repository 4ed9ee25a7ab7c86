"""Sequential model container: training loop, prediction, persistence.

Also provides :func:`build_cati_cnn` — the 2-layer CNN (32-64) with a
fully-connected head the paper uses for every stage (§V-A), shrunk to
corpus scale via the ``fc_width`` knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.layers import Conv1d, Dense, Dropout, Flatten, Layer, MaxPool1d, ReLU
from repro.nn.losses import cross_entropy, softmax
from repro.nn.optimizers import Adam, Optimizer


@dataclass
class FitResult:
    """Training-loop telemetry."""

    losses: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)


class Sequential:
    """A plain layer stack with softmax-cross-entropy training."""

    def __init__(self, layers: list[Layer]) -> None:
        self.layers = layers

    # -- forward / backward ------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the stack.  Only a training forward leaves state, which the
        next :meth:`backward` consumes (see :mod:`repro.nn.layers`)."""
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def params(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        out = []
        for index, layer in enumerate(self.layers):
            for name, value, grad in layer.params():
                out.append((f"{index}.{name}", value, grad))
        return out

    # -- training ----------------------------------------------------------------

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 10,
        batch_size: int = 64,
        optimizer: Optimizer | None = None,
        class_weights: np.ndarray | None = None,
        seed: int = 0,
        verbose: bool = False,
    ) -> FitResult:
        """Minibatch training with shuffling; returns loss/accuracy curves."""
        optimizer = optimizer or Adam()
        rng = np.random.default_rng(seed)
        result = FitResult()
        n = len(x)
        for epoch in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            correct = 0
            batches = 0
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                logits = self.forward(x[idx], training=True)
                loss, grad = cross_entropy(logits, y[idx], class_weights)
                self.backward(grad)
                optimizer.step(self.params())
                epoch_loss += loss
                correct += int((logits.argmax(axis=1) == y[idx]).sum())
                batches += 1
            result.losses.append(epoch_loss / max(batches, 1))
            result.train_accuracy.append(correct / max(n, 1))
            if verbose:
                print(f"epoch {epoch + 1}/{epochs} loss={result.losses[-1]:.4f} "
                      f"acc={result.train_accuracy[-1]:.3f}")
        return result

    # -- inference ------------------------------------------------------------------

    def predict_proba(self, x: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """Class probabilities, batched to bound memory."""
        chunks = []
        for start in range(0, len(x), batch_size):
            logits = self.forward(x[start:start + batch_size], training=False)
            chunks.append(softmax(logits))
        if not chunks:
            return np.zeros((0, self.layers[-1].weight.shape[1]))
        return np.concatenate(chunks)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_proba(x).argmax(axis=1)

    # -- persistence ------------------------------------------------------------------

    def get_state(self) -> dict[str, np.ndarray]:
        """Flat ``{"<layer>.<param>": array}`` snapshot of every weight."""
        return {key: value for key, value, _grad in self.params()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore weights from a :meth:`get_state` dict, validating shapes.

        Missing keys and shape mismatches raise ``ValueError`` naming the
        offending parameter — a mis-sized load must never half-apply.
        """
        for key, value, _grad in self.params():
            if key not in state:
                raise ValueError(f"model state lacks parameter {key!r}")
            source = np.asarray(state[key])
            if source.shape != value.shape:
                raise ValueError(
                    f"parameter {key!r} has shape {source.shape}, "
                    f"model expects {value.shape}")
        for key, value, _grad in self.params():
            value[...] = state[key]


#: Layer class → its op kind; the inference engine runs its cascade only
#: on a stack of these kinds in the canonical order (otherwise the
#: model's own float64 forward).
_LAYER_KINDS: dict[type, str] = {
    Conv1d: "conv", ReLU: "relu", MaxPool1d: "pool",
    Flatten: "flatten", Dense: "dense", Dropout: "noop",
}


def layer_kind(layer: Layer) -> str | None:
    """The compiled-op kind of a layer (None = unknown to the engine)."""
    return _LAYER_KINDS.get(type(layer))


def build_cati_cnn(
    input_length: int,
    input_channels: int,
    n_classes: int,
    conv_channels: tuple[int, int] = (32, 64),
    fc_width: int = 128,
    dropout: float = 0.3,
    seed: int = 0,
) -> Sequential:
    """The paper's per-stage model: 2 conv layers (32-64) + FC head.

    The paper uses FC width 1024 on a ~22M-VUC corpus; ``fc_width``
    defaults to 128 for laptop-scale corpora (see DESIGN.md §2).
    """
    rng = np.random.default_rng(seed)
    layers: list = [Conv1d(input_channels, conv_channels[0], kernel_size=3, rng=rng), ReLU()]
    length = input_length
    if length >= 2:
        layers.append(MaxPool1d(2))
        length //= 2
    layers.extend([Conv1d(conv_channels[0], conv_channels[1], kernel_size=3, rng=rng), ReLU()])
    if length >= 2:
        layers.append(MaxPool1d(2))
        length //= 2
    layers.extend([
        Flatten(),
        Dense(length * conv_channels[1], fc_width, rng=rng),
        ReLU(),
        Dropout(dropout, rng=rng),
        Dense(fc_width, n_classes, rng=rng),
    ])
    return Sequential(layers)
