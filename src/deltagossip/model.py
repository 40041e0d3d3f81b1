"""Built-in classifiers and their batch SGD primitives.

Two architectures share one code path: softmax regression (hidden_dim=0)
and a one-hidden-layer tanh perceptron. Both are deterministic functions
of (seed, inputs); the aggregation math upstream only ever sees their flat
parameter vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DatasetShard, concat_shards
from .params import ParameterVector, make_layout


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    class_count: int
    hidden_dim: int = 0  # 0 = softmax regression
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if self.hidden_dim < 0:
            raise ValueError("hidden_dim must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray  # (size, input_dim)
    labels: np.ndarray  # (size,)

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if inputs.ndim != 2 or labels.ndim != 1:
            raise ValueError("batch inputs must be (size, dim), labels (size,)")
        if inputs.shape[0] != labels.shape[0] or labels.shape[0] < 1:
            raise ValueError("batch needs >= 1 sample with matching labels")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.labels.shape[0]


def model_layout(config: ModelConfig):
    d, h, k = config.input_dim, config.hidden_dim, config.class_count
    if h > 0:
        return make_layout(
            [("hidden_w", d * h), ("hidden_b", h), ("out_w", h * k), ("out_b", k)]
        )
    return make_layout([("out_w", d * k), ("out_b", k)])


def init_weights(config: ModelConfig) -> ParameterVector:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    d, h, k = config.input_dim, config.hidden_dim, config.class_count
    rng = np.random.default_rng(config.seed)
    layout = model_layout(config)
    values = np.zeros(sum(seg.length for seg in layout))
    if h > 0:
        s1, s2 = 1.0 / np.sqrt(d), 1.0 / np.sqrt(h)
        values[: d * h] = rng.uniform(-s1, s1, d * h)
        values[d * h + h : d * h + h + h * k] = rng.uniform(-s2, s2, h * k)
    else:
        s = 1.0 / np.sqrt(d)
        values[: d * k] = rng.uniform(-s, s, d * k)
    return ParameterVector(values, layout)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class TrainableModel:
    """A classifier over a flat ParameterVector with analytic gradients."""

    def __init__(self, config: ModelConfig, weights: ParameterVector | None = None):
        self.config = config
        expected = model_layout(config)
        if weights is None:
            weights = init_weights(config)
        elif weights.layout != expected:
            raise ValueError("weights do not match the model layout")
        self.weights = weights

    def _unpack(self):
        cfg = self.config
        d, h, k = cfg.input_dim, cfg.hidden_dim, cfg.class_count
        w = self.weights
        if h > 0:
            return (
                w.segment("hidden_w").reshape(d, h),
                w.segment("hidden_b"),
                w.segment("out_w").reshape(h, k),
                w.segment("out_b"),
            )
        return None, None, w.segment("out_w").reshape(d, k), w.segment("out_b")

    def logits(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.config.input_dim:
            raise ValueError(
                f"expected inputs of shape (n, {self.config.input_dim}), got {inputs.shape}"
            )
        w1, b1, w2, b2 = self._unpack()
        if w1 is None:
            return inputs @ w2 + b2
        hidden = np.tanh(inputs @ w1 + b1)
        return hidden @ w2 + b2

    def loss_and_gradient(self, batch: Batch) -> tuple[float, ParameterVector]:
        """Mean cross-entropy over the batch and its gradient."""
        cfg = self.config
        if batch.inputs.shape[1] != cfg.input_dim:
            raise ValueError("batch feature dimension does not match the model")
        if batch.labels.max() >= cfg.class_count:
            raise ValueError("batch labels exceed the model class count")

        x, y, n = batch.inputs, batch.labels, batch.size
        w1, b1, w2, b2 = self._unpack()
        if w1 is None:
            hidden = x
        else:
            hidden = np.tanh(x @ w1 + b1)
        logits = hidden @ w2 + b2
        log_probs = _log_softmax(logits)
        loss = float(-log_probs[np.arange(n), y].mean())
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite loss")

        d_logits = np.exp(log_probs)
        d_logits[np.arange(n), y] -= 1.0
        d_logits /= n

        grad = np.empty(len(self.weights))
        g_w2 = hidden.T @ d_logits
        g_b2 = d_logits.sum(axis=0)
        if w1 is None:
            grad[: g_w2.size] = g_w2.ravel()
            grad[g_w2.size :] = g_b2
        else:
            d_hidden = (d_logits @ w2.T) * (1.0 - hidden**2)
            g_w1 = x.T @ d_hidden
            g_b1 = d_hidden.sum(axis=0)
            grad[:] = np.concatenate(
                [g_w1.ravel(), g_b1, g_w2.ravel(), g_b2]
            )
        return loss, self.weights.with_values(grad)


def sgd_batch_step(model: TrainableModel, batch: Batch) -> ParameterVector:
    """One descent step w <- w - lr * grad; the model is updated in place."""
    _, grad = model.loss_and_gradient(batch)
    model.weights = model.weights - model.config.learning_rate * grad
    return model.weights


def train_epochs(
    model: TrainableModel,
    shard: DatasetShard,
    epochs: int,
    batch_size: int,
    start_epoch: int = 0,
) -> ParameterVector:
    """Mini-batch SGD for the given number of epochs; returns the weight delta.

    Shuffling is a deterministic permutation of (model seed, absolute epoch
    index), so replays and staggered single-epoch calls agree. The final
    weights are recomposed as before + delta, which makes the delta apply
    back bitwise.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if shard.size < 1:
        raise ValueError("cannot train on an empty shard")

    before = model.weights
    for e in range(epochs):
        order = np.random.default_rng(
            [model.config.seed, start_epoch + e]
        ).permutation(shard.size)
        for lo in range(0, shard.size, batch_size):
            idx = order[lo : lo + batch_size]
            sgd_batch_step(model, Batch(shard.inputs[idx], shard.labels[idx]))
    delta = model.weights - before
    model.weights = before + delta
    return delta


def centralized_reference_train(
    shards,
    config: ModelConfig,
    epochs: int,
    batch_size: int = 32,
) -> ParameterVector:
    """Train one model on the union of all shards (the no-network ideal)."""
    union = concat_shards(shards)
    if union.dim != config.input_dim:
        raise ValueError("shard feature dimension does not match the config")
    model = TrainableModel(config)
    train_epochs(model, union, epochs, batch_size)
    return model.weights


def evaluate(model: TrainableModel, dataset: DatasetShard) -> tuple[float, float]:
    """(accuracy, mean cross-entropy loss) on a dataset; argmax ties go low."""
    if dataset.size < 1:
        raise ValueError("cannot evaluate on an empty dataset")
    if dataset.labels.max() >= model.config.class_count:
        raise ValueError("dataset labels exceed the model class count")
    log_probs = _log_softmax(model.logits(dataset.inputs))
    predictions = np.argmax(log_probs, axis=1)
    accuracy = float(np.mean(predictions == dataset.labels))
    loss = float(-log_probs[np.arange(dataset.size), dataset.labels].mean())
    return accuracy, loss
