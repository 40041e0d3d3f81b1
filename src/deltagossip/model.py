"""Built-in classifiers and their batch SGD primitives.

Two architectures share one code path: softmax regression (hidden_dim=0)
and a one-hidden-layer tanh perceptron. Both are deterministic functions
of (seed, inputs); the aggregation math upstream only ever sees their flat
parameter vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DatasetShard, concat_shards
from .params import ParameterVector, make_layout, require_ints, require_positive


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    class_count: int
    hidden_dim: int = 0  # 0 = softmax regression
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        require_ints(input_dim=self.input_dim, class_count=self.class_count,
                     hidden_dim=self.hidden_dim, seed=self.seed)
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if self.hidden_dim < 0:
            raise ValueError("hidden_dim must be >= 0")
        require_positive(learning_rate=self.learning_rate)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def model_layout(config: ModelConfig):
    d, h, k = config.input_dim, config.hidden_dim, config.class_count
    if h > 0:
        return make_layout(
            [("hidden_w", d * h), ("hidden_b", h), ("out_w", h * k), ("out_b", k)]
        )
    return make_layout([("out_w", d * k), ("out_b", k)])


def init_weights(config: ModelConfig) -> ParameterVector:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases.

    The hidden weights draw first, then the output weights, each filled in
    row-major order through its ``_layers`` view.
    """
    rng = np.random.default_rng(config.seed)
    layout = model_layout(config)
    values = np.zeros(sum(seg.length for seg in layout))
    w1, _, w2, _ = _layers(config, values)
    for w in (w1, w2):
        if w is not None:
            bound = 1.0 / np.sqrt(w.shape[0])  # fan_in
            w[...] = rng.uniform(-bound, bound, w.shape)
    return ParameterVector(values, layout)


DIM_MISMATCH = "batch feature dimension does not match the model"
LABELS_EXCEED = "batch labels exceed the model class count"
NON_FINITE_LOSS = "non-finite loss"
NON_FINITE_WEIGHTS = "parameter values must be finite"


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _layers(config: ModelConfig, w: np.ndarray):
    """(hidden_w, hidden_b, out_w, out_b) of weights w (..., P) as views.

    The leading axes of w are kept, and each bias gets a sample axis so that
    it broadcasts over a batch. The hidden pair is None at hidden_dim=0.
    """
    d, h, k = config.input_dim, config.hidden_dim, config.class_count
    lead = w.shape[:-1]
    out = h * (d + 1)  # out_w starts past hidden_w and hidden_b
    w2, b2 = w[..., out:-k].reshape(*lead, -1, k), w[..., None, -k:]
    if h == 0:
        return None, None, w2, b2
    return w[..., : d * h].reshape(*lead, d, h), w[..., None, d * h : out], w2, b2


def _forward(config: ModelConfig, w: np.ndarray, x: np.ndarray):
    """(hidden activations, logits) for inputs x (..., n, d) under weights w (..., P).

    Leading axes pair each model with its own inputs; a single model is the
    2-d case. The hidden layer is x itself at hidden_dim=0. Bias and tanh
    act in place on the fresh matmul results, with the same roundings as
    ``tanh(x @ w1 + b1)`` and ``hidden @ w2 + b2``.
    """
    w1, b1, w2, b2 = _layers(config, w)
    hidden = x
    if w1 is not None:
        hidden = x @ w1
        hidden += b1
        np.tanh(hidden, out=hidden)
    logits = hidden @ w2
    logits += b2
    return hidden, logits


def _loss_and_gradient(config: ModelConfig, w: np.ndarray, x: np.ndarray, y: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    """Mean cross-entropy (...) over the leading axes of w (..., P); its gradient goes to out.

    ``out`` is a caller-owned C-contiguous buffer of w's shape; every value
    of it is overwritten. Each gradient segment (hidden_w, hidden_b, out_w,
    out_b) is written straight into its ``_layers`` view of ``out``, so a
    step allocates nothing of size P. The matmuls and bias sums into these
    views are bitwise equal to the same operations into fresh arrays.
    """
    hidden, logits = _forward(config, w, x)
    log_probs = _log_softmax(logits)
    pick = (*np.indices(y.shape, sparse=True), y)  # each sample's true-class entry
    loss = -log_probs[pick].mean(axis=-1)

    d_logits = np.exp(log_probs)
    d_logits[pick] -= 1.0
    d_logits /= y.shape[-1]

    g1, gb1, g2, gb2 = _layers(config, out)
    np.matmul(np.swapaxes(hidden, -1, -2), d_logits, out=g2)
    d_logits.sum(axis=-2, out=gb2[..., 0, :])
    if config.hidden_dim > 0:
        d_hidden = d_logits @ np.swapaxes(_layers(config, w)[2], -1, -2)
        slope = hidden * hidden  # the tanh derivative 1 - hidden**2
        np.subtract(1.0, slope, out=slope)
        d_hidden *= slope
        np.matmul(np.swapaxes(x, -1, -2), d_hidden, out=g1)
        d_hidden.sum(axis=-2, out=gb1[..., 0, :])
    return loss


class TrainingError(ValueError):
    """Training failed for one model of a group.

    ``row`` indexes the model in its group and ``epoch`` is the absolute
    epoch index in which it failed.
    """

    def __init__(self, row: int, epoch: int, message: str):
        super().__init__(message)
        self.row = row
        self.epoch = epoch


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

    def logits(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.config.input_dim:
            raise ValueError(
                f"expected inputs of shape (n, {self.config.input_dim}), got {inputs.shape}"
            )
        return _forward(self.config, self.weights.values, inputs)[1]

    def loss_and_gradient(self, batch: DatasetShard) -> tuple[float, ParameterVector]:
        """Mean cross-entropy over a non-empty batch and its gradient."""
        cfg = self.config
        if batch.size < 1:
            raise ValueError("cannot compute a loss on an empty batch")
        if batch.dim != cfg.input_dim:
            raise ValueError(DIM_MISMATCH)
        if batch.labels.max() >= cfg.class_count:
            raise ValueError(LABELS_EXCEED)
        grad = np.empty(len(self.weights))
        loss = _loss_and_gradient(cfg, self.weights.values, batch.inputs, batch.labels, grad)
        if not np.isfinite(loss):
            raise FloatingPointError(NON_FINITE_LOSS)
        return float(loss), self.weights.with_values(grad)


def sgd_batch_step(model: TrainableModel, batch: DatasetShard) -> ParameterVector:
    """One descent step w <- w - lr * grad; the model is updated in place."""
    _, grad = model.loss_and_gradient(batch)
    model.weights = model.weights - model.config.learning_rate * grad
    return model.weights


def train_epochs(
    models,
    inputs: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    batch_size: int,
    start_epoch: int = 0,
) -> list[ParameterVector]:
    """Mini-batch SGD on a group of models; returns each model's weight delta.

    The models share one ModelConfig and train on shards of one size,
    stacked as ``inputs`` (G, n, d) and ``labels`` (G, n), row g for
    ``models[g]``; a single model is a group of one (``shard.inputs[None]``).
    Shuffling is a deterministic permutation of (model seed, absolute epoch
    index), so the whole group walks the same batches, replays agree, and
    staggered single-epoch calls walk the same sequence as one long call.
    Each batch is one stacked step over the group, bitwise equal to training
    every model on its own. The group's weights are one private (G, P) copy,
    and each step writes its gradient into one buffer allocated per call and
    updates the weights in place (``grad *= lr; w -= grad``: the roundings
    of ``w - lr * grad``), so no step allocates a (G, P) float array. Each
    model's final weights are recomposed as before + delta, which makes the
    delta apply back bitwise. The caller's inputs, labels and
    ParameterVectors are not written.

    A failing model (non-finite loss or weights, labels beyond the class
    count) raises TrainingError for the lowest failing row of the first
    epoch in which any row fails; no model is updated then. The loss is
    checked after every step and the weights once per epoch; a row is
    labelled by whichever went non-finite first.
    """
    models = list(models)
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not models:
        raise ValueError("need at least one model")
    cfg = models[0].config
    if any(m.config != cfg for m in models):
        raise ValueError("models of one group must share one ModelConfig")
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if inputs.ndim != 3 or labels.shape != inputs.shape[:2] or len(labels) != len(models):
        raise ValueError("need inputs (G, n, d) and labels (G, n) for G models")
    size = labels.shape[1]
    if size < 1:
        raise ValueError("cannot train on an empty shard")
    if inputs.shape[2] != cfg.input_dim:
        raise TrainingError(0, start_epoch, DIM_MISMATCH)

    # Rows with out-of-range labels fail in the first epoch; they train on
    # class 0 meanwhile so that the other rows' failures can still be found.
    out_of_range = np.flatnonzero(labels.max(axis=1) >= cfg.class_count)
    failures = {int(r): LABELS_EXCEED for r in out_of_range}
    if failures:
        labels = np.where(labels < cfg.class_count, labels, 0)

    w = np.stack([m.weights.values for m in models])  # private: updated in place
    grad = np.empty(w.shape)
    for e in range(epochs):
        order = np.random.default_rng([cfg.seed, start_epoch + e]).permutation(size)
        # A failed row computes on inf/NaN until the epoch ends; its warnings
        # would say nothing that the TrainingError does not.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, size, batch_size):
                # take, unlike inputs[:, idx], returns C-contiguous rows: every
                # model's matmuls see the strides a lone model's batch has.
                idx = order[lo : lo + batch_size]
                x, y = inputs.take(idx, axis=1), labels.take(idx, axis=1)
                loss = _loss_and_gradient(cfg, w, x, y, grad)
                if not np.isfinite(loss).all():
                    # w still holds the pre-step weights: a row that went
                    # non-finite in an earlier step failed on its weights.
                    for r in np.flatnonzero(~np.isfinite(loss)):
                        failures.setdefault(int(r), NON_FINITE_LOSS
                                            if np.isfinite(w[r]).all() else NON_FINITE_WEIGHTS)
                grad *= cfg.learning_rate
                w -= grad
        # Non-finite weights stay non-finite under w -= grad, so one check
        # per epoch finds every row whose weights failed with a finite loss.
        for r in np.flatnonzero(~np.isfinite(w).all(axis=1)):
            failures.setdefault(int(r), NON_FINITE_WEIGHTS)
        if failures:
            row = min(failures)
            raise TrainingError(row, start_epoch + e, failures[row])

    deltas = []
    for model, after in zip(models, w):
        delta = model.weights.with_values(after - model.weights.values)
        model.weights = model.weights + delta
        deltas.append(delta)
    return deltas


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
    train_epochs([model], union.inputs[None], union.labels[None], epochs, batch_size)
    return model.weights


def evaluate(model: TrainableModel, dataset: DatasetShard) -> float:
    """Accuracy on a dataset: the share of samples whose predicted class is the label.

    The prediction is the argmax of the log-softmax, ``np.argmax(_log_softmax(
    logits), axis=-1)``, not of the raw logits, and ties go to the lowest
    class; the log-softmax shift can round two logits to one value, so the
    two rules are not bitwise interchangeable.

    Most calls count hits without the log-softmax. On contiguous class
    planes (k, n), because NumPy reduces a narrow last axis row by row,
    slowly, each sample's shifts are s_j = z_j - max(z) <= 0, its top class
    has s = 0, and its log-softmax is fl(s_j - lse) with lse =
    log(sum(exp(s))). A finite max bounds 0 <= lse <= log(k) + 1, so with
    T = ulp(log(k) + 1) >= ulp(lse), a class at s_j <= -T lies at least
    ulp(lse) below the top class's exact -lse, and rounding to nearest
    keeps it strictly below. So if every max is finite and each sample has
    exactly one class above -T, that class is the argmax, and a sample is a
    hit when its label's shift is 0. Otherwise (a near-tie, or a sample
    with a NaN or +inf logit or with every logit -inf) the whole call takes
    the definition, whose NaN rows predict class 0 as ``np.argmax`` does.
    """
    if dataset.size < 1:
        raise ValueError("cannot evaluate on an empty dataset")
    if dataset.labels.max() >= model.config.class_count:
        raise ValueError("dataset labels exceed the model class count")
    logits = model.logits(dataset.inputs)
    n, k = logits.shape
    planes = logits.T.copy()
    top = planes.max(axis=0)
    planes -= top
    # A finite max puts at least its own class above -T, so n such entries
    # in all means exactly one per sample.
    if np.isfinite(top).all() and np.count_nonzero(planes > -math.ulp(math.log(k) + 1.0)) == n:
        hits = np.count_nonzero(planes[dataset.labels, np.arange(n)] == 0.0)
    else:
        hits = np.count_nonzero(np.argmax(_log_softmax(logits), axis=-1) == dataset.labels)
    return float(hits / dataset.size)
