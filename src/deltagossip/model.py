"""Built-in classifiers and their batch SGD primitives.

Two architectures share one code path: softmax regression (hidden_dim=0)
and a one-hidden-layer tanh perceptron. Both are deterministic functions
of (seed, inputs); the aggregation math upstream only ever sees their flat
parameter vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
        require_ints(1, input_dim=self.input_dim)
        require_ints(2, class_count=self.class_count)
        require_ints(0, hidden_dim=self.hidden_dim, seed=self.seed)
        require_positive(learning_rate=self.learning_rate)

    def require_fit(self, shard: DatasetShard, name: str) -> None:
        """A ValueError naming ``name`` unless this model can take ``shard``: at least
        one sample, input_dim features and every label below class_count."""
        if shard.size < 1:
            raise ValueError(f"{name} must hold at least one sample")
        if shard.dim != self.input_dim:
            raise ValueError(f"{name} feature dimension {shard.dim} does not match "
                             f"input_dim {self.input_dim}")
        if shard.top_label >= self.class_count:
            raise ValueError(f"{name} label {shard.top_label} is not below "
                             f"class_count {self.class_count}")


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
    hidden = _hidden_layer(x, w1, b1)
    logits = hidden @ w2
    logits += b2
    return hidden, logits


def _hidden_layer(x: np.ndarray, w1, b1) -> np.ndarray:
    """``tanh(x @ w1 + b1)``, bias and tanh in place on the matmul result; x at hidden_dim=0."""
    if w1 is None:
        return x
    hidden = x @ w1
    hidden += b1
    return np.tanh(hidden, out=hidden)


def _class_planes(config: ModelConfig, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One model's logits on x (n, d) as C-contiguous class planes (k, n): row j is class j.

    The matmuls are ``_forward``'s, on the same operands. The output bias is
    added as a (k, 1) column to the transposed product, not as a (1, k) row
    over (n, k) logits; the add is elementwise, so every entry is bitwise
    the logit ``_forward`` gives, and the output is written in plane order
    without a copy.
    """
    w1, b1, w2, b2 = _layers(config, w)
    return np.add((_hidden_layer(x, w1, b1) @ w2).T, b2.T, order="C")


@lru_cache(maxsize=64)
def _pick_grid(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """``np.indices(shape, sparse=True)``, read-only, as every caller of a shape shares it."""
    grid = np.indices(shape, sparse=True)
    for axis in grid:
        axis.setflags(write=False)
    return grid


def _loss_and_gradient(config: ModelConfig, w: np.ndarray, x: np.ndarray, y: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    """Mean cross-entropy (...) over the leading axes of w (..., P); its gradient goes to out.

    ``out`` is a caller-owned C-contiguous buffer of w's shape; every value
    of it is overwritten. Each gradient segment (hidden_w, hidden_b, out_w,
    out_b) is written straight into its ``_layers`` view of ``out``, so a
    step allocates nothing of size P. The matmuls and bias sums into these
    views are bitwise equal to the same operations into fresh arrays. The
    forward pass is ``_forward``'s, on one set of ``_layers`` views of w.
    """
    w1, b1, w2, b2 = _layers(config, w)
    hidden = _hidden_layer(x, w1, b1)
    logits = hidden @ w2
    logits += b2
    log_probs = _log_softmax(logits)
    pick = (*_pick_grid(y.shape), y)  # each sample's true-class entry
    loss = -log_probs[pick].mean(axis=-1)

    d_logits = np.exp(log_probs)
    d_logits[pick] -= 1.0
    d_logits /= y.shape[-1]

    g1, gb1, g2, gb2 = _layers(config, out)
    np.matmul(np.swapaxes(hidden, -1, -2), d_logits, out=g2)
    d_logits.sum(axis=-2, out=gb2[..., 0, :])
    if config.hidden_dim > 0:
        d_hidden = d_logits @ np.swapaxes(w2, -1, -2)
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
    """A classifier: its ModelConfig and its weights, one flat ParameterVector.

    ``weights`` only takes a vector of the model's layout: any other is a
    ValueError when it is assigned, and the model keeps the weights it had.
    """

    def __init__(self, config: ModelConfig, weights: ParameterVector | None = None):
        self.config = config
        self._layout = model_layout(config)
        self.weights = init_weights(config) if weights is None else weights
        # Vectors derived from these weights share their layout object, so
        # later assignments pass the setter's identity test.
        self._layout = self._weights.layout

    @property
    def weights(self) -> ParameterVector:
        return self._weights

    @weights.setter
    def weights(self, weights: ParameterVector) -> None:
        layout = weights.layout
        if layout is not self._layout and layout != self._layout:
            got = ", ".join(f"{seg.name}[{seg.length}]" for seg in layout)
            takes = ", ".join(f"{seg.name}[{seg.length}]" for seg in self._layout)
            raise ValueError(f"weights do not match the model layout: got {got}, "
                             f"the model takes {takes}")
        self._weights = weights


def sgd_batch_step(model: TrainableModel, batch: DatasetShard) -> ParameterVector:
    """One descent step w <- w - grad * lr on a batch the model can take; the model is
    updated in place. A non-finite loss is a FloatingPointError."""
    cfg, w = model.config, model.weights
    cfg.require_fit(batch, "batch")
    grad = np.empty(len(w))
    if not np.isfinite(_loss_and_gradient(cfg, w.values, batch.inputs, batch.labels, grad)):
        raise FloatingPointError(NON_FINITE_LOSS)
    model.weights = w.with_values(w.values - grad * float(cfg.learning_rate))
    return model.weights


def train_epochs(
    models,
    inputs: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    batch_size: int,
    start_epoch: int = 0,
) -> np.ndarray:
    """Mini-batch SGD on a group of models; returns their weight deltas (G, P).

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
    of ``w - lr * grad``), so no step allocates a (G, P) float array. The
    trained weights then become the deltas in place, row g holding after -
    before for ``models[g]``, and the models' new weights are one block,
    before + deltas, which makes each delta apply back bitwise. That block
    is checked once and handed out by ``ParameterVector.rows``: each model
    gets a read-only view of its row, and one model's vector keeps the
    whole block alive. The caller's inputs, labels and ParameterVectors are
    not written.

    A failing model (non-finite loss or weights, labels beyond the class
    count) raises TrainingError for the lowest failing row of the first
    epoch in which any row fails; no model is updated then. The loss is
    checked after every step and the weights once per epoch; a row is
    labelled by whichever went non-finite first. Weights that stay finite
    but move too far for their delta to be finite are ParameterVector's
    ValueError, and no model is updated then either.
    """
    models = list(models)
    require_ints(1, epochs=epochs, batch_size=batch_size)
    require_ints(0, start_epoch=start_epoch)
    if not models:
        raise ValueError("need at least one model")
    cfg = models[0].config
    if any(m.config is not cfg and m.config != cfg for m in models):
        raise ValueError("models of one group must share one ModelConfig")
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if inputs.ndim != 3 or labels.shape != inputs.shape[:2] or len(labels) != len(models):
        raise ValueError("need inputs (G, n, d) and labels (G, n) for G models")
    size = labels.shape[1]
    if size < 1:
        raise ValueError("cannot train on an empty shard")
    if inputs.shape[2] != cfg.input_dim:
        raise ValueError(f"inputs feature dimension {inputs.shape[2]} does not match "
                         f"input_dim {cfg.input_dim}")

    # Rows with out-of-range labels fail in the first epoch; they train on
    # class 0 meanwhile so that the other rows' failures can still be found.
    out_of_range = np.flatnonzero(labels.max(axis=1) >= cfg.class_count)
    failures = {int(r): LABELS_EXCEED for r in out_of_range}
    if failures:
        labels = np.where(labels < cfg.class_count, labels, 0)

    values = [m.weights.values for m in models]
    w = np.array(values)  # private: updated in place
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

    # The step buffer is free now: it becomes the block of new weights. A
    # delta can overflow; rows then rejects the non-finite weights.
    before = np.stack(values, out=grad)
    with np.errstate(over="ignore"):
        w -= before  # now the deltas after - before
        before += w  # now the new weights before + delta
    for model, weights in zip(models, ParameterVector.rows(before, models[0].weights.layout)):
        model.weights = weights
    return w


def centralized_reference_train(
    shards,
    config: ModelConfig,
    epochs: int,
    batch_size: int = 32,
) -> ParameterVector:
    """Train one model on the union of all shards (the no-network ideal)."""
    union = concat_shards(shards)
    model = TrainableModel(config)
    train_epochs([model], union.inputs[None], union.labels[None], epochs, batch_size)
    return model.weights


def _count_hits(planes: np.ndarray, dataset: DatasetShard, logits) -> int:
    """How many samples of ``dataset`` predict their label, from class planes (k, n).

    ``planes`` holds the logits as ``_class_planes`` lays them out and is
    overwritten. ``logits()`` returns the same logits as an (n, k) array; it
    is called only when the tie bound below cannot decide.

    Each sample's shifts are s_j = z_j - max(z) <= 0, its top class has s = 0,
    and its log-softmax is fl(s_j - lse) with lse = log(sum(exp(s))). A
    finite max bounds 0 <= lse <= log(k) + 1, so with T = ulp(log(k) + 1) >=
    ulp(lse), a class at s_j <= -T lies at least ulp(lse) below the top
    class's exact -lse, and rounding to nearest keeps it strictly below. So
    if every max is finite and each sample has exactly one class above -T,
    that class is the argmax, and a sample is a hit when its label's entry,
    read through ``dataset.label_index``, is above -T. Otherwise (a
    near-tie, or a sample with a NaN or +inf logit or with every logit
    -inf) the count takes the definition, ``np.argmax(_log_softmax(
    logits()), axis=-1)``, whose NaN rows predict class 0 as ``np.argmax``
    does.
    """
    k, n = planes.shape
    top = planes.max(axis=0)
    planes -= top
    above = planes > -math.ulp(math.log(k) + 1.0)
    # A finite max puts at least its own class above -T, so n such entries
    # in all means exactly one per sample: its top class, whose shift is 0.
    if np.isfinite(top).all() and np.count_nonzero(above) == n:
        return np.count_nonzero(above.take(dataset.label_index))
    return np.count_nonzero(np.argmax(_log_softmax(logits()), axis=-1) == dataset.labels)


def evaluate(model: TrainableModel, dataset: DatasetShard) -> float:
    """Accuracy on a dataset: the share of samples whose predicted class is the label.

    The prediction is the argmax of the log-softmax, ``np.argmax(_log_softmax(
    logits), axis=-1)``, not of the raw logits, and ties go to the lowest
    class; the log-softmax shift can round two logits to one value, so the
    two rules are not bitwise interchangeable.

    The logits are built as contiguous class planes (k, n) by
    ``_class_planes``: NumPy reduces a narrow last axis row by row, slowly,
    and the planes put each reduction on a long axis. ``_count_hits`` counts
    the hits on them with an exact tie bound. Where the bound cannot decide
    (a near-tie or a non-finite max) it takes the definition, on logits
    recomputed by ``_forward``. What depends on the dataset alone is
    computed once per DatasetShard, whose labels are read-only: the largest
    label, for the range check, and the flat index of each sample's label
    entry in its planes.
    """
    cfg, w, inputs = model.config, model.weights.values, dataset.inputs
    cfg.require_fit(dataset, "dataset")
    hits = _count_hits(_class_planes(cfg, w, inputs), dataset,
                       lambda: _forward(cfg, w, inputs)[1])
    return float(hits / dataset.size)
