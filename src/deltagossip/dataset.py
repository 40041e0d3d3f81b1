"""Dataset generation, IDX file loading, and per-node sharding.

Shards are plain (inputs, labels) arrays with inputs scaled to [0, 1].
Sharding hands every node an equal slice plus a local validation split,
and keeps one global validation set shared by all nodes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .params import require_ints, require_positive

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
GLOBAL_HOLDOUT_FRACTION = 0.1  # of a dataset with no designated global validation set


class IdxFormatError(ValueError):
    """Malformed IDX container (bad magic, truncation, count mismatch, no images)."""


@dataclass(frozen=True)
class DatasetShard:
    inputs: np.ndarray  # (n, dim) float64 in [0, 1]
    labels: np.ndarray  # (n,) int64
    origin: str = "train"  # train | local_val | global_val

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if inputs.ndim != 2:
            raise ValueError("inputs must be a 2-d array of feature vectors")
        if labels.ndim != 1 or labels.shape[0] != inputs.shape[0]:
            raise ValueError("inputs and labels must have equal length")
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be non-negative class indices")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.labels.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class ShardPlan:
    """How to split one dataset across nodes."""

    node_count: int
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        require_ints(node_count=self.node_count, seed=self.seed)
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def synth_classification(
    classes: int,
    dim: int,
    per_class: int,
    seed: int,
    noise_sigma: float = 0.05,
) -> DatasetShard:
    """Gaussian-cluster classification data, balanced and deterministic.

    Cluster means are drawn inside [0.15, 0.85]^dim and redrawn until every
    pair is at least 4*noise_sigma apart, so the clusters stay separable.
    Samples are clipped to [0, 1].
    """
    require_ints(classes=classes, dim=dim, per_class=per_class, seed=seed)
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if per_class < 1:
        raise ValueError("need at least 1 sample per class")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    require_positive(noise_sigma=noise_sigma)

    rng = np.random.default_rng(seed)
    min_dist = 4.0 * noise_sigma
    means = None
    for _ in range(1000):
        candidate = rng.uniform(0.15, 0.85, size=(classes, dim))
        diffs = candidate[:, None, :] - candidate[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=2))
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= min_dist:
            means = candidate
            break
    if means is None:
        raise ValueError(
            f"could not place {classes} cluster means {min_dist:.3f} apart; "
            "reduce noise_sigma or class count"
        )

    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    noise = rng.normal(0.0, noise_sigma, size=(classes * per_class, dim))
    inputs = np.clip(means[labels] + noise, 0.0, 1.0)
    return DatasetShard(inputs=inputs, labels=labels, origin="train")


def _read_exact(f, count: int, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise IdxFormatError(f"truncated IDX file while reading {what}")
    return data


def load_idx(images_path, labels_path, downsample: int = 1) -> DatasetShard:
    """Load an IDX image/label file pair into a flat, [0, 1]-scaled shard.

    ``downsample`` mean-pools square blocks of that side length; image
    dimensions must be divisible by it.
    """
    require_ints(downsample=downsample)
    if downsample < 1:
        raise ValueError("downsample factor must be >= 1")

    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "image header"))
        if magic != IDX_IMAGES_MAGIC:
            raise IdxFormatError(
                f"bad magic 0x{magic:08x} in {images_path} (expected 0x{IDX_IMAGES_MAGIC:08x})"
            )
        if count == 0:
            raise IdxFormatError(f"no images in {images_path}")
        pixels = _read_exact(f, count * rows * cols, "image data")
    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">II", _read_exact(f, 8, "label header"))
        if magic != IDX_LABELS_MAGIC:
            raise IdxFormatError(
                f"bad magic 0x{magic:08x} in {labels_path} (expected 0x{IDX_LABELS_MAGIC:08x})"
            )
        raw_labels = _read_exact(f, label_count, "label data")
    if count != label_count:
        raise IdxFormatError(f"image count {count} != label count {label_count}")

    images = np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows, cols)
    if downsample > 1:
        if rows % downsample or cols % downsample:
            raise ValueError(f"{rows}x{cols} images not divisible by factor {downsample}")
        r, c = rows // downsample, cols // downsample
        images = images.reshape(count, r, downsample, c, downsample).mean(axis=(2, 4))
    inputs = images.reshape(count, -1).astype(np.float64) / 255.0
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    return DatasetShard(inputs=inputs, labels=labels, origin="train")


def concat_shards(shards) -> DatasetShard:
    """Union of shards in the given order, as one training shard."""
    shards = list(shards)
    if not shards:
        raise ValueError("need at least one shard")
    dim = shards[0].dim
    for shard in shards[1:]:
        if shard.dim != dim:
            raise ValueError("shards have mismatched feature dimensions")
    return DatasetShard(
        inputs=np.concatenate([s.inputs for s in shards], axis=0),
        labels=np.concatenate([s.labels for s in shards], axis=0),
    )


def shard_equal(dataset: DatasetShard, plan: ShardPlan, global_val: DatasetShard | None = None):
    """Split a dataset into equal per-node (train, local_val) shards.

    When ``global_val`` is given (e.g. a designated test split) the whole
    dataset is sharded; otherwise GLOBAL_HOLDOUT_FRACTION of it, at least
    one sample and leaving one per node, is held out first as the shared
    global validation set. Every source sample lands in exactly one bucket.

    Returns (per_node, global_val) where per_node is a list of
    (train, local_val) shard pairs, one entry per node.
    """
    if dataset.size < plan.node_count:
        raise ValueError(
            f"dataset of {dataset.size} samples cannot cover {plan.node_count} nodes"
        )
    rng = np.random.default_rng(plan.seed)
    perm = rng.permutation(dataset.size)

    if global_val is None:
        held = int(round(dataset.size * GLOBAL_HOLDOUT_FRACTION))
        held = max(1, min(held, dataset.size - plan.node_count))
        global_idx, shard_idx = perm[:held], perm[held:]
        global_val = DatasetShard(
            inputs=dataset.inputs[global_idx],
            labels=dataset.labels[global_idx],
            origin="global_val",
        )
    else:
        shard_idx = perm

    per_node = []
    for chunk in np.array_split(shard_idx, plan.node_count):
        n_train = int(round(chunk.size * plan.train_fraction))
        if n_train < 1 or chunk.size - n_train < 1:
            raise ValueError(
                f"shard of {chunk.size} samples cannot honour "
                f"train_fraction={plan.train_fraction}"
            )
        train_idx, val_idx = chunk[:n_train], chunk[n_train:]
        per_node.append(
            (
                DatasetShard(dataset.inputs[train_idx], dataset.labels[train_idx], "train"),
                DatasetShard(dataset.inputs[val_idx], dataset.labels[val_idx], "local_val"),
            )
        )
    return per_node, global_val
