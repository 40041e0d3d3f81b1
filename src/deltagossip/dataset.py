"""Dataset generation, IDX file loading, and per-node sharding.

Shards are plain (inputs, labels) arrays with inputs scaled to [0, 1].
Sharding hands every node an equal slice plus a local validation split,
and keeps one global validation set shared by all nodes.
"""

from __future__ import annotations

import numbers
import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import require_ints, require_positive, require_real

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
GLOBAL_HOLDOUT_FRACTION = 0.1  # of a dataset with no designated global validation set
INT64 = np.iinfo(np.int64)


class IdxFormatError(ValueError):
    """Malformed IDX container (bad magic, truncation, trailing bytes, count mismatch,
    no images or a zero image side)."""


def _require_class_indices(labels: np.ndarray) -> None:
    """A ValueError naming the first label that is not an integer class index:
    a float the int64 cast would change (fractional, NaN, infinite or out of
    range), an object that is not a numbers.Integral, an integer outside
    int64 (an object int or a uint64), and any label of every other dtype
    (strings, bytes, complex numbers, datetimes)."""
    kind = labels.dtype.kind
    if kind == "u":  # uint64, the one unsigned type that can exceed int64
        bad = np.flatnonzero(labels > INT64.max)[:1]
        if len(bad):
            raise ValueError(f"labels must fit in int64, got {labels.flat[bad[0]].tolist()!r}")
        return
    if kind == "O":
        for x in labels.flat:
            if not isinstance(x, numbers.Integral):
                raise ValueError(f"labels must be integer class indices, got {x!r}")
            if not INT64.min <= x <= INT64.max:
                raise ValueError(f"labels must fit in int64, got {x!r}")
        return
    if kind == "f":
        with np.errstate(invalid="ignore"):  # NaN and inf cast to an arbitrary integer
            bad = np.flatnonzero(labels.astype(np.int64) != labels)[:1]
    else:
        bad = [0]
    if len(bad):
        value = labels.flat[bad].tolist()[0]
        # A datetime below microseconds lists as a raw count, and NaT as None.
        if kind in "mM" and (value is None or isinstance(value, int)):
            value = labels.flat[bad[0]]
        raise ValueError(f"labels must be integer class indices, got {value!r}")


@dataclass(frozen=True)
class DatasetShard:
    """A set of samples. ``labels`` is the shard's own read-only copy, so what
    is computed from it once (``top_label``, ``label_index``) cannot go stale."""

    inputs: np.ndarray  # (n, dim) float64 in [0, 1]
    labels: np.ndarray  # (n,) int64, read-only
    origin: str = "train"  # train | local_val | global_val

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        raw = np.asarray(self.labels)
        # Integer and bool labels cast exactly, except uint64 beyond int64.
        if raw.size and (raw.dtype.kind not in "iub" or raw.dtype == np.uint64):
            _require_class_indices(raw)
        labels = np.array(raw, dtype=np.int64)
        labels.flags.writeable = False
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

    @cached_property
    def top_label(self) -> int:
        """The largest label, or -1 for an empty shard."""
        return int(self.labels.max()) if self.size else -1

    @cached_property
    def label_index(self) -> np.ndarray:
        """Each sample's label entry in the flattened class planes (classes, n) of
        this shard's logits: ``labels * n + arange(n)``, read-only."""
        index = self.labels * self.size + np.arange(self.size)
        index.flags.writeable = False
        return index


@dataclass(frozen=True)
class ShardPlan:
    """How to split one dataset across nodes."""

    node_count: int
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        require_ints(1, node_count=self.node_count)
        require_ints(0, seed=self.seed)
        require_real(train_fraction=self.train_fraction)
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


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
    Samples are clipped to [0, 1]. The returned inputs are the one array the
    noise is drawn into, so the call's peak memory is about that array.
    """
    require_ints(2, classes=classes)
    require_ints(1, dim=dim, per_class=per_class)
    require_ints(0, seed=seed)
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

    # Class-major, as the labels run: a seed gives the same noise values, in the
    # same sample order, as a flat (classes * per_class, dim) draw.
    inputs = rng.normal(0.0, noise_sigma, size=(classes, per_class, dim))
    inputs += means[:, None, :]
    np.clip(inputs, 0.0, 1.0, out=inputs)
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    return DatasetShard(inputs=inputs.reshape(classes * per_class, dim), labels=labels,
                        origin="train")


def _read_exact(f, count: int, what: str) -> bytes:
    """The next ``count`` bytes of f. A count beyond what the file holds is
    IdxFormatError before any read, so a header's claim allocates nothing."""
    if count > os.fstat(f.fileno()).st_size - f.tell():
        raise IdxFormatError(f"truncated IDX file {f.name} while reading {what}")
    return f.read(count)


def _read_rest(f, count: int, what: str) -> bytes:
    """The last ``count`` bytes of an IDX file: its data, with nothing after it."""
    if count < os.fstat(f.fileno()).st_size - f.tell():
        raise IdxFormatError(f"bytes past the declared {what} in {f.name}")
    return _read_exact(f, count, what)


def _block_sums(images: np.ndarray, ds: int) -> np.ndarray:
    """Exact (count, rows/ds, cols/ds) pixel sums of the ds x ds blocks of uint8 images,
    in the narrowest unsigned dtype that holds 255 * ds**2.

    Each block's ds rows are added into a (count, rows/ds, cols) band, one whole
    contiguous row per add, then the band's ds column phases into the sums. The band
    holds itemsize/ds of the image bytes, which the caller holds anyway, and is freed
    on return.
    """
    count, rows, cols = images.shape
    dtype = np.min_scalar_type(255 * ds * ds)
    # The sums are allocated before the band: allocated after it, repeated load_idx
    # calls on 6,000 28 x 28 images at ds 2 took 2-3x as long (heap layout).
    sums = np.empty((count, rows // ds, cols // ds), dtype)
    blocks = images.reshape(count, rows // ds, ds, cols)
    band = np.add(blocks[:, :, 0], blocks[:, :, 1], dtype=dtype)
    for i in range(2, ds):
        band += blocks[:, :, i]
    np.add(band[..., 0::ds], band[..., 1::ds], out=sums)
    for j in range(2, ds):
        sums += band[..., j::ds]
    return sums


def load_idx(images_path, labels_path, downsample: int = 1) -> DatasetShard:
    """Load an IDX image/label file pair into a flat, [0, 1]-scaled shard.

    ``downsample`` mean-pools square blocks of that side length; image
    dimensions must be divisible by it. Each block's pixels are summed
    exactly (see _block_sums). Every partial sum of at most
    255 * downsample**2 is an exact float64, so a float mean over the block
    gives the same correctly rounded S / downsample**2 in any summation
    order, and the input is that mean divided by 255. When downsample is a
    power of two (1 included), S / downsample**2 is exact, so one division
    S / (255 * downsample**2) gives the same bits; any other factor divides
    by downsample**2 and then by 255, rounding twice as the mean does.

    A header with no images or a zero image side, a file shorter than its
    header declares and bytes past the declared data raise IdxFormatError.
    A path that is not path-like (a file descriptor number) is a TypeError.
    """
    require_ints(1, downsample=downsample)

    with open(os.fspath(images_path), "rb") as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "image header"))
        if magic != IDX_IMAGES_MAGIC:
            raise IdxFormatError(
                f"bad magic 0x{magic:08x} in {images_path} (expected 0x{IDX_IMAGES_MAGIC:08x})"
            )
        if count == 0:
            raise IdxFormatError(f"no images in {images_path}")
        if rows == 0 or cols == 0:
            raise IdxFormatError(f"empty {rows}x{cols} images in {images_path}")
        pixels = _read_rest(f, count * rows * cols, "image data")
    with open(os.fspath(labels_path), "rb") as f:
        magic, label_count = struct.unpack(">II", _read_exact(f, 8, "label header"))
        if magic != IDX_LABELS_MAGIC:
            raise IdxFormatError(
                f"bad magic 0x{magic:08x} in {labels_path} (expected 0x{IDX_LABELS_MAGIC:08x})"
            )
        raw_labels = _read_rest(f, label_count, "label data")
    if count != label_count:
        raise IdxFormatError(f"image count {count} != label count {label_count}")

    if rows % downsample or cols % downsample:
        raise ValueError(f"{rows}x{cols} images not divisible by factor {downsample}")
    ds = downsample
    sums = np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows, cols)  # blocks of 1
    if ds > 1:
        sums = _block_sums(sums, ds)
    if ds & (ds - 1) == 0:
        inputs = sums.reshape(count, -1) / (255.0 * ds * ds)
    else:
        inputs = sums.reshape(count, -1) / (ds * ds)
        inputs /= 255.0
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
