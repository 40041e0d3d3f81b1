import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis import seed as hypothesis_seed

from deltagossip.dataset import (
    DatasetShard,
    IdxFormatError,
    ShardPlan,
    _block_sums,
    concat_shards,
    load_idx,
    shard_equal,
    synth_classification,
)
from deltagossip.model import ModelConfig, TrainableModel, evaluate, train_epochs


def frozen_synth_classification(classes, dim, per_class, seed, noise_sigma):
    """synth_classification's first arithmetic: a gather of each sample's mean, a
    sum with a (classes * per_class, dim) noise array and a clipped copy."""
    rng = np.random.default_rng(seed)
    min_dist = 4.0 * noise_sigma
    for _ in range(1000):
        candidate = rng.uniform(0.15, 0.85, size=(classes, dim))
        diffs = candidate[:, None, :] - candidate[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=2))
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= min_dist:
            means = candidate
            break
    else:
        return None
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    noise = rng.normal(0.0, noise_sigma, size=(classes * per_class, dim))
    return np.clip(means[labels] + noise, 0.0, 1.0), labels


class TestSynthClassification:
    @hypothesis_seed(20261019)
    @settings(max_examples=120, deadline=None, database=None)
    @given(st.integers(2, 12), st.integers(1, 20), st.integers(1, 300),
           st.sampled_from([0.01, 0.05, 0.1, 0.2]), st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_the_gather_and_copy(self, classes, dim, per_class,
                                                  noise_sigma, seed):
        expected = frozen_synth_classification(classes, dim, per_class, seed, noise_sigma)
        if expected is None:
            with pytest.raises(ValueError, match="could not place"):
                synth_classification(classes, dim, per_class, seed, noise_sigma)
            return
        data = synth_classification(classes, dim, per_class, seed, noise_sigma)
        for got, want in zip((data.inputs, data.labels), expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_about_the_inputs(self):
        tracemalloc.start()
        try:
            data = synth_classification(10, 50, 2000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * data.inputs.nbytes

    def test_deterministic(self):
        a = synth_classification(3, 5, 40, seed=12)
        b = synth_classification(3, 5, 40, seed=12)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_balanced_by_construction(self):
        data = synth_classification(4, 3, 17, seed=1)
        counts = np.bincount(data.labels, minlength=4)
        assert list(counts) == [17] * 4

    def test_values_in_unit_box(self):
        data = synth_classification(3, 16, 100, seed=2, noise_sigma=0.2)
        assert data.inputs.min() >= 0.0 and data.inputs.max() <= 1.0

    def test_linearly_separable_at_low_noise(self):
        data = synth_classification(2, 2, 100, seed=5, noise_sigma=0.02)
        cfg = ModelConfig(input_dim=2, class_count=2, hidden_dim=0,
                          learning_rate=0.5, seed=1)
        model = TrainableModel(cfg)
        train_epochs([model], data.inputs[None], data.labels[None], 50, 16)
        assert evaluate(model, data) >= 0.99

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            synth_classification(1, 2, 10, seed=0)
        with pytest.raises(ValueError):
            synth_classification(2, 2, 0, seed=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_noise_sigma_rejected(self, value):
        with pytest.raises(ValueError, match="noise_sigma must be positive and finite"):
            synth_classification(3, 2, 10, seed=0, noise_sigma=value)

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -6$"):
            synth_classification(3, 2, 10, seed=-6)

    def test_impossible_separation_reported(self):
        with pytest.raises(ValueError, match="cluster means"):
            synth_classification(10, 1, 5, seed=0, noise_sigma=0.3)


def write_idx_pair(tmp_path, images, labels, prefix=""):
    count, rows, cols = images.shape
    img_path = tmp_path / f"{prefix}images.idx"
    lbl_path = tmp_path / f"{prefix}labels.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        f.write(images.astype(np.uint8).tobytes())
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())
    return img_path, lbl_path


def frozen_float_pooling(images, downsample):
    """The float64 mean pooling that load_idx first used, operation for operation."""
    count, rows, cols = images.shape
    if downsample > 1:
        r, c = rows // downsample, cols // downsample
        images = images.reshape(count, r, downsample, c, downsample).mean(axis=(2, 4))
    return images.reshape(count, -1).astype(np.float64) / 255.0


@st.composite
def pooling_inputs(draw):
    """uint8 images (count, rows, cols), mostly not square, and a downsample factor
    dividing both sides; "rows" makes a block as tall as the image. Factor 17 sums its
    blocks in uint32 (255 * 17**2 > 65535). Some draws set whole images to 0 or 255,
    the extremes of a block sum."""
    downsample = draw(st.sampled_from([1, 2, 3, 4, 7, 17, "rows"]))
    if downsample == "rows":
        downsample = rows = draw(st.integers(1, 12))
    else:
        rows = downsample * draw(st.integers(1, 4))
    cols = downsample * draw(st.integers(1, 4))
    count = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = rng.integers(0, 256, (count, rows, cols), dtype=np.uint8)
    images[rng.random(count) < draw(st.sampled_from([0.0, 0.3]))] = 0
    images[rng.random(count) < draw(st.sampled_from([0.0, 0.3]))] = 255
    return images, downsample


class TestLoadIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (10, 4, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, 10, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        data = load_idx(img, lbl)
        assert data.size == 10 and data.dim == 16
        np.testing.assert_allclose(
            data.inputs, images.reshape(10, 16) / 255.0, rtol=0, atol=0
        )
        np.testing.assert_array_equal(data.labels, labels)

    def test_swapped_files_bad_magic(self, tmp_path):
        images = np.zeros((20, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0] * 20)
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx(lbl, img)

    def test_truncated_file(self, tmp_path):
        images = np.zeros((5, 3, 3), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0] * 5)
        raw = img.read_bytes()
        img.write_bytes(raw[:-7])
        with pytest.raises(IdxFormatError, match="truncated") as excinfo:
            load_idx(img, lbl)
        assert str(img) in str(excinfo.value)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((4, 2, 2), dtype=np.uint8)
        img, _ = write_idx_pair(tmp_path, images, [0] * 4, prefix="a_")
        _, lbl = write_idx_pair(
            tmp_path, np.zeros((6, 2, 2), dtype=np.uint8), [0] * 6, prefix="b_"
        )
        with pytest.raises(IdxFormatError, match="count"):
            load_idx(img, lbl)

    def test_no_images(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((0, 2, 2), dtype=np.uint8), [])
        with pytest.raises(IdxFormatError, match="no images in ") as excinfo:
            load_idx(img, lbl)
        assert str(img) in str(excinfo.value)

    @pytest.mark.parametrize("rows, cols", [(0, 4), (4, 0), (0, 0)])
    def test_zero_image_side(self, tmp_path, rows, cols):
        img, lbl = write_idx_pair(tmp_path, np.zeros((3, rows, cols), dtype=np.uint8), [0] * 3)
        with pytest.raises(IdxFormatError, match=f"empty {rows}x{cols} images in ") as excinfo:
            load_idx(img, lbl)
        assert str(img) in str(excinfo.value)

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_bytes_past_the_declared_data(self, tmp_path, which):
        img, lbl = write_idx_pair(tmp_path, np.zeros((5, 2, 2), dtype=np.uint8), [0] * 5)
        path = img if which == "images" else lbl
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(IdxFormatError, match="bytes past the declared") as excinfo:
            load_idx(img, lbl)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("side", [2**16, 2**32 - 1])
    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_a_header_that_claims_more_than_the_file_holds(self, tmp_path, which, side):
        # Read as declared, 2**16 images of 2**16 x 2**16 pixels were a MemoryError
        # and (2**32 - 1)**3 bytes an OverflowError.
        img, lbl = write_idx_pair(tmp_path, np.zeros((5, 2, 2), dtype=np.uint8), [0] * 5)
        if which == "images":
            path, header = img, struct.pack(">IIII", 0x803, side, side, side)
        else:
            path, header = lbl, struct.pack(">II", 0x801, side)
        path.write_bytes(header + path.read_bytes()[len(header):])
        with pytest.raises(IdxFormatError, match="truncated") as excinfo:
            load_idx(img, lbl)
        assert str(path) in str(excinfo.value)

    def test_downsample_mean_pools(self, tmp_path):
        images = np.arange(16, dtype=np.uint8).reshape(1, 4, 4)
        img, lbl = write_idx_pair(tmp_path, images, [7])
        data = load_idx(img, lbl, downsample=2)
        assert data.dim == 4
        # top-left 2x2 block of [[0,1],[4,5]] has mean 2.5
        assert data.inputs[0, 0] == pytest.approx(2.5 / 255.0)

    def test_downsample_must_divide(self, tmp_path):
        images = np.zeros((1, 5, 5), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0])
        with pytest.raises(ValueError):
            load_idx(img, lbl, downsample=2)

    @hypothesis_seed(20250501)
    @settings(max_examples=150, deadline=None, database=None)
    @given(pooling_inputs())
    def test_downsample_bitwise_equal_to_the_float_mean(self, case):
        images, downsample = case
        count = images.shape[0]
        with tempfile.TemporaryDirectory() as tmp:
            img, lbl = write_idx_pair(Path(tmp), images, [0] * count)
            data = load_idx(img, lbl, downsample=downsample)
        expected = frozen_float_pooling(images, downsample)
        assert data.inputs.dtype == expected.dtype and data.inputs.shape == expected.shape
        assert data.inputs.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("downsample", [1, 2, 4, 8, 16])
    def test_one_rounding_equals_two_for_power_of_two_factors(self, downsample):
        area = downsample * downsample
        sums = np.arange(255 * area + 1)
        once = sums / (255.0 * area)
        twice = sums / area / 255.0
        assert once.tobytes() == twice.tobytes()

    def test_pooling_peak_memory_stays_within_the_image_bytes(self):
        # At factor 7 the uint16 row band holds 2/7 of the image bytes, which
        # load_idx holds anyway; a float64 band would hold 8/7 of them.
        images = np.random.default_rng(0).integers(0, 256, (3000, 28, 28), dtype=np.uint8)
        tracemalloc.start()
        try:
            sums = _block_sums(images, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sums.shape == (3000, 4, 4)
        assert peak <= images.nbytes

    @pytest.mark.skipif(
        "MNIST_DIR" not in __import__("os").environ,
        reason="set MNIST_DIR to a directory with the canonical IDX files",
    )
    def test_canonical_mnist_train_files(self):
        import os

        root = os.environ["MNIST_DIR"]
        data = load_idx(
            os.path.join(root, "train-images-idx3-ubyte"),
            os.path.join(root, "train-labels-idx1-ubyte"),
        )
        assert data.size == 60000 and data.dim == 784
        half = load_idx(
            os.path.join(root, "train-images-idx3-ubyte"),
            os.path.join(root, "train-labels-idx1-ubyte"),
            downsample=2,
        )
        assert half.dim == 196


class TestShardEqual:
    def test_sizes_with_external_global_val(self):
        data = synth_classification(2, 2, 500, seed=3)  # 1000 samples
        gval = synth_classification(2, 2, 50, seed=4)
        plan = ShardPlan(node_count=10, train_fraction=0.8, seed=5)
        per_node, out_gval = shard_equal(data, plan, global_val=gval)
        assert out_gval is gval
        assert len(per_node) == 10
        for train, val in per_node:
            assert train.size == 80 and val.size == 20

    def test_holdout_partition_no_duplicates(self):
        data = synth_classification(3, 2, 111, seed=6)
        plan = ShardPlan(node_count=7, train_fraction=0.75, seed=8)
        per_node, gval = shard_equal(data, plan)
        rows = [gval.inputs]
        for train, val in per_node:
            rows.extend([train.inputs, val.inputs])
        combined = np.concatenate(rows, axis=0)
        assert combined.shape[0] == data.size
        assert np.unique(combined, axis=0).shape[0] == data.size

    def test_single_node_gets_everything_not_held_out(self):
        data = synth_classification(2, 2, 100, seed=9)
        per_node, gval = shard_equal(data, ShardPlan(node_count=1, seed=1))
        train, val = per_node[0]
        assert train.size + val.size + gval.size == data.size

    def test_size_balance_within_one(self):
        data = synth_classification(2, 2, 127, seed=10)
        per_node, _ = shard_equal(data, ShardPlan(node_count=9, seed=2))
        sizes = [train.size + val.size for train, val in per_node]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        data = synth_classification(2, 3, 60, seed=11)
        plan = ShardPlan(node_count=4, seed=3)
        a, _ = shard_equal(data, plan)
        b, _ = shard_equal(data, plan)
        for (ta, va), (tb, vb) in zip(a, b):
            assert np.array_equal(ta.inputs, tb.inputs)
            assert np.array_equal(va.inputs, vb.inputs)

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            ShardPlan(node_count=4, seed=-1)

    def test_too_many_nodes_rejected(self):
        data = synth_classification(2, 2, 5, seed=0)
        with pytest.raises(ValueError):
            shard_equal(data, ShardPlan(node_count=20, seed=0))

    def test_origin_tags(self):
        data = synth_classification(2, 2, 50, seed=1)
        per_node, gval = shard_equal(data, ShardPlan(node_count=2, seed=0))
        assert gval.origin == "global_val"
        assert per_node[0][0].origin == "train"
        assert per_node[0][1].origin == "local_val"


class TestConcatShards:
    def test_order_preserved(self):
        a = DatasetShard(np.array([[0.1], [0.2]]), np.array([0, 1]))
        b = DatasetShard(np.array([[0.3]]), np.array([0]))
        merged = concat_shards([a, b])
        np.testing.assert_array_equal(merged.inputs.ravel(), [0.1, 0.2, 0.3])

    def test_dim_mismatch_rejected(self):
        a = DatasetShard(np.zeros((2, 2)), np.zeros(2, dtype=int))
        b = DatasetShard(np.zeros((2, 3)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            concat_shards([a, b])


class TestShardLabels:
    def test_labels_are_a_read_only_copy(self):
        labels = np.array([2, 0, 1, 2])
        shard = DatasetShard(np.zeros((4, 3)), labels)
        assert not shard.labels.flags.writeable
        with pytest.raises(ValueError):
            shard.labels[0] = 1
        labels[0] = 0  # the caller's array stays writable and apart
        assert labels.flags.writeable and shard.labels[0] == 2

    def test_cached_index_and_top_label_match_fresh_ones(self):
        shard = synth_classification(5, 2, 7, seed=3)
        n = shard.size
        index = shard.label_index
        assert index is shard.label_index and not index.flags.writeable
        np.testing.assert_array_equal(index, shard.labels * n + np.arange(n))
        planes = np.arange(5 * n).reshape(5, n)
        np.testing.assert_array_equal(planes.take(index), planes[shard.labels, np.arange(n)])
        assert shard.top_label == 4
        assert DatasetShard(np.zeros((0, 2)), np.zeros(0, dtype=int)).top_label == -1

    @pytest.mark.parametrize(
        "labels, bad",
        [([0.5, 1.7, 2.9], "0.5"), ([1.0, 2.5, 0.0], "2.5"), (["1", "0"], "'1'"),
         ([np.nan, 1.0], "nan"), ([1.0, np.inf], "inf"), ([-np.inf, 0.0], "-inf"),
         (np.array([1, 2], dtype="S1"), "b'1'"), (np.array([0.0, 1e20]), "1e+20"),
         ([1, None], "None"), (np.array([1, 2.5], dtype=object), "2.5"),
         ([1 + 1j, 2], "(1+1j)"), ([1 + 0j, 2], "(1+0j)"),
         (np.array(["2024-01-01", "2024-01-02"], dtype="datetime64[D]"),
          "datetime.date(2024, 1, 1)")],
        ids=["fractions", "one_fraction", "strings", "nan", "inf", "minus_inf", "bytes",
             "too_large", "none", "object_fraction", "complex", "real_complex", "datetimes"],
    )
    def test_labels_the_int_cast_would_change_are_named(self, labels, bad):
        with pytest.raises(ValueError, match=re.escape(
                f"labels must be integer class indices, got {bad}")):
            DatasetShard(np.zeros((len(labels), 2)), labels)

    @pytest.mark.parametrize(
        "labels, bad",
        [(np.array([2**70, 1], dtype=object), str(2**70)),
         (np.array([1, -2**63 - 1], dtype=object), str(-2**63 - 1)),
         (np.array([1, 2**63], dtype=np.uint64), str(2**63)),
         (np.array([2**64 - 1, 0], dtype=np.uint64), str(2**64 - 1))],
        ids=["object_int", "object_negative_int", "uint64", "uint64_max"],
    )
    def test_integers_outside_int64_are_named(self, labels, bad):
        with pytest.raises(ValueError, match=f"^labels must fit in int64, got {bad}$"):
            DatasetShard(np.zeros((len(labels), 2)), labels)

    @pytest.mark.parametrize(
        "labels, bad",
        [(np.array(["2024-01-01", "2024-01-02"], dtype="datetime64[ns]"),
          "np.datetime64('2024-01-01T00:00:00.000000000')"),
         (np.array(["1970-01-02", "1970-01-03"], dtype="datetime64[ps]"),
          "np.datetime64('1970-01-02T00:00:00.000000000000')"),
         (np.array([3, 1], dtype="timedelta64[ns]"), "np.timedelta64(3,'ns')"),
         (np.array(["NaT", "2024-01-02"], dtype="datetime64[D]"), "np.datetime64('NaT','D')")],
        ids=["nanoseconds", "picoseconds", "timedelta_nanoseconds", "not_a_time"],
    )
    def test_datetimes_of_any_unit_are_named_as_datetimes(self, labels, bad):
        with pytest.raises(ValueError, match=re.escape(
                f"labels must be integer class indices, got {bad}")):
            DatasetShard(np.zeros((len(labels), 2)), labels)

    @pytest.mark.parametrize("labels", [[0.0, 2.0], np.array([1, 0], dtype=np.float32),
                                        [True, False], np.zeros(0),
                                        np.array([1, 2], dtype=object),
                                        np.array([np.int64(1), np.uint8(0), True], dtype=object),
                                        np.array([3, 2**63 - 1], dtype=np.uint64),
                                        np.array([2**63 - 1, np.uint64(2**63 - 1)], dtype=object)],
                             ids=["floats", "float32", "bools", "empty", "object_ints",
                                  "object_numpy_ints", "uint64_int64_max", "object_int64_max"])
    def test_integer_valued_labels_are_kept(self, labels):
        shard = DatasetShard(np.zeros((len(labels), 2)), labels)
        assert shard.labels.dtype == np.int64
        assert shard.labels.tolist() == [int(x) for x in labels]
