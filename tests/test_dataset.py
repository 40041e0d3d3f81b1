import struct

import numpy as np
import pytest

from deltagossip.dataset import (
    DatasetShard,
    IdxFormatError,
    ShardPlan,
    concat_shards,
    load_idx,
    shard_equal,
    synth_classification,
)
from deltagossip.model import ModelConfig, TrainableModel, evaluate, train_epochs


class TestSynthClassification:
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
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx(img, lbl)

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
