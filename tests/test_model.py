import numpy as np
import pytest

from deltagossip.dataset import ShardPlan, shard_equal, synth_classification
from deltagossip.model import (
    Batch,
    ModelConfig,
    TrainableModel,
    centralized_reference_train,
    evaluate,
    init_weights,
    sgd_batch_step,
    train_epochs,
)
from deltagossip.dataset import DatasetShard
from deltagossip.params import ParameterVector, make_layout


def random_batch(rng, dim, classes, size=8):
    return Batch(rng.uniform(0, 1, (size, dim)), rng.integers(0, classes, size))


class TestInitWeights:
    def test_same_seed_bit_identical(self):
        cfg = ModelConfig(input_dim=4, class_count=3, hidden_dim=5, seed=7)
        a, b = init_weights(cfg), init_weights(cfg)
        assert np.array_equal(a.values, b.values)

    def test_layout_arithmetic_softmax_regression(self):
        cfg = ModelConfig(input_dim=4, class_count=3, hidden_dim=0, seed=7)
        assert len(init_weights(cfg)) == 4 * 3 + 3

    def test_layout_arithmetic_hidden(self):
        cfg = ModelConfig(input_dim=4, class_count=3, hidden_dim=5, seed=7)
        assert len(init_weights(cfg)) == 4 * 5 + 5 + 5 * 3 + 3

    def test_different_seeds_differ(self):
        cfg7 = ModelConfig(input_dim=4, class_count=3, hidden_dim=0, seed=7)
        cfg8 = ModelConfig(input_dim=4, class_count=3, hidden_dim=0, seed=8)
        assert np.any(init_weights(cfg7).values != init_weights(cfg8).values)

    def test_biases_zero(self):
        cfg = ModelConfig(input_dim=4, class_count=3, hidden_dim=5, seed=7)
        w = init_weights(cfg)
        assert np.all(w.segment("hidden_b") == 0.0)
        assert np.all(w.segment("out_b") == 0.0)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            ModelConfig(input_dim=0, class_count=3)
        with pytest.raises(ValueError):
            ModelConfig(input_dim=4, class_count=1)
        with pytest.raises(ValueError):
            ModelConfig(input_dim=4, class_count=3, learning_rate=0.0)


class TestLossAndGradient:
    def test_uniform_model_loss_is_log_class_count(self):
        cfg = ModelConfig(input_dim=4, class_count=3, hidden_dim=0, seed=0)
        model = TrainableModel(cfg)
        model.weights = model.weights.with_values(np.zeros(len(model.weights)))
        batch = random_batch(np.random.default_rng(0), 4, 3)
        loss, _ = model.loss_and_gradient(batch)
        assert loss == pytest.approx(np.log(3), abs=1e-12)

    @pytest.mark.parametrize("hidden", [0, 6])
    def test_gradient_matches_central_finite_differences(self, hidden):
        rng = np.random.default_rng(42)
        cfg = ModelConfig(input_dim=5, class_count=3, hidden_dim=hidden, seed=1)
        for _ in range(10):
            model = TrainableModel(cfg)
            model.weights = model.weights.with_values(
                rng.normal(0, 0.5, len(model.weights))
            )
            batch = random_batch(rng, 5, 3)
            _, grad = model.loss_and_gradient(batch)
            numeric = finite_difference_gradient(model, batch)
            np.testing.assert_allclose(grad.values, numeric, rtol=1e-4, atol=1e-7)

    def test_duplicated_batch_same_loss_and_gradient(self):
        rng = np.random.default_rng(3)
        cfg = ModelConfig(input_dim=4, class_count=3, hidden_dim=4, seed=2)
        model = TrainableModel(cfg)
        batch = random_batch(rng, 4, 3)
        doubled = Batch(
            np.concatenate([batch.inputs, batch.inputs]),
            np.concatenate([batch.labels, batch.labels]),
        )
        loss1, grad1 = model.loss_and_gradient(batch)
        loss2, grad2 = model.loss_and_gradient(doubled)
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        np.testing.assert_allclose(grad1.values, grad2.values, rtol=1e-12, atol=1e-15)

    def test_dimension_mismatch(self):
        cfg = ModelConfig(input_dim=4, class_count=3, seed=0)
        model = TrainableModel(cfg)
        bad = Batch(np.zeros((2, 5)), np.array([0, 1]))
        with pytest.raises(ValueError):
            model.loss_and_gradient(bad)
        out_of_range = Batch(np.zeros((2, 4)), np.array([0, 3]))
        with pytest.raises(ValueError):
            model.loss_and_gradient(out_of_range)


def finite_difference_gradient(model, batch, step=1e-5):
    """Independent oracle: central differences of the batch loss."""
    base = model.weights
    numeric = np.zeros(len(base))
    for i in range(len(base)):
        for sign in (+1.0, -1.0):
            shifted = base.values.copy()
            shifted[i] += sign * step
            model.weights = base.with_values(shifted)
            loss, _ = model.loss_and_gradient(batch)
            numeric[i] += sign * loss
    model.weights = base
    return numeric / (2 * step)


class SquaredLossProbe(TrainableModel):
    """1-parameter model with loss (w - 1)^2, for checking the update rule."""

    def __init__(self, learning_rate):
        cfg = ModelConfig(
            input_dim=1, class_count=2, hidden_dim=0, learning_rate=learning_rate, seed=0
        )
        super().__init__(cfg)
        self.weights = ParameterVector(np.array([0.0]), make_layout([("w", 1)]))

    def loss_and_gradient(self, batch):
        w = float(self.weights.values[0])
        return (w - 1.0) ** 2, self.weights.with_values(np.array([2.0 * (w - 1.0)]))


class TestSgdBatchStep:
    def test_descends_hand_computed_parabola(self):
        # loss (w-1)^2 at w=0 has slope -2; one step at lr 0.1 lands on 0.2
        model = SquaredLossProbe(learning_rate=0.1)
        batch = Batch(np.zeros((1, 1)), np.array([0]))
        new = sgd_batch_step(model, batch)
        assert new.values[0] == pytest.approx(0.2, abs=1e-15)

    def test_zero_gradient_leaves_weights(self):
        model = SquaredLossProbe(learning_rate=0.1)
        model.weights = model.weights.with_values(np.array([1.0]))  # stationary point
        batch = Batch(np.zeros((1, 1)), np.array([0]))
        new = sgd_batch_step(model, batch)
        assert new.values[0] == 1.0

    def test_loss_non_increasing_on_toy_batch(self):
        data = synth_classification(2, 2, 20, seed=4, noise_sigma=0.02)
        cfg = ModelConfig(input_dim=2, class_count=2, learning_rate=1e-3, seed=1)
        model = TrainableModel(cfg)
        batch = Batch(data.inputs, data.labels)
        losses = [model.loss_and_gradient(batch)[0]]
        for _ in range(2):
            sgd_batch_step(model, batch)
            losses.append(model.loss_and_gradient(batch)[0])
        assert losses[1] <= losses[0] and losses[2] <= losses[1]


class TestTrainEpochs:
    def setup_method(self):
        self.data = synth_classification(3, 4, 40, seed=6, noise_sigma=0.05)
        self.cfg = ModelConfig(input_dim=4, class_count=3, learning_rate=0.1, seed=5)

    def test_delta_applies_back_exactly(self):
        model = TrainableModel(self.cfg)
        before = model.weights
        delta = train_epochs(model, self.data, epochs=3, batch_size=16)
        reconstructed = before + delta
        assert np.array_equal(reconstructed.values, model.weights.values)

    def test_zero_epochs_rejected(self):
        model = TrainableModel(self.cfg)
        with pytest.raises(ValueError):
            train_epochs(model, self.data, epochs=0, batch_size=16)

    def test_empty_shard_rejected(self):
        model = TrainableModel(self.cfg)
        empty = DatasetShard(np.zeros((0, 4)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            train_epochs(model, empty, epochs=1, batch_size=16)

    def test_replay_identical_deltas(self):
        d1 = train_epochs(TrainableModel(self.cfg), self.data, 4, 16)
        d2 = train_epochs(TrainableModel(self.cfg), self.data, 4, 16)
        assert np.array_equal(d1.values, d2.values)

    def test_staggered_epochs_match_single_call(self):
        # four 1-epoch calls at the right start offsets walk the same shuffle
        # sequence as one 4-epoch call (up to per-call recomposition ulps)
        m1 = TrainableModel(self.cfg)
        train_epochs(m1, self.data, 4, 16)
        m2 = TrainableModel(self.cfg)
        for e in range(4):
            train_epochs(m2, self.data, 1, 16, start_epoch=e)
        np.testing.assert_allclose(
            m1.weights.values, m2.weights.values, rtol=1e-12, atol=1e-15
        )


class TestCentralizedReference:
    def test_single_shard_equals_train_epochs(self):
        data = synth_classification(3, 4, 40, seed=6, noise_sigma=0.05)
        cfg = ModelConfig(input_dim=4, class_count=3, learning_rate=0.1, seed=5)
        model = TrainableModel(cfg)
        train_epochs(model, data, 10, 16)
        reference = centralized_reference_train([data], cfg, 10, batch_size=16)
        assert np.array_equal(model.weights.values, reference.values)

    def test_pre_concatenated_union_identical(self):
        from deltagossip.dataset import concat_shards

        a = synth_classification(3, 4, 30, seed=1, noise_sigma=0.05)
        b = synth_classification(3, 4, 30, seed=2, noise_sigma=0.05)
        cfg = ModelConfig(input_dim=4, class_count=3, learning_rate=0.1, seed=5)
        split = centralized_reference_train([a, b], cfg, 5, batch_size=16)
        union = centralized_reference_train([concat_shards([a, b])], cfg, 5, batch_size=16)
        assert np.array_equal(split.values, union.values)

    def test_beats_every_single_shard_model(self):
        data = synth_classification(3, 16, 200, seed=3, noise_sigma=0.30)
        per_node, gval = shard_equal(
            data, ShardPlan(node_count=5, train_fraction=0.8, seed=2), holdout_fraction=0.4
        )
        cfg = ModelConfig(input_dim=16, class_count=3, learning_rate=0.1, seed=1)
        shards = [train for train, _ in per_node]
        central_acc = evaluate(
            TrainableModel(cfg, centralized_reference_train(shards, cfg, 50, 16)), gval
        )[0]
        for shard in shards:
            model = TrainableModel(cfg)
            train_epochs(model, shard, 50, 16)
            assert central_acc >= evaluate(model, gval)[0]

    def test_no_shards_rejected(self):
        cfg = ModelConfig(input_dim=4, class_count=3, seed=0)
        with pytest.raises(ValueError):
            centralized_reference_train([], cfg, 5)


class TestEvaluate:
    def test_identity_map_scores_perfectly(self):
        # inputs are their own logits: labels = argmax(input) is echoed back
        rng = np.random.default_rng(11)
        inputs = rng.uniform(0, 1, (50, 3))
        labels = np.argmax(inputs, axis=1)
        data = DatasetShard(inputs, labels)
        cfg = ModelConfig(input_dim=3, class_count=3, hidden_dim=0, seed=0)
        model = TrainableModel(cfg)
        values = np.zeros(len(model.weights))
        values[:9] = np.eye(3).ravel() * 10.0
        model.weights = model.weights.with_values(values)
        acc, _ = evaluate(model, data)
        assert acc == 1.0

    def test_uniform_model_on_balanced_set(self):
        # all-zero weights tie every class; argmax picks index 0
        data = synth_classification(4, 3, 25, seed=8, noise_sigma=0.05)
        cfg = ModelConfig(input_dim=3, class_count=4, hidden_dim=0, seed=0)
        model = TrainableModel(cfg)
        model.weights = model.weights.with_values(np.zeros(len(model.weights)))
        acc, loss = evaluate(model, data)
        assert acc == pytest.approx(1 / 4, abs=1e-12)
        assert loss == pytest.approx(np.log(4), abs=1e-12)

    def test_permutation_invariant_accuracy(self):
        data = synth_classification(3, 4, 30, seed=2, noise_sigma=0.05)
        cfg = ModelConfig(input_dim=4, class_count=3, seed=3)
        model = TrainableModel(cfg)
        perm = np.random.default_rng(0).permutation(data.size)
        shuffled = DatasetShard(data.inputs[perm], data.labels[perm])
        assert evaluate(model, data)[0] == evaluate(model, shuffled)[0]

    def test_empty_dataset_rejected(self):
        cfg = ModelConfig(input_dim=4, class_count=3, seed=0)
        model = TrainableModel(cfg)
        empty = DatasetShard(np.zeros((0, 4)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            evaluate(model, empty)
