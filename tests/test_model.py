import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis import seed as hypothesis_seed

from deltagossip import model as model_module
from deltagossip.dataset import ShardPlan, shard_equal, synth_classification
from deltagossip.model import (
    ModelConfig,
    TrainableModel,
    TrainingError,
    centralized_reference_train,
    evaluate,
    init_weights,
    sgd_batch_step,
    train_epochs,
)
from deltagossip.dataset import DatasetShard
from deltagossip.params import ParameterVector, make_layout

from reference_engine import (
    frozen_loss_and_gradient,
    frozen_trained,
    log_softmax_argmax,
    loss_and_gradient,
    reference_logits,
)


def train_alone(model, shard, epochs, batch_size, start_epoch=0):
    """Train one model as a group of one; its weight delta (P,)."""
    return train_epochs([model], shard.inputs[None], shard.labels[None], epochs, batch_size,
                        start_epoch)[0]


def random_batch(rng, dim, classes, size=8):
    return DatasetShard(rng.uniform(0, 1, (size, dim)), rng.integers(0, classes, size))


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
        part = {seg.name: w.values[seg.offset : seg.offset + seg.length] for seg in w.layout}
        assert np.all(part["hidden_b"] == 0.0)
        assert np.all(part["out_b"] == 0.0)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            ModelConfig(input_dim=0, class_count=3)
        with pytest.raises(ValueError):
            ModelConfig(input_dim=4, class_count=1)
        with pytest.raises(ValueError):
            ModelConfig(input_dim=4, class_count=3, learning_rate=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected(self, value):
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            ModelConfig(input_dim=4, class_count=3, learning_rate=value)

    @pytest.mark.parametrize("field", ["hidden_dim", "seed"])
    def test_negative_field_named(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be non-negative, got -2$"):
            ModelConfig(input_dim=4, class_count=3, **{field: -2})


class TestWeightLayout:
    """A model's weights always carry its layout: another is rejected where it is assigned."""

    CONFIG = ModelConfig(input_dim=2, class_count=2, seed=0)  # out_w[4], out_b[2]

    @pytest.mark.parametrize("length", [6, 5])
    def test_another_layout_is_rejected_and_the_weights_kept(self, length):
        model = TrainableModel(self.CONFIG)
        before = model.weights
        other = ParameterVector(np.zeros(length), make_layout([("w", length)]))
        message = (f"weights do not match the model layout: got w[{length}], "
                   "the model takes out_w[4], out_b[2]")
        with pytest.raises(ValueError) as info:
            model.weights = other
        assert str(info.value) == message
        assert model.weights is before
        with pytest.raises(ValueError) as info:
            TrainableModel(self.CONFIG, other)
        assert str(info.value) == message

    def test_rejected_weights_leave_training_and_evaluation_checked(self):
        data = synth_classification(2, 2, 10, seed=1, noise_sigma=0.02)
        model, twin = TrainableModel(self.CONFIG), TrainableModel(self.CONFIG)
        with pytest.raises(ValueError, match="do not match the model layout"):
            model.weights = ParameterVector(np.zeros(6), make_layout([("w", 6)]))
        train_alone(model, data, 1, 4)
        train_alone(twin, data, 1, 4)
        assert model.weights.layout == model_module.model_layout(self.CONFIG)
        assert np.array_equal(model.weights.values, twin.weights.values)
        assert evaluate(model, data) == evaluate(twin, data)

    def test_an_equal_layout_object_is_accepted(self):
        model = TrainableModel(self.CONFIG)
        layout = model_module.model_layout(self.CONFIG)
        assert layout is not model.weights.layout
        model.weights = ParameterVector(np.ones(6), layout)
        assert np.array_equal(model.weights.values, np.ones(6))


class TestLossAndGradient:
    def test_uniform_model_loss_is_log_class_count(self):
        cfg = ModelConfig(input_dim=4, class_count=3, hidden_dim=0, seed=0)
        batch = random_batch(np.random.default_rng(0), 4, 3)
        loss, _ = loss_and_gradient(cfg, np.zeros(len(init_weights(cfg))), batch)
        assert loss == pytest.approx(np.log(3), abs=1e-12)

    @pytest.mark.parametrize("hidden", [0, 6])
    def test_gradient_matches_central_finite_differences(self, hidden):
        rng = np.random.default_rng(42)
        cfg = ModelConfig(input_dim=5, class_count=3, hidden_dim=hidden, seed=1)
        for _ in range(10):
            w = rng.normal(0, 0.5, len(init_weights(cfg)))
            batch = random_batch(rng, 5, 3)
            _, grad = loss_and_gradient(cfg, w, batch)
            numeric = finite_difference_gradient(cfg, w, batch)
            np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-7)

    def test_duplicated_batch_same_loss_and_gradient(self):
        rng = np.random.default_rng(3)
        cfg = ModelConfig(input_dim=4, class_count=3, hidden_dim=4, seed=2)
        w = init_weights(cfg).values
        batch = random_batch(rng, 4, 3)
        doubled = DatasetShard(
            np.concatenate([batch.inputs, batch.inputs]),
            np.concatenate([batch.labels, batch.labels]),
        )
        loss1, grad1 = loss_and_gradient(cfg, w, batch)
        loss2, grad2 = loss_and_gradient(cfg, w, doubled)
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        np.testing.assert_allclose(grad1, grad2, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("shape", [(5,), (3, 5), (2, 3, 4)])
    def test_pick_grid_is_one_read_only_np_indices_per_shape(self, shape):
        grid = model_module._pick_grid(shape)
        assert model_module._pick_grid(shape) is grid
        expected = np.indices(shape, sparse=True)
        assert len(grid) == len(expected)
        for axis, reference in zip(grid, expected):
            assert axis.shape == reference.shape and np.array_equal(axis, reference)
            assert not axis.flags.writeable
            with pytest.raises(ValueError):
                axis[...] = 0


def finite_difference_gradient(config, w, batch, step=1e-5):
    """Independent oracle: central differences of the batch loss at weights w."""
    numeric = np.zeros(len(w))
    for i in range(len(w)):
        for sign in (+1.0, -1.0):
            shifted = w.copy()
            shifted[i] += sign * step
            numeric[i] += sign * loss_and_gradient(config, shifted, batch)[0]
    return numeric / (2 * step)


class TestRequireFit:
    CONFIG = ModelConfig(input_dim=4, class_count=3, seed=0)

    @pytest.mark.parametrize("inputs, labels, message", [
        (np.zeros((0, 5)), [], "batch must hold at least one sample"),
        (np.zeros((2, 5)), [0, 3], "batch feature dimension 5 does not match input_dim 4"),
        (np.zeros((2, 4)), [0, 3], "batch label 3 is not below class_count 3"),
    ])
    def test_a_shard_the_model_cannot_take_is_named_and_not_stepped_on(self, inputs, labels,
                                                                        message):
        shard = DatasetShard(inputs, labels)
        with pytest.raises(ValueError) as info:
            self.CONFIG.require_fit(shard, "batch")
        assert str(info.value) == message
        model = TrainableModel(self.CONFIG)
        before = model.weights
        with pytest.raises(ValueError) as info:
            sgd_batch_step(model, shard)
        assert str(info.value) == message
        assert model.weights is before


class TestSgdBatchStep:
    @pytest.mark.parametrize("hidden", [0, 4])
    def test_one_step_is_w_minus_lr_times_the_allocating_gradient(self, hidden):
        rng = np.random.default_rng(hidden)
        cfg = ModelConfig(input_dim=3, class_count=4, hidden_dim=hidden, learning_rate=0.3,
                          seed=1)
        for _ in range(10):
            w = rng.normal(0, 0.5, len(init_weights(cfg)))
            batch = random_batch(rng, 3, 4, size=int(rng.integers(1, 9)))
            model = TrainableModel(cfg, init_weights(cfg).with_values(w))
            _, grad = frozen_loss_and_gradient(cfg, w, batch.inputs, batch.labels)
            new = sgd_batch_step(model, batch)
            assert new is model.weights
            assert new.values.tobytes() == (w - cfg.learning_rate * grad).tobytes()

    def test_a_non_finite_loss_is_a_floating_point_error_and_keeps_the_weights(self):
        model = TrainableModel(ModelConfig(input_dim=2, class_count=2, seed=0))
        before = model.weights
        batch = DatasetShard([[np.inf, 0.0], [0.0, 0.0]], [0, 1])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="^non-finite loss$"):
            sgd_batch_step(model, batch)
        assert model.weights is before

    def test_loss_non_increasing_on_toy_batch(self):
        data = synth_classification(2, 2, 20, seed=4, noise_sigma=0.02)
        cfg = ModelConfig(input_dim=2, class_count=2, learning_rate=1e-3, seed=1)
        model = TrainableModel(cfg)
        batch = data
        losses = [loss_and_gradient(cfg, model.weights.values, batch)[0]]
        for _ in range(2):
            sgd_batch_step(model, batch)
            losses.append(loss_and_gradient(cfg, model.weights.values, batch)[0])
        assert losses[1] <= losses[0] and losses[2] <= losses[1]


class TestTrainEpochs:
    def setup_method(self):
        self.data = synth_classification(3, 4, 40, seed=6, noise_sigma=0.05)
        self.cfg = ModelConfig(input_dim=4, class_count=3, learning_rate=0.1, seed=5)

    def test_delta_applies_back_exactly(self):
        model = TrainableModel(self.cfg)
        before = model.weights
        delta = train_alone(model, self.data, epochs=3, batch_size=16)
        reconstructed = before.values + delta
        assert np.array_equal(reconstructed, model.weights.values)

    def test_zero_epochs_rejected(self):
        model = TrainableModel(self.cfg)
        with pytest.raises(ValueError):
            train_alone(model, self.data, epochs=0, batch_size=16)

    def test_empty_shard_rejected(self):
        model = TrainableModel(self.cfg)
        empty = DatasetShard(np.zeros((0, 4)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            train_alone(model, empty, epochs=1, batch_size=16)

    @pytest.mark.parametrize("start_epoch, error, message", [
        (-1, ValueError, "start_epoch must be non-negative, got -1"),
        (1.5, TypeError, "start_epoch must be an integer, got 1.5"),
        (True, TypeError, "start_epoch must be an integer, got True"),
    ])
    def test_a_bad_start_epoch_is_named(self, start_epoch, error, message):
        model = TrainableModel(self.cfg)
        before = model.weights
        with pytest.raises(error) as info:
            train_alone(model, self.data, 1, 16, start_epoch=start_epoch)
        assert type(info.value) is error and str(info.value) == message
        assert model.weights is before

    def test_inputs_of_another_width_are_a_value_error(self):
        model = TrainableModel(self.cfg)
        narrow = DatasetShard(self.data.inputs[:, :3], self.data.labels)
        message = "^inputs feature dimension 3 does not match input_dim 4$"
        with pytest.raises(ValueError, match=message) as info:
            train_alone(model, narrow, 1, 16)
        assert type(info.value) is ValueError
        with pytest.raises(ValueError, match=message):
            centralized_reference_train([narrow], self.cfg, 1, 16)

    def test_replay_identical_deltas(self):
        d1 = train_alone(TrainableModel(self.cfg), self.data, 4, 16)
        d2 = train_alone(TrainableModel(self.cfg), self.data, 4, 16)
        assert np.array_equal(d1, d2)

    def test_staggered_epochs_match_single_call(self):
        # four 1-epoch calls at the right start offsets walk the same shuffle
        # sequence as one 4-epoch call (up to per-call recomposition ulps)
        m1 = TrainableModel(self.cfg)
        train_alone(m1, self.data, 4, 16)
        m2 = TrainableModel(self.cfg)
        for e in range(4):
            train_alone(m2, self.data, 1, 16, start_epoch=e)
        np.testing.assert_allclose(
            m1.weights.values, m2.weights.values, rtol=1e-12, atol=1e-15
        )


def step_alone(model, inputs, labels, epochs, batch_size, start_epoch=0):
    """Reference trainer: one model, one sgd_batch_step per batch, recomposed as before + delta."""
    before = model.weights
    for e in range(epochs):
        order = np.random.default_rng([model.config.seed, start_epoch + e]).permutation(
            len(labels))
        for lo in range(0, len(labels), batch_size):
            idx = order[lo : lo + batch_size]
            sgd_batch_step(model, DatasetShard(inputs[idx], labels[idx]))
    after = model.weights
    delta = after.with_values(after.values - before.values)
    model.weights = before.with_values(before.values + delta.values)
    return delta


@st.composite
def training_runs(draw):
    """A model config, a batch size of at least 2, epochs from a start_epoch, and two
    groups of models on random weights and data, with shard sizes n + 1 and n."""
    cfg = ModelConfig(
        input_dim=draw(st.integers(1, 5)),
        class_count=draw(st.integers(2, 4)),
        hidden_dim=draw(st.sampled_from([0, 1, 4])),
        learning_rate=draw(st.sampled_from([0.05, 0.5])),
        seed=draw(st.integers(0, 1000)),
    )
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = len(init_weights(cfg))
    groups = []
    for shard_size in (n + 1, n):
        count = draw(st.integers(1, 5))
        models = [TrainableModel(cfg, init_weights(cfg).with_values(rng.normal(0, 0.5, size)))
                  for _ in range(count)]
        inputs = rng.uniform(0, 1, (count, shard_size, cfg.input_dim))
        labels = rng.integers(0, cfg.class_count, (count, shard_size))
        groups.append((models, inputs, labels))
    schedule = (draw(st.integers(2, 7)), draw(st.integers(1, 3)), draw(st.integers(0, 50)))
    return groups, schedule


class TestGroupTraining:
    @hypothesis_seed(20250201)
    @settings(max_examples=60, deadline=None, database=None)
    @given(training_runs())
    def test_stacked_group_equals_each_model_alone(self, run):
        # Of two consecutive shard sizes at least one is not a multiple of
        # the batch size, so every run has a short last batch.
        groups, (batch_size, epochs, start_epoch) = run
        for models, inputs, labels in groups:
            alone = [TrainableModel(m.config, m.weights) for m in models]
            stepped = [TrainableModel(m.config, m.weights) for m in models]
            deltas = train_epochs(models, inputs, labels, epochs, batch_size, start_epoch)
            for g, model in enumerate(models):
                [delta] = train_epochs([alone[g]], inputs[g][None], labels[g][None], epochs,
                                       batch_size, start_epoch)
                reference = step_alone(stepped[g], inputs[g], labels[g], epochs, batch_size,
                                       start_epoch)
                for other, other_delta in ((alone[g], delta), (stepped[g], reference.values)):
                    assert np.array_equal(model.weights.values, other.weights.values)
                    assert np.array_equal(deltas[g], other_delta)

    def test_failure_names_the_lowest_failing_row_of_the_first_failing_epoch(self):
        cfg = ModelConfig(input_dim=2, class_count=2, learning_rate=0.1, seed=3)
        rng = np.random.default_rng(0)
        inputs = rng.uniform(0, 1, (4, 10, 2))
        labels = rng.integers(0, 2, (4, 10))
        # Huge inputs overflow the logits once the weights have grown: row 3
        # (all samples) at its second batch of epoch 0, row 1 (one sample,
        # labelled against the start model's prediction so that it moves the
        # weights) at that sample's second visit, in epoch 1. Labels beyond
        # the class count, in rows 2 and 3, are a ValueError for row 2
        # before any step.
        inputs[3, :, :] *= 3e155
        inputs[1, 0, :] *= 1e156
        labels[1, 0] = 1
        beyond = labels.copy()
        beyond[2, 0], beyond[3, 5] = 2, 3
        models = [TrainableModel(cfg) for _ in range(4)]
        start = [m.weights for m in models]
        with pytest.raises(ValueError) as info:
            train_epochs(models, inputs, beyond, 3, 4, start_epoch=0)
        assert type(info.value) is ValueError
        assert str(info.value) == "labels row 2: label 2 is not below class_count 2"
        assert all(m.weights is w for m, w in zip(models, start))

        # Row 1 is lower than row 3 but fails an epoch later.
        with pytest.raises(TrainingError) as info:
            train_epochs(models, inputs, labels, 3, 4, start_epoch=0)
        assert (info.value.row, info.value.epoch) == (3, 0)
        assert str(info.value) == "non-finite loss"
        with pytest.raises(TrainingError) as info:
            train_epochs(models[:3], inputs[:3], labels[:3], 3, 4, start_epoch=0)
        assert (info.value.row, info.value.epoch) == (1, 1)

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 4])
    def test_weights_that_fail_before_the_loss_are_named(self, batch_size):
        # Zero inputs make the logits the output biases. Row 1's top bias
        # gives every class-1 sample a finite loss of 1e308 and a bias step
        # that overflows class 1's bias to +inf; only the next step's loss
        # is NaN. Row 0 stays finite through epoch 0.
        cfg = ModelConfig(input_dim=2, class_count=3, learning_rate=1e308, seed=0)
        models = [TrainableModel(cfg) for _ in range(2)]
        values = models[1].weights.values.copy()
        values[-3:] = [1.7e308, 1.6e308, 0.0]
        models[1].weights = models[1].weights.with_values(values)
        labels = np.array([[0, 1, 2, 0], [1, 1, 1, 0]])
        with pytest.raises(TrainingError) as info:
            train_epochs(models, np.zeros((2, 4, 2)), labels, 2, batch_size)
        assert (info.value.row, info.value.epoch) == (1, 0)
        assert str(info.value) == "parameter values must be finite"


def frozen_train(config, before, inputs, labels, epochs, batch_size, start_epoch):
    """(weights, deltas) (G, P) of the allocating step's training loop over take batches."""
    deltas = frozen_trained(config, before, inputs, labels, epochs, batch_size,
                            start_epoch) - before
    return before + deltas, deltas


def per_model_rewrap(models, trained):
    """The per-model loop train_epochs used to end with, operation for operation:
    each trained row becomes its delta in place and the model a new vector."""
    for model, row in zip(models, trained):
        row -= model.weights.values
        model.weights = model.weights.with_values(model.weights.values + row)
    return trained


@st.composite
def frozen_step_runs(draw):
    """A group of G models on random weights and data, with a batch size that does
    not divide the shard, so every epoch ends on a short batch."""
    cfg = ModelConfig(
        input_dim=draw(st.integers(1, 9)),
        class_count=draw(st.integers(2, 5)),
        hidden_dim=draw(st.sampled_from([0, 1, 4])),
        learning_rate=draw(st.sampled_from([0.05, 0.5])),
        seed=draw(st.integers(0, 1000)),
    )
    count = draw(st.integers(1, 6))
    batch_size = draw(st.integers(2, 20))
    size = draw(st.integers(0, 3)) * batch_size + draw(st.integers(1, batch_size - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.normal(0, 0.5, (count, len(init_weights(cfg))))
    inputs = rng.uniform(-1, 1, (count, size, cfg.input_dim))
    labels = rng.integers(0, cfg.class_count, (count, size))
    schedule = (batch_size, draw(st.integers(1, 3)), draw(st.integers(0, 50)))
    return cfg, weights, inputs, labels, schedule


class TestFrozenStep:
    @hypothesis_seed(20250401)
    @settings(max_examples=150, deadline=None, database=None)
    @given(frozen_step_runs())
    def test_train_epochs_bitwise_equal_to_the_allocating_step(self, run):
        cfg, weights, inputs, labels, (batch_size, epochs, start_epoch) = run
        models = [TrainableModel(cfg, init_weights(cfg).with_values(row)) for row in weights]
        starts = [m.weights for m in models]
        saved = (inputs.copy(), labels.copy(), [v.values.copy() for v in starts])

        deltas = train_epochs(models, inputs, labels, epochs, batch_size, start_epoch)
        expected_w, expected_d = frozen_train(cfg, weights, inputs, labels, epochs,
                                              batch_size, start_epoch)
        assert deltas.shape == expected_d.shape
        for g, model in enumerate(models):
            assert model.weights.values.tobytes() == expected_w[g].tobytes()
            assert deltas[g].tobytes() == expected_d[g].tobytes()

        assert np.array_equal(inputs, saved[0]) and np.array_equal(labels, saved[1])
        for start, values in zip(starts, saved[2]):
            assert start.values.tobytes() == values.tobytes()

    @hypothesis_seed(20250402)
    @settings(max_examples=100, deadline=None, database=None)
    @given(frozen_step_runs())
    def test_single_model_gradient_bitwise_equal_to_the_allocating_step(self, run):
        cfg, weights, inputs, labels, _ = run
        loss, grad = loss_and_gradient(cfg, weights[0], DatasetShard(inputs[0], labels[0]))
        expected_loss, expected_grad = frozen_loss_and_gradient(cfg, weights[0], inputs[0],
                                                                labels[0])
        assert loss == float(expected_loss)
        assert grad.tobytes() == expected_grad.tobytes()


class TestRewrap:
    @hypothesis_seed(20250501)
    @settings(max_examples=120, deadline=None, database=None)
    @given(frozen_step_runs(), st.booleans())
    def test_train_epochs_bitwise_equal_to_the_per_model_rewrap(self, run, staggered):
        cfg, weights, inputs, labels, (batch_size, epochs, start_epoch) = run
        models = [TrainableModel(cfg, init_weights(cfg).with_values(row)) for row in weights]
        reference = [TrainableModel(cfg, m.weights) for m in models]
        saved = inputs.copy(), labels.copy()
        calls = ([(start_epoch + e, 1) for e in range(epochs)] if staggered
                 else [(start_epoch, epochs)])
        earlier = []  # every vector a model held, with its bytes
        for start, count in calls:
            earlier += [(m.weights, m.weights.values.tobytes()) for m in models]
            deltas = train_epochs(models, inputs, labels, count, batch_size, start)
            trained = frozen_trained(cfg, np.stack([m.weights.values for m in reference]),
                                     inputs, labels, count, batch_size, start)
            expected = per_model_rewrap(reference, trained)
            assert deltas.shape == expected.shape
            for g, model in enumerate(models):
                assert model.weights.values.tobytes() == reference[g].weights.values.tobytes()
                assert deltas[g].tobytes() == expected[g].tobytes()
                assert model.weights.layout == reference[g].weights.layout
                assert not model.weights.values.flags.writeable
        assert np.array_equal(inputs, saved[0]) and np.array_equal(labels, saved[1])
        for vector, values in earlier:
            assert vector.values.tobytes() == values

    def test_an_overflowing_delta_is_the_per_model_error_and_updates_no_model(self):
        # Zero inputs make the logits the output biases. Row 1's class-0 bias
        # starts at -1.7e308 and every label is 0, so each of its two steps
        # (batch size 1) raises that bias by about lr = 1e308 and it ends
        # finite near 0.3e308: a delta of about 2e308, which overflows.
        cfg = ModelConfig(input_dim=1, class_count=10, learning_rate=1e308, seed=0)
        values = init_weights(cfg).values.copy()
        values[-10] = -1.7e308
        inputs, labels = np.zeros((2, 2, 1)), np.zeros((2, 2), dtype=int)

        def group():
            return [TrainableModel(cfg), TrainableModel(cfg, init_weights(cfg).with_values(values))]

        models, reference = group(), group()
        starts = [m.weights for m in models]
        with pytest.raises(ValueError) as error:
            train_epochs(models, inputs, labels, 1, 1)
        trained = frozen_trained(cfg, np.stack([m.weights.values for m in reference]),
                                 inputs, labels, 1, 1, 0)
        assert np.isfinite(trained).all()
        with np.errstate(over="ignore"), pytest.raises(ValueError) as expected:
            per_model_rewrap(reference, trained)
        assert type(error.value) is type(expected.value) is ValueError
        assert str(error.value) == str(expected.value) == "parameter values must be finite"
        assert all(m.weights is w for m, w in zip(models, starts))


class TestCentralizedReference:
    def test_single_shard_equals_train_epochs(self):
        data = synth_classification(3, 4, 40, seed=6, noise_sigma=0.05)
        cfg = ModelConfig(input_dim=4, class_count=3, learning_rate=0.1, seed=5)
        model = TrainableModel(cfg)
        train_alone(model, data, 10, 16)
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
        # a 40% global set, larger than shard_equal's own holdout
        held, rest = np.split(np.random.default_rng(2).permutation(data.size), [240])
        gval = DatasetShard(data.inputs[held], data.labels[held], origin="global_val")
        per_node, _ = shard_equal(
            DatasetShard(data.inputs[rest], data.labels[rest]),
            ShardPlan(node_count=5, train_fraction=0.8, seed=2), global_val=gval,
        )
        cfg = ModelConfig(input_dim=16, class_count=3, learning_rate=0.1, seed=1)
        shards = [train for train, _ in per_node]
        central_acc = evaluate(
            TrainableModel(cfg, centralized_reference_train(shards, cfg, 50, 16)), gval
        )
        for shard in shards:
            model = TrainableModel(cfg)
            train_alone(model, shard, 50, 16)
            assert central_acc >= evaluate(model, gval)

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
        assert evaluate(model, data) == 1.0

    def test_uniform_model_on_balanced_set(self):
        # all-zero weights tie every class; argmax picks index 0
        data = synth_classification(4, 3, 25, seed=8, noise_sigma=0.05)
        cfg = ModelConfig(input_dim=3, class_count=4, hidden_dim=0, seed=0)
        model = TrainableModel(cfg)
        model.weights = model.weights.with_values(np.zeros(len(model.weights)))
        assert evaluate(model, data) == pytest.approx(1 / 4, abs=1e-12)

    def test_permutation_invariant_accuracy(self):
        data = synth_classification(3, 4, 30, seed=2, noise_sigma=0.05)
        cfg = ModelConfig(input_dim=4, class_count=3, seed=3)
        model = TrainableModel(cfg)
        perm = np.random.default_rng(0).permutation(data.size)
        shuffled = DatasetShard(data.inputs[perm], data.labels[perm])
        assert evaluate(model, data) == evaluate(model, shuffled)

    def test_empty_dataset_rejected(self):
        cfg = ModelConfig(input_dim=4, class_count=3, seed=0)
        model = TrainableModel(cfg)
        empty = DatasetShard(np.zeros((0, 4)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            evaluate(model, empty)

    def test_dimension_and_label_mismatch_rejected(self):
        model = TrainableModel(ModelConfig(input_dim=4, class_count=3, seed=0))
        with pytest.raises(ValueError, match="^dataset feature dimension 5 does not match "
                                             "input_dim 4$"):
            evaluate(model, DatasetShard(np.zeros((2, 5)), [0, 1]))
        with pytest.raises(ValueError, match="^dataset label 3 is not below class_count 3$"):
            evaluate(model, DatasetShard(np.zeros((2, 4)), [0, 3]))


# Absolute gaps below a row's top logit, each then widened by 0-2 ulps:
# exact ties, and gaps under the half-ulp of a log-sum-exp near log(2),
# which the log-softmax rounds away, so that a lower class can win on a
# smaller logit.
NEAR_TIE_GAPS = (0.0, 1e-17, 3e-17, 5e-17, 1e-16, 1e-15)


@st.composite
def adversarial_logits(draw):
    """Logits (n, k) with exact ties, near-ties, +-inf and NaN, and the k > 128 split."""
    k = draw(st.one_of(st.integers(2, 20), st.sampled_from([129, 300])))
    n = draw(st.one_of(st.just(1), st.integers(2, 40)))
    scale = draw(st.sampled_from([1e-300, 1e-3, 1.0, 40.0, 800.0, 1e300]))
    tie_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    special_share = draw(st.sampled_from([0.0, 0.0, 0.05, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(0.0, 1.0, (n, k)) * scale
    for row in np.flatnonzero(rng.random(n) < tie_share):
        top = logits[row].max()
        cols = rng.choice(k, size=min(k, int(rng.integers(2, 5))), replace=False)
        for col in cols:
            value = top - rng.choice(NEAR_TIE_GAPS)
            for _ in range(rng.integers(3)):
                value = np.nextafter(value, -np.inf)
            logits[row, col] = value
        logits[row, cols[0]] = top  # the top itself, at a random class
    special = rng.random((n, k)) < special_share
    logits[special] = rng.choice([np.inf, -np.inf, np.nan], size=int(special.sum()))
    if special_share and n > 1:
        logits[rng.integers(n)] = -np.inf
    return logits


def kernel_hits(logits, labels):
    """The hits evaluate counts on logits (n, k): ``_count_hits`` on their class
    planes and, where it returns None, the definition through the library's
    ``_log_softmax`` on the same logits."""
    n = logits.shape[0]
    shard = DatasetShard(np.zeros((n, 1)), labels)
    hits = model_module._count_hits(logits.T.copy(), shard)
    if hits is None:
        predicted = np.argmax(model_module._log_softmax(logits), axis=-1)
        hits = np.count_nonzero(predicted == shard.labels)
    return hits


def evaluates_like_the_reference(logits):
    """True when the kernel scores every sample of logits as the reference does:
    labels equal to its predictions give n hits and labels one class off 0."""
    n, k = logits.shape
    with np.errstate(over="ignore", invalid="ignore"):
        expected = log_softmax_argmax(logits)
        hit = kernel_hits(logits, expected)
        miss = kernel_hits(logits, (expected + 1) % k)
    return (hit, miss) == (n, 0)


def log_softmax_calls(monkeypatch):
    """A list that collects the shape of every logits array passed to the library's
    ``_log_softmax`` from here on."""
    calls, log_softmax = [], model_module._log_softmax

    def spy(logits):
        calls.append(logits.shape)
        return log_softmax(logits)

    monkeypatch.setattr(model_module, "_log_softmax", spy)
    return calls


def tie_bound(k):
    """evaluate's T: a class at least this far below the top cannot tie it."""
    return math.ulp(math.log(k) + 1.0)


def runner_up_logits(k, gap):
    """Rows whose top logit is 0.0 and whose runner-up sits gap below it: one
    runner-up below and one above the top's class, each with the other
    classes at -50, then every other class at the gap, below and above."""
    rows = np.full((4, k), -50.0)
    rows[0, [0, k - 1]] = -gap, 0.0
    rows[1, [0, 1]] = 0.0, -gap
    rows[2:] = -gap
    rows[2, k - 1] = rows[3, 0] = 0.0
    return rows


class TestPlaneKernel:
    @hypothesis_seed(20250301)
    @settings(max_examples=400, deadline=None, database=None)
    @given(adversarial_logits(), st.integers(0, 2**32 - 1))
    def test_predictions_and_accuracy_bitwise_equal_log_softmax_argmax(self, logits, seed):
        n, k = logits.shape
        assert evaluates_like_the_reference(logits)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = log_softmax_argmax(logits)
            # labels that agree with the reference on about half the samples
            rng = np.random.default_rng(seed)
            labels = np.where(rng.random(n) < 0.5, expected, rng.integers(0, k, n))
            hits = kernel_hits(logits, labels)
        assert hits == np.count_nonzero(expected == labels)

    def test_near_tie_goes_to_the_lower_class_of_the_log_softmax(self):
        # 1e-17 below the top is lost in the log-softmax (ulp(log 2) ~ 1.1e-16),
        # so class 0 ties class 1 there and wins, against the raw argmax.
        logits = np.array([[-1e-17, 0.0, -50.0]])
        assert np.argmax(logits, axis=1)[0] == 1
        assert log_softmax_argmax(logits)[0] == 0
        assert kernel_hits(logits, [0]) == 1
        assert kernel_hits(logits, [1]) == 0

    @pytest.mark.parametrize("k", [2, 3, 10, 129, 300])
    def test_runner_up_at_the_tie_bound(self, k):
        # At exactly -T the top class must win in the reference too: that is
        # the bound's claim. Above -T the call takes the definition.
        bound = tie_bound(k)
        logits = runner_up_logits(k, bound)
        assert np.array_equal(log_softmax_argmax(logits), [k - 1, 0, k - 1, 0])
        assert evaluates_like_the_reference(logits)
        for gap in (np.nextafter(bound, 0.0), bound / 2, bound / 4, bound / 8, *NEAR_TIE_GAPS):
            assert evaluates_like_the_reference(runner_up_logits(k, gap)), gap

    def test_half_the_tie_bound_can_tie(self):
        # 299 classes at T/2 below the top round to the top's log-prob, so
        # class 0 wins row 2: a bound of T/2 would miscount it.
        logits = runner_up_logits(300, tie_bound(300) / 2)
        assert log_softmax_argmax(logits)[2] == 0

    def test_definition_runs_only_on_a_near_tie(self, monkeypatch):
        calls = log_softmax_calls(monkeypatch)
        for k in (2, 10, 300):
            assert evaluates_like_the_reference(runner_up_logits(k, 1e-3))
            assert evaluates_like_the_reference(runner_up_logits(k, tie_bound(k)))
        assert calls == []
        assert evaluates_like_the_reference(runner_up_logits(3, 1e-17))
        assert calls == [(4, 3), (4, 3)]


@st.composite
def evaluation_cases(draw):
    """(config, weights, inputs, labels): random models and sets for evaluate, with
    input_dim 1, hidden_dim 0, 1 and 8, n = 1, k up to 300, strided inputs, and
    weights scaled or copied across classes so that logits tie or nearly tie."""
    d = draw(st.sampled_from([1, 2, 5]))
    h = draw(st.sampled_from([0, 1, 8]))
    k = draw(st.one_of(st.integers(2, 12), st.integers(13, 300)))
    n = draw(st.one_of(st.just(1), st.integers(2, 30)))
    scale = draw(st.sampled_from([0.0, 1e-300, 1e-17, 1e-3, 1.0, 30.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = ModelConfig(input_dim=d, class_count=k, hidden_dim=h)
    w = rng.normal(0.0, 1.0, len(init_weights(cfg))) * scale
    if draw(st.booleans()):
        # class j copies class 0's output weights, its bias 0-2 ulps lower
        _, _, w2, b2 = model_module._layers(cfg, w)
        j = int(rng.integers(1, k))
        w2[:, j], b2[0, j] = w2[:, 0], b2[0, 0]
        for _ in range(rng.integers(3)):
            b2[0, j] = np.nextafter(b2[0, j], -np.inf)
    if draw(st.booleans()):
        x = rng.uniform(0.0, 1.0, (n, 2 * d))[:, ::2]  # a non-contiguous view
    else:
        x = rng.uniform(0.0, 1.0, (n, d))
    return cfg, w, x, rng.integers(0, k, n)


class TestClassPlanes:
    @hypothesis_seed(20261019)
    @settings(max_examples=300, deadline=None, database=None)
    @given(evaluation_cases())
    def test_planes_and_accuracy_bitwise_equal_the_definition(self, case):
        cfg, w, x, labels = case
        planes = model_module._class_planes(cfg, w, x)
        logits = reference_logits(cfg, w, x)
        assert planes.shape == logits.T.shape and planes.flags.c_contiguous
        assert planes.tobytes() == np.ascontiguousarray(logits.T).tobytes()

        model = TrainableModel(cfg, init_weights(cfg).with_values(w))
        accuracy = evaluate(model, DatasetShard(x, labels))
        assert type(accuracy) is float
        expected = np.count_nonzero(log_softmax_argmax(logits) == labels)
        assert accuracy == float(expected / len(labels))

    @pytest.mark.parametrize("out_w, out_b, accuracy", [
        # every sample ties classes 0 and 1 exactly: class 0 wins each
        ([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [0.5, 0.5, 0.0], 0.25),
        # sample 0's class 2 logit overflows to +inf (a NaN row, class 0),
        # sample 1's to -inf, and sample 2 ties classes 0 and 2
        ([[0.0, 0.0, 1e308], [0.0, 1.0, 0.0]], [0.0, 0.0, 0.0], 0.75),
    ])
    def test_evaluate_takes_the_definition_where_the_tie_bound_cannot_decide(
            self, monkeypatch, out_w, out_b, accuracy):
        calls = log_softmax_calls(monkeypatch)
        cfg = ModelConfig(input_dim=2, class_count=3)
        w = np.concatenate([np.ravel(out_w), out_b])
        x = np.array([[10.0, 0.5], [-10.0, 2.0], [0.0, -1.0], [1e-300, 0.0]])
        labels = np.array([0, 1, 2, 2])
        model = TrainableModel(cfg, init_weights(cfg).with_values(w))
        with np.errstate(over="ignore", invalid="ignore"):
            expected = log_softmax_argmax(reference_logits(cfg, w, x))
            assert evaluate(model, DatasetShard(x, labels)) == accuracy
        assert calls == [(4, 3)]
        assert accuracy == np.count_nonzero(expected == labels) / len(labels)
