import re

import numpy as np
import pytest

import deltagossip as dg
from deltagossip.params import (
    LayoutError,
    ParameterVector,
    Segment,
    make_layout,
    require_ints,
    require_positive,
    require_real,
    require_same_layout,
)
from deltagossip.cli import _experiment


def pv(values, layout=None):
    values = np.asarray(values, dtype=np.float64)
    if layout is None:
        layout = make_layout([("w", values.size)])
    return ParameterVector(values, layout)


def test_make_layout_contiguous():
    layout = make_layout([("a", 3), ("b", 2)])
    assert layout == (Segment("a", 0, 3), Segment("b", 3, 2))


def test_make_layout_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_layout([("a", 0)])


def test_length_mismatch_rejected():
    with pytest.raises(LayoutError):
        ParameterVector([1.0, 2.0], make_layout([("a", 3)]))


def test_gap_in_layout_rejected():
    with pytest.raises(LayoutError):
        ParameterVector([1.0, 2.0, 3.0], (Segment("a", 0, 2), Segment("b", 3, 1)))


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        pv([1.0, np.nan])
    with pytest.raises(ValueError):
        pv([np.inf, 0.0])


def test_values_are_frozen_and_copied():
    src = np.array([1.0, 2.0])
    vec = pv(src)
    src[0] = 99.0
    assert vec.values[0] == 1.0
    with pytest.raises(ValueError):
        vec.values[0] = 5.0


def test_mismatched_layout_operations_fail():
    a = pv([1.0, 2.0], make_layout([("a", 2)]))
    b = pv([1.0, 2.0], make_layout([("b", 2)]))
    with pytest.raises(LayoutError):
        require_same_layout([a, b])


def test_require_same_layout_empty():
    with pytest.raises(ValueError):
        require_same_layout([])


def test_require_ints_names_the_first_non_integer():
    require_ints(a=3, b=np.int64(4))
    for bad in (10.0, True, "8", None):
        with pytest.raises(TypeError, match=r"^b must be an integer"):
            require_ints(a=1, b=bad)


def test_require_ints_at_zero_names_the_field_and_value():
    require_ints(0, a=0, b=np.int64(7))
    with pytest.raises(ValueError, match=r"^b must be non-negative, got -1$"):
        require_ints(0, a=0, b=-1)
    with pytest.raises(TypeError, match=r"^b must be an integer"):
        require_ints(0, a=0, b=-1.0)


def test_require_ints_at_two_names_the_field_and_value():
    require_ints(2, a=2, b=np.int64(9))
    with pytest.raises(ValueError, match=r"^b must be >= 2, got 1$"):
        require_ints(2, a=2, b=1)
    # every field's type is checked before any bound
    with pytest.raises(TypeError, match=r"^b must be an integer, got 2.0$"):
        require_ints(2, a=1, b=2.0)


def test_require_real_at_zero_names_the_field_and_value():
    require_real(0, a=0, b=0.5, c=np.float64(3.0), d=4, e=10**308)
    for bad in (-0.5, -1, float("nan"), float("inf"), float("-inf"), 10**400, -10**400):
        message = f"b must be non-negative and finite, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            require_real(0, a=0.0, b=bad)
    with pytest.raises(TypeError, match=r"^b must be a number, got True$"):
        require_real(0, a=-1.0, b=True)


def test_require_positive_names_the_field_and_value():
    require_positive(a=1, b=1e308, c=10**308)
    for bad in (0, -0.5, float("nan"), float("inf"), 10**400, -10**400):
        message = f"b must be positive and finite, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            require_positive(a=1, b=bad)


# (builder, its other arguments, a float parameter): every float field and argument
FLOAT_FIELDS = [
    (dg.ModelConfig, {"input_dim": 2, "class_count": 2}, "learning_rate"),
    (dg.LambdaSchedule, {}, "offset"),
    (dg.LambdaSchedule, {}, "slope_divisor"),
    (dg.LambdaSchedule, {}, "cap"),
    (dg.ShardPlan, {"node_count": 2}, "train_fraction"),
    (dg.TopologyConstraints, {}, "target_avg_degree"),
    (dg.synth_classification, {"classes": 2, "dim": 2, "per_class": 2, "seed": 0},
     "noise_sigma"),
    (dg.scenario_table, {}, "baseline"),
    (dg.scenario_table, {}, "ref_conn"),
    (dg.scenario_table, {}, "density_exponent"),
    (dg.scenario_table, {}, "update_interval_s"),
    (dg.scenario_table, {}, "sync_every_updates"),
]


@pytest.mark.parametrize("value", [True, "0.5"])
@pytest.mark.parametrize("builder, kwargs, name", FLOAT_FIELDS,
                         ids=[f"{case[0].__name__}.{case[2]}" for case in FLOAT_FIELDS])
def test_float_field_rejects_a_bool_or_a_string_by_name(builder, kwargs, name, value):
    message = f"{name} must be a number, got {value!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        builder(**kwargs, **{name: value})


PATH = "unread.idx"  # load_idx checks downsample before it opens a file
VECTOR = ParameterVector([1.0, 2.0], make_layout([("w", 2)]))

# (builder, its other arguments, a bounded parameter, its minimum): every
# single-field lower bound. An int minimum bounds an integer, a float one a number.
LOWER_BOUNDS = [
    (dg.SimSchedule, {}, "train_epochs", 1),
    (dg.SimSchedule, {}, "integrate_every", 1),
    (dg.SimSchedule, {}, "convergence_until_round", 1),
    (dg.SimSchedule, {}, "batch_size", 1),
    (dg.Forwarding, {}, "max_hops", 1),
    (dg.ShardPlan, {"node_count": 2}, "node_count", 1),
    (dg.ShardPlan, {"node_count": 2}, "seed", 0),
    (dg.ModelConfig, {"input_dim": 2, "class_count": 2}, "input_dim", 1),
    (dg.ModelConfig, {"input_dim": 2, "class_count": 2}, "class_count", 2),
    (dg.ModelConfig, {"input_dim": 2, "class_count": 2}, "hidden_dim", 0),
    (dg.ModelConfig, {"input_dim": 2, "class_count": 2}, "seed", 0),
    (dg.synth_classification, {"classes": 2, "dim": 2, "per_class": 2, "seed": 0}, "classes", 2),
    (dg.synth_classification, {"classes": 2, "dim": 2, "per_class": 2, "seed": 0}, "dim", 1),
    (dg.synth_classification, {"classes": 2, "dim": 2, "per_class": 2, "seed": 0},
     "per_class", 1),
    (dg.synth_classification, {"classes": 2, "dim": 2, "per_class": 2, "seed": 0}, "seed", 0),
    (dg.load_idx, {"images_path": PATH, "labels_path": PATH}, "downsample", 1),
    (dg.train_epochs, {"models": [], "inputs": None, "labels": None, "epochs": 1,
                       "batch_size": 1}, "epochs", 1),
    (dg.train_epochs, {"models": [], "inputs": None, "labels": None, "epochs": 1,
                       "batch_size": 1}, "batch_size", 1),
    (dg.TopologyConstraints, {}, "min_degree", 1),
    (dg.TopologyConstraints, {}, "max_degree", 1),
    (dg.generate_semi_random, {"nodes": 4, "constraints": dg.TopologyConstraints(),
                               "seed": 0}, "nodes", 2),
    (dg.generate_semi_random, {"nodes": 4, "constraints": dg.TopologyConstraints(),
                               "seed": 0}, "seed", 0),
    (dg.ModelUpdate, {"node_id": 0, "base": VECTOR, "delta": VECTOR, "sample_count": 1},
     "node_id", 0),
    (dg.ModelUpdate, {"node_id": 0, "base": VECTOR, "delta": VECTOR, "sample_count": 1},
     "sample_count", 0),
    (_experiment, {"dataset": None, "topologies": None, "strategies": None}, "seed", 0),
    (dg.LambdaSchedule, {}, "offset", 0.0),
    (dg.connectivity_increase_rate, {"baseline": 1.0, "ref_n": 10, "n": 20},
     "density_exponent", 0.0),
]


def _bound_cases():
    """(builder, arguments, error type, message) for values below a bound or of a wrong type."""
    for builder, kwargs, name, minimum in LOWER_BOUNDS:
        site = f"{builder.__name__}.{name}"
        if isinstance(minimum, float):
            for value in (minimum - 0.5, float("nan"), float("inf")):
                yield pytest.param(builder, {**kwargs, name: value}, ValueError,
                                   f"{name} must be non-negative and finite, got {value!r}",
                                   id=f"{site}={value}")
            continue
        bound = "non-negative" if minimum == 0 else f">= {minimum}"
        yield pytest.param(builder, {**kwargs, name: minimum - 1}, ValueError,
                           f"{name} must be {bound}, got {minimum - 1}",
                           id=f"{site}={minimum - 1}")
        for value in (True, float(minimum)):
            yield pytest.param(builder, {**kwargs, name: value}, TypeError,
                               f"{name} must be an integer, got {value!r}",
                               id=f"{site}={value!r}")


@pytest.mark.parametrize("builder, kwargs, error, message", _bound_cases())
def test_lower_bound_names_the_field_and_the_value(builder, kwargs, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        builder(**kwargs)


def test_with_values():
    a = pv([1.0, 2.0])
    d = a.with_values(np.array([7.0, 8.0]))
    assert d.layout == a.layout
    np.testing.assert_array_equal(d.values, [7.0, 8.0])


class TestRows:
    layout = make_layout([("a", 3), ("b", 2)])

    def block(self, rows=4, seed=0):
        return np.random.default_rng(seed).normal(0, 1e3, (rows, 5))

    def test_each_vector_equals_one_made_by_init(self):
        block = self.block()
        expected = [ParameterVector(row, self.layout) for row in block]
        vectors = ParameterVector.rows(block, self.layout)
        assert len(vectors) == len(expected)
        for vec, ref in zip(vectors, expected):
            assert vec.layout is self.layout
            assert vec.values.dtype == ref.values.dtype and vec.values.shape == ref.values.shape
            assert vec.values.tobytes() == ref.values.tobytes()

    def test_values_are_read_only_views_of_the_taken_block(self):
        block = self.block()
        vectors = ParameterVector.rows(block, self.layout)
        assert not block.flags.writeable
        for g, vec in enumerate(vectors):
            assert vec.values.base is block and np.shares_memory(vec.values, block[g])
            assert vec.values.flags.c_contiguous
            with pytest.raises(ValueError):
                vec.values[0] = 1.0
        with pytest.raises(ValueError):
            block[0, 0] = 1.0

    def test_a_layout_of_another_length_is_the_init_error(self):
        layout = make_layout([("a", 3), ("b", 3)])
        with pytest.raises(LayoutError) as init_error:
            ParameterVector(self.block()[0], layout)
        with pytest.raises(LayoutError) as rows_error:
            ParameterVector.rows(self.block(), layout)
        assert str(rows_error.value) == str(init_error.value)
        with pytest.raises(LayoutError, match="starts at 3, expected 2"):
            ParameterVector.rows(self.block(), (Segment("a", 0, 2), Segment("b", 3, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (2, 3), (3, 4)])
    def test_a_non_finite_value_anywhere_is_the_init_error(self, value, where):
        block = self.block()
        block[where] = value
        with pytest.raises(ValueError) as init_error:
            ParameterVector(block[where[0]], self.layout)
        vectors = None
        with pytest.raises(ValueError) as rows_error:
            vectors = ParameterVector.rows(block, self.layout)
        assert vectors is None
        assert str(rows_error.value) == str(init_error.value) == "parameter values must be finite"

    @pytest.mark.parametrize("make", [
        lambda b: b[1:], np.asfortranarray, lambda b: b.astype(np.float32),
        lambda b: b[0].copy(), lambda b: b.tolist()],
        ids=["view", "fortran_order", "float32", "one_dimensional", "list"])
    def test_only_a_fresh_c_ordered_float64_block_is_taken(self, make):
        block = make(self.block())
        with pytest.raises(ValueError, match="owns its data"):
            ParameterVector.rows(block, self.layout)
