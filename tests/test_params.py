import numpy as np
import pytest

from deltagossip.params import (
    LayoutError,
    ParameterVector,
    Segment,
    make_layout,
    require_ints,
    require_same_layout,
)


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


def test_segment_views():
    vec = pv([1.0, 2.0, 3.0, 4.0, 5.0], make_layout([("a", 2), ("b", 3)]))
    np.testing.assert_array_equal(vec.segment("a"), [1.0, 2.0])
    np.testing.assert_array_equal(vec.segment("b"), [3.0, 4.0, 5.0])
    with pytest.raises(KeyError):
        vec.segment("c")


def test_arithmetic():
    a = pv([1.0, 2.0])
    b = pv([3.0, 5.0])
    np.testing.assert_array_equal((a + b).values, [4.0, 7.0])
    np.testing.assert_array_equal((b - a).values, [2.0, 3.0])
    np.testing.assert_array_equal((2.0 * a).values, [2.0, 4.0])
    np.testing.assert_array_equal((a * 0.5).values, [0.5, 1.0])


def test_mismatched_layout_operations_fail():
    a = pv([1.0, 2.0], make_layout([("a", 2)]))
    b = pv([1.0, 2.0], make_layout([("b", 2)]))
    with pytest.raises(LayoutError):
        a + b
    with pytest.raises(LayoutError):
        a - b
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


def test_with_values():
    a = pv([1.0, 2.0])
    d = a.with_values(np.array([7.0, 8.0]))
    assert d.layout == a.layout
    np.testing.assert_array_equal(d.values, [7.0, 8.0])
