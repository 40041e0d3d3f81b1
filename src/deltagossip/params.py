"""Flat parameter vectors with named layer segments.

Every aggregation rule in this package operates on these vectors. Two
vectors are combinable only when their layouts are identical; mismatches
raise instead of silently misaligning weights. The ``require_*`` checks are
shared by every config class and generator: ``require_ints`` and
``require_real`` check a field's type and, given a minimum, its lower bound,
and ``require_positive`` a positive finite number. An integer beyond float
range is not finite. Each error names its field, and a bound error the value too.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Sequence

import numpy as np


class LayoutError(ValueError):
    """Combining parameter vectors whose layouts differ."""


@dataclass(frozen=True)
class Segment:
    """One named contiguous slice of a flat parameter vector."""

    name: str
    offset: int
    length: int


def make_layout(sizes: Sequence[tuple[str, int]]) -> tuple[Segment, ...]:
    """Build a contiguous, non-overlapping layout from (name, length) pairs."""
    segments = []
    offset = 0
    for name, length in sizes:
        if length <= 0:
            raise ValueError(f"segment {name!r} needs positive length, got {length}")
        segments.append(Segment(name, offset, length))
        offset += length
    return tuple(segments)


def _check_values(arr: np.ndarray, layout: tuple[Segment, ...]) -> None:
    """LayoutError unless arr's last axis fits the contiguous layout; ValueError
    on a non-finite value."""
    expected = 0
    for seg in layout:
        if seg.offset != expected:
            raise LayoutError(
                f"segment {seg.name!r} starts at {seg.offset}, expected {expected}"
            )
        expected += seg.length
    if arr.shape[-1] != expected:
        raise LayoutError(f"got {arr.shape[-1]} values for a layout of length {expected}")
    if not np.isfinite(arr).all():
        raise ValueError("parameter values must be finite")


class ParameterVector:
    """Immutable float64 weight storage with a fixed segment layout.

    ``__init__`` copies its values. ``rows`` takes over a whole (G, P) block
    instead, and each of its vectors holds a read-only view of one row.
    """

    __slots__ = ("values", "layout")

    def __init__(self, values, layout: tuple[Segment, ...]):
        arr = np.array(values, dtype=np.float64, copy=True).ravel()
        _check_values(arr, layout)
        arr.setflags(write=False)
        self.values = arr
        self.layout = layout

    @classmethod
    def rows(cls, block: np.ndarray, layout: tuple[Segment, ...]) -> list["ParameterVector"]:
        """One vector per row of a fresh float64 (G, P) block, without a copy.

        The caller gives the block up: it is checked once, as ``__init__``
        checks one vector (LayoutError, then ValueError on a non-finite
        value, and then no vector is made), and made read-only. Each vector's
        values are a view of its row, so one vector keeps the whole block
        alive.
        """
        if not (isinstance(block, np.ndarray) and block.dtype == np.float64
                and block.ndim == 2 and block.flags.owndata and block.flags.c_contiguous):
            raise ValueError("rows takes a C-contiguous float64 (G, P) array that owns its data")
        _check_values(block, layout)
        block.setflags(write=False)
        vectors = []
        for row in block:
            vec = object.__new__(cls)
            vec.values = row
            vec.layout = layout
            vectors.append(vec)
        return vectors

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        names = ",".join(seg.name for seg in self.layout)
        return f"ParameterVector(len={len(self)}, segments=[{names}])"

    def with_values(self, values: np.ndarray) -> "ParameterVector":
        """New vector with the same layout and different values."""
        return ParameterVector(values, self.layout)


def require_same_layout(vectors: Sequence[ParameterVector]) -> tuple[Segment, ...]:
    """Shared layout of a non-empty group of vectors, or LayoutError."""
    if not vectors:
        raise ValueError("need at least one parameter vector")
    layout = vectors[0].layout
    for vec in vectors[1:]:
        if vec.layout != layout:
            raise LayoutError("parameter vectors have different layouts")
    return layout


def _at_least(minimum) -> str:
    return "non-negative" if minimum == 0 else f">= {minimum}"


def require_ints(minimum=None, /, **fields) -> None:
    """TypeError naming the first field whose value is not an integer (bools are
    not); given a minimum, then ValueError naming the first field below it and
    its value."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    if minimum is not None:
        for name, value in fields.items():
            if value < minimum:
                raise ValueError(f"{name} must be {_at_least(minimum)}, got {value!r}")


def require_real(minimum=None, /, **fields) -> None:
    """TypeError naming the first field whose value is not a real number (bools
    are not); given a minimum, then ValueError naming the first field that is
    not a finite number at least that minimum, and its value."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, Real):
            raise TypeError(f"{name} must be a number, got {value!r}")
    if minimum is not None:
        for name, value in fields.items():
            if not (abs(value) <= sys.float_info.max and value >= minimum):
                raise ValueError(f"{name} must be {_at_least(minimum)} and finite, got {value!r}")


def require_positive(**values) -> None:
    """``require_real``, then ValueError naming the first value that is not a
    positive finite number."""
    require_real(**values)
    for name, value in values.items():
        if not (0 < value <= sys.float_info.max):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
