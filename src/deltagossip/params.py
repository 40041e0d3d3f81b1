"""Flat parameter vectors with named layer segments.

Every aggregation rule in this package operates on these vectors. Two
vectors are combinable only when their layouts are identical; mismatches
raise instead of silently misaligning weights. ``require_ints`` and
``require_positive`` are the integer and positive-and-finite checks every
config class and generator shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
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


class ParameterVector:
    """Immutable float64 weight storage with a fixed segment layout."""

    __slots__ = ("values", "layout")

    def __init__(self, values, layout: tuple[Segment, ...]):
        arr = np.array(values, dtype=np.float64, copy=True).ravel()
        expected = 0
        for seg in layout:
            if seg.offset != expected:
                raise LayoutError(
                    f"segment {seg.name!r} starts at {seg.offset}, expected {expected}"
                )
            expected += seg.length
        if arr.size != expected:
            raise LayoutError(f"got {arr.size} values for a layout of length {expected}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("parameter values must be finite")
        arr.setflags(write=False)
        self.values = arr
        self.layout = layout

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        names = ",".join(seg.name for seg in self.layout)
        return f"ParameterVector(len={len(self)}, segments=[{names}])"

    def segment(self, name: str) -> np.ndarray:
        """Read-only view of one named segment."""
        for seg in self.layout:
            if seg.name == name:
                return self.values[seg.offset : seg.offset + seg.length]
        raise KeyError(name)

    def same_layout(self, other: "ParameterVector") -> bool:
        return self.layout == other.layout

    def with_values(self, values: np.ndarray) -> "ParameterVector":
        """New vector with the same layout and different values."""
        return ParameterVector(values, self.layout)

    def _coerced(self, other: "ParameterVector") -> "ParameterVector":
        if not isinstance(other, ParameterVector):
            raise TypeError(f"expected ParameterVector, got {type(other).__name__}")
        if not self.same_layout(other):
            raise LayoutError("parameter vectors have different layouts")
        return other

    def __add__(self, other: "ParameterVector") -> "ParameterVector":
        other = self._coerced(other)
        return ParameterVector(self.values + other.values, self.layout)

    def __sub__(self, other: "ParameterVector") -> "ParameterVector":
        other = self._coerced(other)
        return ParameterVector(self.values - other.values, self.layout)

    def __mul__(self, factor: float) -> "ParameterVector":
        return ParameterVector(self.values * float(factor), self.layout)

    __rmul__ = __mul__


def require_same_layout(vectors: Sequence[ParameterVector]) -> tuple[Segment, ...]:
    """Shared layout of a non-empty group of vectors, or LayoutError."""
    if not vectors:
        raise ValueError("need at least one parameter vector")
    layout = vectors[0].layout
    for vec in vectors[1:]:
        if vec.layout != layout:
            raise LayoutError("parameter vectors have different layouts")
    return layout


def require_ints(**fields) -> None:
    """TypeError naming the first field whose value is not an integer (bools are not)."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")


def require_positive(**values) -> None:
    """ValueError naming the first value that is not a positive finite number."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
