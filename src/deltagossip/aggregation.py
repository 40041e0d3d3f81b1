"""Model integration strategies for gossip learning.

Covers plain full-model averaging, variance-corrected averaging, FedAvg
and its sample-weighted variant over deltas, and delta-sum integration:
average the base weight snapshots of all contributors, then add the
lambda-damped *sum* (not average) of their training deltas. Summation
order is fixed by sorting on node id so results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import ParameterVector, require_ints, require_positive, require_same_layout

STRATEGY_KINDS = (
    "standard_averaging",
    "variance_corrected",
    "fedavg",
    "sample_weighted",
    "delta_sum",
)


@dataclass(frozen=True)
class LambdaSchedule:
    """Time-ramped damping factor for summed deltas: min(offset + t/divisor, cap)."""

    offset: float = 0.15
    slope_divisor: float = 1000.0
    cap: float = 0.35

    def __post_init__(self):
        if not (math.isfinite(self.offset) and self.offset >= 0):
            raise ValueError(f"offset must be non-negative and finite, got {self.offset}")
        require_positive(slope_divisor=self.slope_divisor)
        if self.offset > self.cap:
            raise ValueError("offset must not exceed cap")
        if not 0.0 < self.cap <= 1.0:
            raise ValueError("cap must be in (0, 1]")


@dataclass(frozen=True)
class ModelUpdate:
    """One node's gossip payload: base snapshot, training delta and ``full`` = base + delta."""

    node_id: int
    base: ParameterVector
    delta: ParameterVector
    sample_count: int
    full: ParameterVector = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        require_ints(node_id=self.node_id, sample_count=self.sample_count)
        if not self.base.same_layout(self.delta):
            raise ValueError("base and delta must share one layout")
        if self.sample_count < 0:
            raise ValueError("sample_count must be >= 0")
        object.__setattr__(self, "full", self.base + self.delta)


@dataclass(frozen=True)
class IntegrationStrategy:
    kind: str
    schedule: LambdaSchedule | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}; choose from {STRATEGY_KINDS}")
        if self.kind == "delta_sum":
            if not isinstance(self.schedule, LambdaSchedule):
                raise ValueError(f"delta_sum requires a LambdaSchedule, got {self.schedule!r}")
        elif self.schedule is not None:
            raise ValueError(f"{self.kind} takes no schedule, got {self.schedule!r}")


def lambda_value(schedule: LambdaSchedule, t: float) -> float:
    """Damping factor after t completed epochs; non-decreasing, capped."""
    return min(schedule.offset + t / schedule.slope_divisor, schedule.cap)


def average_full_models(models) -> ParameterVector:
    """Elementwise arithmetic mean of full weight vectors."""
    models = list(models)
    layout = require_same_layout(models)
    stacked = np.stack([m.values for m in models], axis=0)
    return ParameterVector(stacked.mean(axis=0), layout)


def variance_corrected_average(models) -> ParameterVector:
    """Average that restores per-segment spread lost to elementwise averaging.

    For each layer segment the plain average keeps its mean but its
    deviations get rescaled by sigma_target / sigma_avg, where sigma_target
    is the root of the mean per-input segment variance. A zero sigma_avg
    leaves the segment unscaled.
    """
    models = list(models)
    layout = require_same_layout(models)
    stacked = np.stack([m.values for m in models], axis=0)
    averaged = stacked.mean(axis=0)
    corrected = averaged.copy()
    for seg in layout:
        sl = slice(seg.offset, seg.offset + seg.length)
        sigma_avg = float(np.std(averaged[sl]))
        if sigma_avg == 0.0:
            continue
        sigma_target = float(np.sqrt(np.mean(np.var(stacked[:, sl], axis=1))))
        seg_mean = float(np.mean(averaged[sl]))
        corrected[sl] = seg_mean + (averaged[sl] - seg_mean) * (sigma_target / sigma_avg)
    return ParameterVector(corrected, layout)


def _sorted_unique(updates) -> list[ModelUpdate]:
    updates = sorted(updates, key=lambda u: u.node_id)
    ids = [u.node_id for u in updates]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate node ids in one integration: {ids}")
    return updates


def _ordered_sum(rows, size: int) -> np.ndarray:
    """The rows added in order onto float64 zeros: the delta strategies' summation order.

    Their bits depend on it, zero start included (0.0 + -0.0 is 0.0).
    """
    acc = np.zeros(size)
    for row in rows:
        acc += row
    return acc


def _add_weighted_deltas(w: ParameterVector, updates, divisor) -> ParameterVector:
    """w + sum(sample_count * delta) / divisor(total count, update count)."""
    updates = _sorted_unique(updates)
    if not updates:
        raise ValueError("need at least one update")
    require_same_layout([w] + [u.delta for u in updates])
    total = sum(u.sample_count for u in updates)
    if total <= 0:
        raise ValueError("all sample counts are zero")
    acc = _ordered_sum((u.sample_count * u.delta.values for u in updates), len(w))
    return ParameterVector(w.values + acc / divisor(total, len(updates)), w.layout)


def fedavg_integrate(w: ParameterVector, updates) -> ParameterVector:
    """w plus the sample-count-weighted mean of the update deltas."""
    return _add_weighted_deltas(w, updates, lambda total, count: total)


def sample_weighted_integrate(w: ParameterVector, updates) -> ParameterVector:
    """Like fedavg_integrate but dividing by the mean sample count only.

    Keeps per-update sample weighting while leaving the contributor count
    out of the denominator, so combined progress is summed rather than
    averaged; equals the fedavg result scaled by the update count.
    """
    return _add_weighted_deltas(w, updates, lambda total, count: total / count)


def delta_sum_integrate(
    local: ModelUpdate,
    remote,
    schedule: LambdaSchedule,
    t: float,
) -> ParameterVector:
    """Average all base snapshots, then add the damped sum of all deltas.

    The local node counts as one more contributor alongside the remote
    updates; remote may be empty, which degenerates to
    base + lambda(t) * local delta.
    """
    updates = _sorted_unique([local, *remote])
    require_same_layout([u.base for u in updates] + [u.delta for u in updates])
    base_acc = _ordered_sum((u.base.values for u in updates), len(local.base))
    delta_acc = _ordered_sum((u.delta.values for u in updates), len(local.base))
    factor = lambda_value(schedule, t)
    return ParameterVector(base_acc / len(updates) + factor * delta_acc, local.base.layout)


def delta_alignment(local_delta: ParameterVector, remote_deltas) -> float:
    """Cosine between the local delta and the summed remote deltas.

    -1 flags full cancellation of remote progress by local training, +1
    full alignment. Returns 0 when the remote sum is zero.
    """
    if len(local_delta) == 0:
        raise ValueError("zero-length delta")
    local_norm = float(np.linalg.norm(local_delta.values))
    if local_norm == 0.0:
        raise ValueError("local delta must be non-zero")
    remote_deltas = list(remote_deltas)
    if remote_deltas:
        require_same_layout([local_delta] + remote_deltas)
    summed = _ordered_sum((d.values for d in remote_deltas), len(local_delta))
    remote_norm = float(np.linalg.norm(summed))
    if remote_norm == 0.0:
        return 0.0
    cos = float(local_delta.values @ summed / (local_norm * remote_norm))
    return max(-1.0, min(1.0, cos))
