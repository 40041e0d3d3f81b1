"""Per-node metric records, cross-node aggregation, and CSV export."""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MetricsRecord:
    """One node's accuracy on its local and on the global validation set at one index.

    The CSVs and summary.json read only ``global_acc``.
    """

    node_id: int
    index: int  # epoch during training, round during convergence
    local_acc: float
    global_acc: float
    phase: str  # train | convergence

    def __post_init__(self):
        if self.phase not in ("train", "convergence"):
            raise ValueError(f"unknown phase {self.phase!r}")
        for name in ("local_acc", "global_acc"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")


@dataclass(frozen=True)
class AggregateRow:
    index: int
    test_acc_min: float
    test_acc_median: float
    test_acc_max: float


def _lower_median(values: np.ndarray) -> float:
    # Fixed tie rule: lower-middle element, no interpolation for even counts.
    ordered = np.sort(values)
    return float(ordered[(ordered.size - 1) // 2])


def aggregate_across_nodes(records):
    """Per-index min/median/max of global accuracy across all nodes.

    Every node must report at every index.
    """
    by_index: dict[int, dict[int, float]] = {}
    node_ids = set()
    for rec in records:
        by_index.setdefault(rec.index, {})
        if rec.node_id in by_index[rec.index]:
            raise ValueError(f"duplicate record for node {rec.node_id} at index {rec.index}")
        by_index[rec.index][rec.node_id] = rec.global_acc
        node_ids.add(rec.node_id)

    rows = []
    for index in sorted(by_index):
        entry = by_index[index]
        missing = node_ids - set(entry)
        if missing:
            raise ValueError(f"missing nodes {sorted(missing)} at index {index}")
        accs = np.array([entry[n] for n in sorted(entry)])
        rows.append(
            AggregateRow(
                index=index,
                test_acc_min=float(accs.min()),
                test_acc_median=_lower_median(accs),
                test_acc_max=float(accs.max()),
            )
        )
    return rows


def export_csv(rows, path) -> None:
    """Write aggregate rows with fixed 6-decimal formatting (bit-stable).

    The rows go to ``<path>.tmp`` first, which then replaces ``path``, so an
    interrupted write never leaves a truncated CSV.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", newline="") as f:
            f.write("index,test_acc_min,test_acc_median,test_acc_max\n")
            for row in rows:
                f.write(
                    f"{row.index},{row.test_acc_min:.6f},"
                    f"{row.test_acc_median:.6f},{row.test_acc_max:.6f}\n"
                )
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)  # only still there if the write failed


def read_csv(path):
    """Parse a file written by export_csv back into AggregateRow objects."""
    rows = []
    with open(path) as f:
        header = f.readline().strip().split(",")
        for line in f:
            parts = line.strip().split(",")
            values = dict(zip(header, parts))
            rows.append(
                AggregateRow(
                    index=int(values["index"]),
                    test_acc_min=float(values["test_acc_min"]),
                    test_acc_median=float(values["test_acc_median"]),
                    test_acc_max=float(values["test_acc_max"]),
                )
            )
    return rows


def accuracy_drop_ratio(
    baseline_final_by_n: dict[int, float],
    candidate_final_by_n: dict[int, float],
) -> float:
    """How much less accuracy the candidate loses when the topology grows.

    Drop = accuracy at the smallest node count minus accuracy at the
    largest. Returns 1 - drop_candidate / drop_baseline, so 0 means equal
    scaling loss and 1 means the candidate loses nothing.
    """
    n_small, n_large = min(baseline_final_by_n), max(baseline_final_by_n)
    for series, name in ((baseline_final_by_n, "baseline"), (candidate_final_by_n, "candidate")):
        if n_small not in series or n_large not in series:
            raise ValueError(f"{name} series missing node count {n_small} or {n_large}")
    drop_baseline = baseline_final_by_n[n_small] - baseline_final_by_n[n_large]
    drop_candidate = candidate_final_by_n[n_small] - candidate_final_by_n[n_large]
    if drop_baseline == 0.0:
        raise ValueError("baseline accuracy drop is zero; ratio undefined")
    return 1.0 - drop_candidate / drop_baseline
