"""Analytical per-node throughput scenarios, in model updates per second.

Gossip traffic scales with how many neighbors each node talks to, so the
scenarios extrapolate a measured baseline rate by average connectivity
(physically growing topology), hold it constant, or grow it with node
density. The federated baseline is periodic updates plus a synchronization
every fixed number of updates. A ValueError names any argument that is not
positive and finite (the density exponent: not non-negative and finite).
"""

from __future__ import annotations

import math

from .params import require_positive


def fedavg_rate(update_interval_s: float, sync_every_updates: float) -> float:
    """Updates/s for periodic updates plus one sync every sync_every updates."""
    require_positive(update_interval_s=update_interval_s,
                     sync_every_updates=sync_every_updates)
    # Single division keeps round numbers exact: 1/i + 1/(i*s) == (s+1)/(i*s).
    return (sync_every_updates + 1.0) / (update_interval_s * sync_every_updates)


def expected_rate(baseline: float, ref_conn: float, conn_at_n: float) -> float:
    """Baseline scaled by average connectivity (physically growing topology)."""
    require_positive(baseline=baseline, ref_conn=ref_conn, conn_at_n=conn_at_n)
    return baseline * conn_at_n / ref_conn


def constant_connectivity_rate(baseline: float) -> float:
    """Flat series: connectivity pinned at the reference value."""
    require_positive(baseline=baseline)
    return baseline


def connectivity_increase_rate(
    baseline: float,
    ref_n: int,
    n: int,
    density_exponent: float = 1.0,
) -> float:
    """Node density grows in a fixed-size area: baseline * (n/ref_n)^exponent."""
    require_positive(baseline=baseline, ref_n=ref_n, n=n)
    if n < ref_n:
        raise ValueError(f"n must be >= the reference node count {ref_n}, got {n}")
    if not (math.isfinite(density_exponent) and density_exponent >= 0):
        raise ValueError(f"density_exponent must be non-negative and finite, "
                         f"got {density_exponent!r}")
    return baseline * (n / ref_n) ** density_exponent


def scenario_table(
    baseline: float,
    ref_n: int,
    ref_conn: float,
    node_counts,
    conns,
    density_exponent: float = 1.0,
    update_interval_s: float = 5.0,
    sync_every_updates: float = 20.0,
):
    """All scenario series over a (node count, connectivity) grid.

    Returns a list of dict rows keyed n, conn, expected,
    constant_connectivity, connectivity_increase, fedavg.
    """
    node_counts = list(node_counts)
    conns = list(conns)
    if len(node_counts) != len(conns):
        raise ValueError("need one connectivity value per node count")
    rows = []
    for n, conn in zip(node_counts, conns):
        rows.append(
            {
                "n": n,
                "conn": conn,
                "expected": expected_rate(baseline, ref_conn, conn),
                "constant_connectivity": constant_connectivity_rate(baseline),
                "connectivity_increase": connectivity_increase_rate(
                    baseline, ref_n, n, density_exponent
                ),
                "fedavg": fedavg_rate(update_interval_s, sync_every_updates),
            }
        )
    return rows
