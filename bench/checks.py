"""Correctness checks and bookkeeping for benchmark samples.

Every sample is checked, whatever the seed: each node reports at every
index, accuracies lie in [0, 1], the final median accuracy clears the
workload's floor, and repeated samples of one run give identical CSV
bytes. At the default seed the CSV digests must also equal the pinned
ones in ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path
from statistics import median

DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).with_name("golden.json")
CSV_HEADER = "index,test_acc_min,test_acc_median,test_acc_max"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_problems(text: str, rounds: int, floor: float) -> list[str]:
    """What is wrong with one exported metrics CSV, if anything."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"unexpected CSV header {lines[:1]}"]
    problems = []
    indices = []
    final_median = None
    for line in lines[1:]:
        index, lo, med, hi = line.split(",")
        lo, med, hi = float(lo), float(med), float(hi)
        indices.append(int(index))
        if not 0.0 <= lo <= med <= hi <= 1.0:
            problems.append(f"index {index}: min/median/max {lo}/{med}/{hi} not ordered in [0, 1]")
        final_median = med
    if indices != list(range(1, rounds + 1)):
        problems.append(f"CSV indices are not 1..{rounds}")
    if final_median is not None and final_median < floor:
        problems.append(f"final median accuracy {final_median} below floor {floor}")
    return problems


def record_problems(records, node_count: int, rounds: int) -> list[str]:
    """Every node must report exactly once at every index, accuracies in [0, 1]."""
    seen = set()
    problems = []
    for rec in records:
        key = (rec.node_id, rec.index)
        if key in seen:
            problems.append(f"duplicate record for node {rec.node_id} at index {rec.index}")
        seen.add(key)
        for acc in (rec.local_acc, rec.global_acc):
            if not 0.0 <= acc <= 1.0:
                problems.append(f"node {rec.node_id} index {rec.index}: accuracy {acc}")
    expected = {(n, i) for n in range(node_count) for i in range(1, rounds + 1)}
    if seen != expected:
        problems.append(f"{len(expected - seen)} (node, index) reports missing, "
                        f"{len(seen - expected)} unexpected")
    return problems


def deliveries_per_round(adjacency, hops: int) -> int:
    """Messages one integration round sends: every node to all nodes within ``hops``."""
    total = 0
    for start in range(len(adjacency)):
        seen = {start}
        frontier = [start]
        for _ in range(hops):
            reached = []
            for node in frontier:
                for nb in adjacency[node]:
                    if nb not in seen:
                        seen.add(nb)
                        reached.append(nb)
            frontier = reached
        total += len(seen) - 1
    return total


def expected_messages(configs) -> int:
    """Messages the engine must send over all given SimConfigs."""
    total = 0
    for cfg in configs:
        hops = 1 if cfg.forwarding.mode == "first_hop" else cfg.forwarding.max_hops
        rounds = cfg.schedule.train_epochs // cfg.schedule.integrate_every
        total += rounds * deliveries_per_round(cfg.topology.adjacency, hops)
    return total


def node_rounds(configs) -> int:
    """Simulated work of one sample: sum of node_count x convergence_until_round."""
    return sum(cfg.topology.node_count * cfg.schedule.convergence_until_round
               for cfg in configs)


def run_seconds(samples: list[dict[str, float]]) -> float:
    """Wall time of one sample: each timed unit's median over the samples, summed.

    Timing each simulation on its own and taking medians per simulation
    keeps a burst of host load during one simulation out of the result.
    """
    return sum(median(sample[unit] for sample in samples) for unit in samples[0])


def speed_factor(before: float, after: float, reference_s: float) -> float:
    """What scales wall times to the speed at which the reference kernel takes ``reference_s``.

    ``before`` and ``after`` are the kernel's times just before and just
    after the timed work; their mean stands for the speed during it.
    """
    return reference_s / ((before + after) / 2.0)


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path) as f:
        return json.load(f)


class Tally:
    """Attempted and failed simulations, plus the digests the run produced.

    The first sample's digests become the run's reference: a later sample
    with different CSV bytes fails, and so does any CSV whose digest
    differs from ``golden`` (the pinned digests, given only at the
    default seed).
    """

    def __init__(self, golden: dict[str, str] | None = None):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] | None = None
        self.messages: list[str] = []

    def add_sample(self, results: dict[str, tuple[str | None, list[str]]],
                   shared_problems=()) -> None:
        """Count one sample's simulations.

        ``results`` maps each simulation's CSV name to (digest, problems);
        ``shared_problems`` fail every simulation of the sample.
        """
        if self.digests is None:
            self.digests = {name: digest for name, (digest, _) in results.items()}
        for name, (digest, problems) in results.items():
            problems = [*problems, *shared_problems]
            if digest is not None and digest != self.digests.get(name):
                problems.append("CSV bytes differ from the first sample of this run")
            if self.golden is not None and digest is not None and digest != self.golden.get(name):
                problems.append("CSV digest differs from the pinned digest")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.messages.extend(f"{name}: {p}" for p in problems)


def _blas_info() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {lib: {k: deps[lib].get(k) for k in ("name", "version")}
                for lib in ("blas", "lapack") if lib in deps}
    except (TypeError, KeyError):  # NumPy < 1.25 has no mode="dicts"
        return {"blas": "unknown (np.show_config has no dict mode)"}


def _git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src" / "deltagossip"),
    }
