"""Semi-random neighbor graphs under degree and connectivity constraints.

Generation builds a random spanning tree (connectivity for free), then adds
random edges under the degree cap until the edge count matches the target
average degree. Every produced graph passes its own validation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .params import require_ints, require_positive

GENERATION_ATTEMPTS = 100  # seeded retries before GenerationBudgetError


class UnsatisfiableConstraintsError(ValueError):
    """No simple connected graph can meet the requested constraints."""


class GenerationBudgetError(RuntimeError):
    """Constraints look satisfiable but no attempt produced a valid graph."""


class MalformedGraphError(ValueError):
    """Adjacency structure violates symmetry or basic sanity."""


@dataclass(frozen=True)
class TopologyConstraints:
    min_degree: int = 1
    max_degree: int = 8
    target_avg_degree: float = 3.3

    def __post_init__(self):
        require_ints(min_degree=self.min_degree, max_degree=self.max_degree)
        if not 1 <= self.min_degree <= self.max_degree:
            raise ValueError("need 1 <= min_degree <= max_degree")
        require_positive(target_avg_degree=self.target_avg_degree)


@dataclass(frozen=True)
class TopologyGraph:
    node_count: int
    adjacency: tuple[tuple[int, ...], ...]  # sorted neighbor lists, undirected

    @classmethod
    def from_edges(cls, node_count: int, edges) -> "TopologyGraph":
        neighbors = [set() for _ in range(node_count)]
        for i, j in edges:
            if i == j:
                raise MalformedGraphError(f"self-loop at node {i}")
            if not (0 <= i < node_count and 0 <= j < node_count):
                raise MalformedGraphError(f"edge ({i}, {j}) out of range")
            neighbors[i].add(j)
            neighbors[j].add(i)
        return cls(node_count, tuple(tuple(sorted(s)) for s in neighbors))

    def degrees(self) -> list[int]:
        return [len(adj) for adj in self.adjacency]

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.node_count) for j in self.adjacency[i] if i < j]

    @property
    def edge_count(self) -> int:
        return sum(len(adj) for adj in self.adjacency) // 2

    @property
    def avg_degree(self) -> float:
        return 2.0 * self.edge_count / self.node_count


@dataclass
class ValidationReport:
    connected: bool
    degree_violations: list[int]
    avg_degree: float


@dataclass
class GraphStats:
    avg_degree: float
    min_degree: int
    max_degree: int
    diameter: int
    bridge_count: int


def hop_distances(graph: TopologyGraph, start: int, max_hops: int | None = None):
    """{node: hops from start} for every node within max_hops (all when None).

    The package's one breadth-first walk: connectivity, the diameter and
    gossip dissemination all use it.
    """
    if not 0 <= start < graph.node_count:
        raise ValueError(f"unknown node {start}")
    dist = {start: 0}
    frontier = [start]
    hops = 0
    while frontier and (max_hops is None or hops < max_hops):
        hops += 1
        nxt = []
        for node in frontier:
            for nb in graph.adjacency[node]:
                if nb not in dist:
                    dist[nb] = hops
                    nxt.append(nb)
        frontier = nxt
    return dist


def is_connected(graph: TopologyGraph) -> bool:
    return graph.node_count > 0 and len(hop_distances(graph, 0)) == graph.node_count


def generate_semi_random(
    n: int,
    constraints: TopologyConstraints,
    seed: int,
) -> TopologyGraph:
    """Connected graph with degrees in bounds and avg degree within +-0.5 of target.

    Deterministic per (n, constraints, seed). Raises
    UnsatisfiableConstraintsError when no simple connected graph can land in
    the +-0.5 band, GenerationBudgetError if all GENERATION_ATTEMPTS stall.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    target = constraints.target_avg_degree
    if not constraints.min_degree <= target <= constraints.max_degree or target >= n:
        raise UnsatisfiableConstraintsError(
            f"target avg degree {target} outside [{constraints.min_degree}, "
            f"{constraints.max_degree}] or not < n={n}"
        )
    # Achievable average degree of a simple connected graph on n nodes.
    lo = 2.0 * (n - 1) / n
    hi = float(min(constraints.max_degree, n - 1))
    if target + 0.5 < lo or target - 0.5 > hi:
        raise UnsatisfiableConstraintsError(
            f"avg degree band [{target - 0.5:.2f}, {target + 0.5:.2f}] misses the "
            f"achievable range [{lo:.2f}, {hi:.2f}] for n={n}"
        )
    min_edges = n - 1
    max_edges = min(n * constraints.max_degree // 2, n * (n - 1) // 2)
    edge_target = int(np.clip(int(round(n * target / 2.0)), min_edges, max_edges))

    for attempt in range(GENERATION_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt])
        graph = _attempt(n, constraints, edge_target, rng)
        if graph is None:
            continue
        report = validate(graph, constraints)
        if report.connected and not report.degree_violations and (
            abs(report.avg_degree - target) <= 0.5
        ):
            return graph
    raise GenerationBudgetError(
        f"no valid graph for n={n}, target={target} after {GENERATION_ATTEMPTS} attempts"
    )


def _attempt(n, constraints, edge_target, rng) -> TopologyGraph | None:
    max_deg = constraints.max_degree
    neighbors = [set() for _ in range(n)]
    degrees = [0] * n

    def connect(a, b):
        neighbors[a].add(b)
        neighbors[b].add(a)
        degrees[a] += 1
        degrees[b] += 1

    # Random spanning tree: attach each node to an earlier one with headroom.
    order = [int(x) for x in rng.permutation(n)]
    for i in range(1, n):
        candidates = [order[j] for j in range(i) if degrees[order[j]] < max_deg]
        if not candidates:
            return None
        connect(order[i], candidates[rng.integers(len(candidates))])

    edge_count = n - 1
    stalls = 0
    while edge_count < edge_target:
        a = int(rng.integers(n))
        b = int(rng.integers(n))
        if a != b and degrees[a] < max_deg and degrees[b] < max_deg and b not in neighbors[a]:
            connect(a, b)
            edge_count += 1
            stalls = 0
            continue
        stalls += 1
        if stalls >= 50:
            # Random picks keep missing; enumerate the remaining candidates.
            pool = [
                (i, j)
                for i in range(n)
                if degrees[i] < max_deg
                for j in range(i + 1, n)
                if degrees[j] < max_deg and j not in neighbors[i]
            ]
            if not pool:
                return None
            i, j = pool[rng.integers(len(pool))]
            connect(i, j)
            edge_count += 1
            stalls = 0

    if min(degrees) < constraints.min_degree:
        return None
    return TopologyGraph(n, tuple(tuple(sorted(s)) for s in neighbors))


def validate(graph: TopologyGraph, constraints: TopologyConstraints) -> ValidationReport:
    """Connectivity and degree-bound report; raises on asymmetric adjacency."""
    for i, adj in enumerate(graph.adjacency):
        if len(set(adj)) != len(adj):
            raise MalformedGraphError(f"duplicate neighbors at node {i}")
        for j in adj:
            if i == j:
                raise MalformedGraphError(f"self-loop at node {i}")
            if i not in graph.adjacency[j]:
                raise MalformedGraphError(f"asymmetric edge ({i}, {j})")
    violations = [
        i
        for i, d in enumerate(graph.degrees())
        if not constraints.min_degree <= d <= constraints.max_degree
    ]
    return ValidationReport(
        connected=is_connected(graph),
        degree_violations=violations,
        avg_degree=graph.avg_degree,
    )


def _count_bridges(graph: TopologyGraph) -> int:
    """Edges whose removal disconnects the graph (iterative lowlink walk)."""
    n = graph.node_count
    disc = [-1] * n
    low = [0] * n
    bridges = 0
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack = [(root, -1, iter(graph.adjacency[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            node, parent, it = stack[-1]
            advanced = False
            for nb in it:
                if nb == parent:
                    continue
                if disc[nb] == -1:
                    disc[nb] = low[nb] = timer
                    timer += 1
                    stack.append((nb, node, iter(graph.adjacency[nb])))
                    advanced = True
                    break
                low[node] = min(low[node], disc[nb])
            if not advanced:
                stack.pop()
                if stack:
                    parent_node = stack[-1][0]
                    low[parent_node] = min(low[parent_node], low[node])
                    if low[node] > disc[parent_node]:
                        bridges += 1
    return bridges


def stats(graph: TopologyGraph) -> GraphStats:
    """Degree summary plus diameter (a hop walk from every node) and bridge count."""
    if not is_connected(graph):
        raise ValueError("diameter undefined: graph is disconnected")
    degrees = graph.degrees()
    diameter = max(
        max(hop_distances(graph, start).values()) for start in range(graph.node_count)
    )
    return GraphStats(
        avg_degree=graph.avg_degree,
        min_degree=min(degrees),
        max_degree=max(degrees),
        diameter=diameter,
        bridge_count=_count_bridges(graph),
    )


def write_edge_list(graph: TopologyGraph, path) -> None:
    with open(path, "w", newline="") as f:
        for i, j in graph.edges():
            f.write(f"{i} {j}\n")


def read_edge_list(path) -> TopologyGraph:
    edges = []
    highest = -1
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise MalformedGraphError(f"bad edge line: {line!r}")
            i, j = int(parts[0]), int(parts[1])
            edges.append((i, j))
            highest = max(highest, i, j)
    return TopologyGraph.from_edges(highest + 1, edges)


def write_descriptor(
    path,
    graph: TopologyGraph,
    seed: int,
    constraints: TopologyConstraints,
    edge_list_path: str,
) -> None:
    descriptor = {
        "node_count": graph.node_count,
        "seed": seed,
        "constraints": asdict(constraints),
        "edge_list": str(edge_list_path),
    }
    with open(path, "w", newline="") as f:
        json.dump(descriptor, f, indent=2, sort_keys=True)
        f.write("\n")
