"""Semi-random neighbor graphs under degree and connectivity constraints.

Generation builds a random spanning tree (connectivity for free), joins the
nodes still below min_degree when it is 2 or more, then adds random edges
under the degree cap until the edge count matches the target average
degree, so a generated graph meets its constraints by construction and
generation does not check it. is_connected is the one connectivity check
and stats the one graph report. A TopologyGraph checks its own structure
when it is built, so no code sees an asymmetric or malformed one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, asdict

import numpy as np

from .metrics import write_atomic
from .params import require_ints, require_positive

GENERATION_ATTEMPTS = 100  # seeded retries before GenerationBudgetError


class UnsatisfiableConstraintsError(ValueError):
    """No simple connected graph can meet the requested constraints."""


class GenerationBudgetError(RuntimeError):
    """Constraints look satisfiable but no attempt produced a valid graph."""


class MalformedGraphError(ValueError):
    """Adjacency structure or an edge-list file violates symmetry or basic sanity."""


@dataclass(frozen=True)
class TopologyConstraints:
    min_degree: int = 1
    max_degree: int = 8
    target_avg_degree: float = 3.3

    def __post_init__(self):
        require_ints(1, min_degree=self.min_degree, max_degree=self.max_degree)
        if self.min_degree > self.max_degree:
            raise ValueError(f"min_degree {self.min_degree} exceeds max_degree {self.max_degree}")
        require_positive(target_avg_degree=self.target_avg_degree)


@dataclass(frozen=True)
class TopologyGraph:
    node_count: int
    adjacency: tuple[tuple[int, ...], ...]  # sorted neighbor lists, undirected

    def __post_init__(self):
        n, adjacency = self.node_count, self.adjacency
        if len(adjacency) != n:
            raise MalformedGraphError(f"{len(adjacency)} neighbor lists for {n} nodes")
        for i, adj in enumerate(adjacency):
            previous = -1
            for j in adj:
                if not previous < j < n:
                    raise MalformedGraphError(
                        f"neighbors of node {i} are not sorted, unique and in range: {adj}"
                    )
                if i == j:
                    raise MalformedGraphError(f"self-loop at node {i}")
                if i not in adjacency[j]:
                    raise MalformedGraphError(f"asymmetric edge ({i}, {j})")
                previous = j

    @classmethod
    def from_edges(cls, node_count: int, edges) -> "TopologyGraph":
        neighbors = [set() for _ in range(node_count)]
        for i, j in edges:
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
class GraphStats:
    avg_degree: float
    min_degree: int
    max_degree: int
    diameter: int
    bridge_count: int


def hop_distances(graph: TopologyGraph, start: int, max_hops: int | None = None):
    """{node: hops from start} for every node within max_hops (all when None).

    The package's one breadth-first walk: connectivity and gossip
    dissemination use it.
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
    nodes: int,
    constraints: TopologyConstraints,
    seed: int,
) -> TopologyGraph:
    """Connected graph with degrees in bounds and avg degree within +-0.5 of target.

    Deterministic per (nodes, constraints, seed); nodes and seed are integers, seed >= 0.
    Raises UnsatisfiableConstraintsError, before any attempt, when no simple
    connected graph can land in the +-0.5 band or when min_degree ==
    max_degree asks for a regular graph whose degree sum nodes * degree is
    odd, or when max_degree is 1 on more than 2 nodes; GenerationBudgetError
    if all GENERATION_ATTEMPTS stall. An attempt takes time linear in nodes
    plus edges, apart from stall fallbacks and the joins, each of which scans
    the nodes below min_degree. An attempt stalls when its joins would pass
    edge_target edges or find no partner, or when a random edge finds no pair.

    The first attempt that does not stall is returned unchecked: a spanning
    tree plus joins and random edges, each between two nodes below the
    degree cap; the joins leave no degree below min_degree, and there are
    edge_target edges, which the checks below keep within 0.5 of the target.
    """
    require_ints(2, nodes=nodes)
    require_ints(0, seed=seed)
    target = constraints.target_avg_degree
    if not constraints.min_degree <= target <= constraints.max_degree or target >= nodes:
        raise UnsatisfiableConstraintsError(
            f"target avg degree {target} outside [{constraints.min_degree}, "
            f"{constraints.max_degree}] or not < nodes={nodes}"
        )
    degree = constraints.max_degree
    if constraints.min_degree == degree and nodes * degree % 2:
        raise UnsatisfiableConstraintsError(
            f"no {degree}-regular graph on nodes={nodes}: the degree sum "
            f"{nodes} x {degree} is odd"
        )
    if nodes > 2 and degree < 2:
        raise UnsatisfiableConstraintsError(
            f"a connected graph on nodes={nodes} needs max_degree >= 2, got {degree}"
        )
    # Achievable average degree of a simple connected graph on this many nodes.
    lo = 2.0 * (nodes - 1) / nodes
    hi = float(min(constraints.max_degree, nodes - 1))
    if target + 0.5 < lo or target - 0.5 > hi:
        raise UnsatisfiableConstraintsError(
            f"avg degree band [{target - 0.5:.2f}, {target + 0.5:.2f}] misses the "
            f"achievable range [{lo:.2f}, {hi:.2f}] for nodes={nodes}"
        )
    min_edges = nodes - 1
    max_edges = min(nodes * constraints.max_degree // 2, nodes * (nodes - 1) // 2)
    edge_target = min(max(round(nodes * target / 2.0), min_edges), max_edges)

    for attempt in range(GENERATION_ATTEMPTS):
        graph = _attempt(nodes, constraints, edge_target, np.random.default_rng([seed, attempt]))
        if graph is not None:
            return graph
    raise GenerationBudgetError(
        f"no valid graph for nodes={nodes}, target={target} after {GENERATION_ATTEMPTS} attempts"
    )


def _attempt(n, constraints, edge_target, rng) -> TopologyGraph | None:
    min_deg, max_deg = constraints.min_degree, constraints.max_degree
    neighbors = [set() for _ in range(n)]  # a node's degree is the size of its set

    def connect(a, b):
        neighbors[a].add(b)
        neighbors[b].add(a)

    # Random spanning tree: attach each node to an earlier one with headroom.
    # open_ holds the placed nodes below the cap in placement order. It is
    # never empty: past 2 nodes max_deg >= 2, so each new node joins it.
    order = [int(x) for x in rng.permutation(n)]
    open_ = [order[0]]
    for node in order[1:]:
        k = int(rng.integers(len(open_)))
        parent = open_[k]
        connect(node, parent)
        if len(neighbors[parent]) == max_deg:
            del open_[k]
        if len(neighbors[node]) < max_deg:
            open_.append(node)

    # Joins: with min_degree 2 or more the tree's leaves are short. Join the
    # lowest short node to a random other short one, else to any node below
    # the cap, until none is short; the joins count toward edge_target.
    edges = n - 1
    short = [i for i in range(n) if len(neighbors[i]) < min_deg]
    while short:
        node = short[0]
        partners = [j for j in short[1:] if j not in neighbors[node]] or [
            j for j in range(n)
            if j != node and len(neighbors[j]) < max_deg and j not in neighbors[node]
        ]
        if edges == edge_target or not partners:
            return None
        connect(node, partners[rng.integers(len(partners))])
        edges += 1
        short = [i for i in short if len(neighbors[i]) < min_deg]

    for _ in range(edges, edge_target):
        for _ in range(50):
            a = int(rng.integers(n))
            b = int(rng.integers(n))
            if (a != b and len(neighbors[a]) < max_deg and len(neighbors[b]) < max_deg
                    and b not in neighbors[a]):
                connect(a, b)
                break
        else:
            # 50 random picks missed; enumerate the remaining candidates,
            # pairing only the nodes below the cap, in ascending order.
            below = [i for i in range(n) if len(neighbors[i]) < max_deg]
            pool = [
                (i, j)
                for x, i in enumerate(below)
                for j in below[x + 1:]
                if j not in neighbors[i]
            ]
            if not pool:
                return None
            connect(*pool[rng.integers(len(pool))])

    return TopologyGraph(n, tuple(tuple(sorted(s)) for s in neighbors))


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


def _diameter(graph: TopologyGraph) -> int:
    """Rounds until every node's reach set covers the graph; never ends on a
    disconnected one.

    Each reach set is an int bitmask of the nodes within that many hops, and a
    round ORs every mask with its neighbours' masks.
    """
    everyone = (1 << graph.node_count) - 1
    reach = [1 << node for node in range(graph.node_count)]
    rounds = 0
    while any(mask != everyone for mask in reach):
        grown = []
        for mask, adj in zip(reach, graph.adjacency):
            for nb in adj:
                mask |= reach[nb]
            grown.append(mask)
        reach = grown
        rounds += 1
    return rounds


def stats(graph: TopologyGraph) -> GraphStats:
    """Degree summary plus diameter and bridge count."""
    if not is_connected(graph):
        raise ValueError("diameter undefined: graph is disconnected")
    degrees = graph.degrees()
    return GraphStats(
        avg_degree=graph.avg_degree,
        min_degree=min(degrees),
        max_degree=max(degrees),
        diameter=_diameter(graph),
        bridge_count=_count_bridges(graph),
    )


def write_edge_list(graph: TopologyGraph, path) -> None:
    """One ``i j`` line per edge (i < j), written atomically."""
    write_atomic(path, "".join(f"{i} {j}\n" for i, j in graph.edges()))


def read_edge_list(path) -> TopologyGraph:
    """The graph of an edge-list file: one ``i j`` pair of node indices per line.

    Blank lines are skipped. A line that is not two integers >= 0, a file
    naming fewer than 2 nodes, then a self-loop line, then an index below the
    highest that no edge touches, is a MalformedGraphError naming the file
    (and the line, or the lowest such node), raised before any graph is built.
    A path that is not path-like (a file descriptor number) is a TypeError.
    """
    def bad_line(number, line, reason):
        return MalformedGraphError(f"bad edge line {number} in {path}: {line.strip()!r}; {reason}")

    edges, highest, self_loop = [], -1, None
    with open(os.fspath(path)) as f:
        for number, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                i, j = map(int, line.split())
            except ValueError:
                raise bad_line(number, line, "need two node indices") from None
            if min(i, j) < 0:
                raise bad_line(number, line, "node indices must be non-negative")
            if i == j:
                self_loop = self_loop or bad_line(number, line, f"self-loop at node {i}")
            edges.append((i, j))
            highest = max(highest, i, j)
    if highest < 1:
        raise MalformedGraphError(
            f"edge list {path} names {highest + 1} nodes; a topology needs at least 2"
        )
    if self_loop:
        raise self_loop
    touched = {node for edge in edges for node in edge}
    if len(touched) <= highest:
        lowest = next(node for node in range(highest + 1) if node not in touched)
        raise MalformedGraphError(
            f"edge list {path} has no edge at node {lowest}; the nodes must be "
            f"0..{highest} with no index left out"
        )
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
    write_atomic(path, json.dumps(descriptor, indent=2, sort_keys=True) + "\n")
