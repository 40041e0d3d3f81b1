import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis import seed as hypothesis_seed

from deltagossip import topology
from deltagossip.topology import (
    GenerationBudgetError,
    MalformedGraphError,
    TopologyConstraints,
    TopologyGraph,
    UnsatisfiableConstraintsError,
    generate_semi_random,
    is_connected,
    read_edge_list,
    stats,
    write_descriptor,
    write_edge_list,
)


def ring(n):
    return TopologyGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return TopologyGraph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


@st.composite
def connected_graphs(draw):
    """Connected graphs of 1 to 40 nodes: paths, rings, stars, complete graphs,
    and random spanning trees with random extra edges."""
    kind = draw(st.sampled_from(["path", "ring", "star", "complete", "random"]))
    n = draw(st.integers(3 if kind == "ring" else 1, 40))
    if kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "ring":
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "star":
        edges = [(0, i) for i in range(1, n)]
    elif kind == "complete":
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        edges = [(i, int(rng.integers(i))) for i in range(1, n)]
        edges += [tuple(map(int, rng.integers(n, size=2))) for _ in range(draw(st.integers(0, n)))]
        edges = [(i, j) for i, j in edges if i != j]
    return TopologyGraph.from_edges(n, edges)


def meets(graph, constraints):
    """Whether graph is connected, every degree is within the constraints'
    bounds and the average degree is within 0.5 of the target."""
    degrees = graph.degrees()
    return (is_connected(graph)
            and constraints.min_degree <= min(degrees)
            and max(degrees) <= constraints.max_degree
            and abs(graph.avg_degree - constraints.target_avg_degree) <= 0.5)


def quadratic_attempt(n, constraints, edge_target, rng, fallbacks):
    """The generator's attempt as it was before its candidate lists were kept
    up to date: the spanning tree rescans every placed node for each new one,
    the joins rescan every node for each join, and each stall fallback scans
    all node pairs. It appends to ``fallbacks`` each time that fallback runs.
    The reference the differential test compares ``topology._attempt``
    against."""
    max_deg = constraints.max_degree
    neighbors = [set() for _ in range(n)]
    degrees = [0] * n

    def connect(a, b):
        neighbors[a].add(b)
        neighbors[b].add(a)
        degrees[a] += 1
        degrees[b] += 1

    order = [int(x) for x in rng.permutation(n)]
    for i in range(1, n):
        candidates = [order[j] for j in range(i) if degrees[order[j]] < max_deg]
        if not candidates:
            return None
        connect(order[i], candidates[rng.integers(len(candidates))])

    edge_count = n - 1
    while True:
        short = [i for i in range(n) if degrees[i] < constraints.min_degree]
        if not short:
            break
        node = short[0]
        partners = [j for j in short[1:] if j not in neighbors[node]] or [
            j for j in range(n)
            if j != node and degrees[j] < max_deg and j not in neighbors[node]
        ]
        if edge_count == edge_target or not partners:
            return None
        connect(node, partners[rng.integers(len(partners))])
        edge_count += 1

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
            fallbacks.append(n)
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


def generation_outcome(nodes, constraints, seed):
    """The adjacency generate_semi_random returns, or its exception's type and text."""
    try:
        return generate_semi_random(nodes, constraints, seed).adjacency
    except (UnsatisfiableConstraintsError, GenerationBudgetError) as error:
        return type(error), str(error)


@st.composite
def generation_cases(draw):
    """(nodes, constraints, seed): mostly 2 to 80 nodes, some of 200 to 500,
    and about half the targets within 0.15 of max_degree, where the random
    edge picks stall."""
    nodes = draw(st.integers(2, 80) if draw(st.integers(0, 9)) else st.integers(200, 500))
    max_degree = draw(st.integers(2, 8))
    min_degree = draw(st.integers(1, max_degree))
    if draw(st.booleans()):
        target = max_degree - draw(st.floats(0.0, 0.15))
    else:
        target = draw(st.floats(float(min_degree), float(max_degree)))
    constraints = TopologyConstraints(min_degree, max_degree, max(target, float(min_degree)))
    return nodes, constraints, draw(st.integers(0, 2**32 - 1))


class TestGenerateSemiRandom:
    def test_ten_nodes_target_3_3(self):
        constraints = TopologyConstraints(target_avg_degree=3.3)
        graph = generate_semi_random(10, constraints, seed=7)
        assert is_connected(graph)
        assert all(1 <= d <= 8 for d in graph.degrees())
        assert 2.8 <= graph.avg_degree <= 3.8

    def test_two_nodes_single_edge(self):
        graph = generate_semi_random(
            2, TopologyConstraints(target_avg_degree=1.0), seed=0
        )
        assert graph.edges() == [(0, 1)]
        assert graph.degrees() == [1, 1]

    def test_target_above_max_degree_unsatisfiable(self):
        with pytest.raises(UnsatisfiableConstraintsError):
            generate_semi_random(10, TopologyConstraints(target_avg_degree=9.5), seed=0)

    def test_target_below_min_degree_unsatisfiable(self):
        with pytest.raises(UnsatisfiableConstraintsError):
            generate_semi_random(10, TopologyConstraints(target_avg_degree=0.5), seed=0)

    def test_target_beyond_complete_graph_unsatisfiable(self):
        # n=5 caps at avg degree 4; target 4.9 leaves no reachable band
        with pytest.raises(UnsatisfiableConstraintsError):
            generate_semi_random(
                5, TopologyConstraints(max_degree=8, target_avg_degree=4.9), seed=0
            )

    @pytest.mark.parametrize("nodes, degree", [(5, 3), (7, 1), (9, 5)])
    def test_odd_degree_sum_of_a_regular_graph_unsatisfiable_before_any_attempt(
            self, monkeypatch, nodes, degree):
        attempts = []
        monkeypatch.setattr(topology, "_attempt", lambda *args: attempts.append(args))
        constraints = TopologyConstraints(min_degree=degree, max_degree=degree,
                                          target_avg_degree=float(degree))
        with pytest.raises(UnsatisfiableConstraintsError, match="-regular graph"):
            generate_semi_random(nodes, constraints, seed=0)
        assert attempts == []

    @pytest.mark.parametrize("nodes", [4, 6])
    def test_max_degree_one_past_two_nodes_unsatisfiable_before_any_attempt(
            self, monkeypatch, nodes):
        attempts = []
        monkeypatch.setattr(topology, "_attempt", lambda *args: attempts.append(args))
        constraints = TopologyConstraints(min_degree=1, max_degree=1, target_avg_degree=1.0)
        with pytest.raises(UnsatisfiableConstraintsError,
                           match=f"nodes={nodes} needs max_degree >= 2"):
            generate_semi_random(nodes, constraints, seed=0)
        assert attempts == []

    def test_max_degree_one_on_two_nodes_is_one_edge(self):
        constraints = TopologyConstraints(min_degree=1, max_degree=1, target_avg_degree=1.0)
        assert generate_semi_random(2, constraints, seed=0).edges() == [(0, 1)]

    def test_same_graphs_and_errors_as_the_quadratic_attempt(self):
        fallbacks = []

        def frozen(n, constraints, edge_target, rng):
            return quadratic_attempt(n, constraints, edge_target, rng, fallbacks)

        @hypothesis_seed(20261020)
        @settings(max_examples=150, deadline=None, database=None)
        @given(generation_cases())
        def same_outcome(case):
            nodes, constraints, seed = case
            outcome = generation_outcome(nodes, constraints, seed)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(topology, "_attempt", frozen)
                assert generation_outcome(nodes, constraints, seed) == outcome

        same_outcome()
        assert fallbacks, "no example reached the stall fallback"

    def test_every_generated_graph_meets_its_constraints(self):
        # generate_semi_random returns its first unstalled attempt unchecked.
        graphs = []

        @hypothesis_seed(20261021)
        @settings(max_examples=150, deadline=None, database=None)
        @given(generation_cases())
        def valid(case):
            nodes, constraints, seed = case
            try:
                graph = generate_semi_random(nodes, constraints, seed)
            except (UnsatisfiableConstraintsError, GenerationBudgetError):
                return
            assert meets(graph, constraints)
            graphs.append(graph)

        valid()
        assert graphs, "no example gave a graph"

    @pytest.mark.parametrize("nodes, target", [(30, 2.5), (40, 3.3), (100, 3.3)])
    def test_min_degree_two_met_at_every_seed(self, nodes, target):
        # The spanning tree's leaves are joined rather than left to the random
        # edges, so no seed spends its attempts on graphs with a leaf.
        constraints = TopologyConstraints(min_degree=2, max_degree=8, target_avg_degree=target)
        for seed in range(10):
            assert meets(generate_semi_random(nodes, constraints, seed), constraints)

    def test_joins_never_fail_where_rejection_succeeds(self):
        # Rejection is the attempt without joins: the min_degree 1 draws, then
        # a graph with a degree below min_degree is thrown away.
        joining = topology._attempt

        def rejection(n, constraints, edge_target, rng):
            graph = joining(n, replace(constraints, min_degree=1), edge_target, rng)
            if graph is None or min(graph.degrees()) < constraints.min_degree:
                return None
            return graph

        def gives_graph(case):
            try:
                generate_semi_random(*case)
            except (UnsatisfiableConstraintsError, GenerationBudgetError):
                return False
            return True

        outcomes = []

        @hypothesis_seed(20261026)
        @settings(max_examples=150, deadline=None, database=None)
        @given(generation_cases().filter(lambda case: case[1].min_degree >= 2))
        def never_worse(case):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(topology, "_attempt", rejection)
                before = gives_graph(case)
            after = gives_graph(case)
            assert after or not before
            outcomes.append((before, after))

        never_worse()
        assert (True, True) in outcomes, "rejection gave no graph"
        assert (False, True) in outcomes, "the joins rescued no example"

    def test_edge_target_within_half_a_degree_of_every_accepted_target(self):
        # Targets on a 0.1 grid; the clamp corners of the test below are among them.
        accepted = set()
        for nodes in (2, 3, 4, 5, 9, 10, 20):
            for max_degree in (1, 2, 3, 8):
                for tenths in range(10, 10 * max_degree + 1):
                    target = tenths / 10
                    constraints = TopologyConstraints(max_degree=max_degree,
                                                      target_avg_degree=target)
                    try:
                        graph = generate_semi_random(nodes, constraints, seed=0)
                    except UnsatisfiableConstraintsError:
                        continue
                    assert meets(graph, constraints)
                    accepted.add((nodes, max_degree, target))
        assert {(10, 8, 1.6), (20, 8, 1.5), (5, 3, 3.0), (9, 3, 3.0), (4, 8, 3.4)} <= accepted

    @pytest.mark.parametrize("nodes, max_degree, target, edges", [
        (10, 8, 1.6, 9),   # round(8.0) = 8 is below a spanning tree's 9 edges
        (20, 8, 1.5, 19),  # round(15.0) = 15
        (5, 3, 3.0, 7),    # round(7.5) = 8 is above the degree cap's 5 * 3 // 2 = 7
        (9, 3, 3.0, 13),   # round(13.5) = 14, cap 13
        (4, 8, 3.4, 6),    # round(6.8) = 7 is above the complete graph's 6
    ])
    def test_edge_target_clamped_to_what_the_graph_can_hold(self, nodes, max_degree,
                                                            target, edges):
        constraints = TopologyConstraints(max_degree=max_degree, target_avg_degree=target)
        for seed in range(5):
            assert generate_semi_random(nodes, constraints, seed).edge_count == edges

    def test_budget_spent_when_every_attempt_stalls(self, monkeypatch):
        monkeypatch.setattr(topology, "_attempt", lambda *args: None)
        with pytest.raises(GenerationBudgetError, match="after 100 attempts"):
            generate_semi_random(10, TopologyConstraints(target_avg_degree=3.0), seed=0)

    def test_deterministic(self):
        constraints = TopologyConstraints(target_avg_degree=4.2)
        a = generate_semi_random(20, constraints, seed=13)
        b = generate_semi_random(20, constraints, seed=13)
        assert a.adjacency == b.adjacency

    def test_seeds_give_different_graphs(self):
        constraints = TopologyConstraints(target_avg_degree=3.3)
        a = generate_semi_random(15, constraints, seed=1)
        b = generate_semi_random(15, constraints, seed=2)
        assert a.adjacency != b.adjacency

    def test_output_always_validates(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            n = int(rng.integers(5, 40))
            target = float(rng.uniform(1.8, min(7.5, n - 1)))
            constraints = TopologyConstraints(target_avg_degree=target)
            graph = generate_semi_random(n, constraints, seed=int(rng.integers(10**6)))
            assert meets(graph, constraints)

    def test_degree_sum_is_twice_edges(self):
        graph = generate_semi_random(
            12, TopologyConstraints(target_avg_degree=3.0), seed=5
        )
        assert sum(graph.degrees()) == 2 * graph.edge_count

    @pytest.mark.parametrize("nodes, seed, name", [(10.0, 0, "nodes"), (10, 1.5, "seed"),
                                                   (True, 0, "nodes")])
    def test_integer_arguments_checked(self, nodes, seed, name):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            generate_semi_random(nodes, TopologyConstraints(), seed=seed)

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -3$"):
            generate_semi_random(6, TopologyConstraints(target_avg_degree=2.5), seed=-3)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_target_avg_degree_rejected(self, value):
        with pytest.raises(ValueError, match="target_avg_degree must be positive and finite"):
            TopologyConstraints(target_avg_degree=value)


class TestValidate:
    def test_ring_clean(self):
        graph = ring(10)
        assert is_connected(graph)
        assert graph.degrees() == [2] * 10
        assert graph.avg_degree == 2.0

    def test_disjoint_triangles_not_connected(self):
        graph = TopologyGraph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        assert not is_connected(graph)

    def test_asymmetric_adjacency_rejected(self):
        # rejected when built, before stats or write_edge_list can read it
        for adjacency in [((1,), (), (1,)), ((1,), (0, 2), ())]:
            with pytest.raises(MalformedGraphError, match="asymmetric edge"):
                TopologyGraph(3, adjacency)

    @pytest.mark.parametrize(
        "adjacency, message",
        [
            (((1,), (0,)), "2 neighbor lists for 3 nodes"),
            (((2, 1), (0,), (0,)), "not sorted, unique and in range"),
            (((1, 1), (0,), ()), "not sorted, unique and in range"),
            (((3,), (), ()), "not sorted, unique and in range"),
            (((-1,), (), ()), "not sorted, unique and in range"),
            (((0,), (), ()), "self-loop at node 0"),
        ],
    )
    def test_malformed_adjacency_rejected_at_construction(self, adjacency, message):
        with pytest.raises(MalformedGraphError, match=message):
            TopologyGraph(3, adjacency)

    def test_self_loop_rejected_at_construction(self):
        with pytest.raises(MalformedGraphError):
            TopologyGraph.from_edges(3, [(0, 0)])


class TestStats:
    def test_ring_of_ten(self):
        info = stats(ring(10))
        assert info.avg_degree == 2.0
        assert info.diameter == 5
        assert info.bridge_count == 0

    def test_complete_five(self):
        info = stats(complete(5))
        assert info.avg_degree == 4.0
        assert info.diameter == 1

    def test_path_of_four(self):
        path = TopologyGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        info = stats(path)
        assert info.avg_degree == 1.5
        assert info.diameter == 3
        assert info.bridge_count == 3  # every tree edge is a bridge

    def test_disconnected_rejected(self):
        graph = TopologyGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            stats(graph)

    @hypothesis_seed(20261019)
    @settings(max_examples=200, deadline=None, database=None)
    @given(connected_graphs())
    def test_diameter_is_the_largest_hop_distance(self, graph):
        walks = (topology.hop_distances(graph, s) for s in range(graph.node_count))
        assert stats(graph).diameter == max(max(dist.values()) for dist in walks)


class TestSerialization:
    def test_edge_list_round_trip(self, tmp_path):
        constraints = TopologyConstraints(target_avg_degree=3.3)
        graph = generate_semi_random(10, constraints, seed=3)
        path = tmp_path / "topo.edges"
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        assert loaded.adjacency == graph.adjacency
        assert is_connected(loaded)
        assert all(1 <= d <= 8 for d in loaded.degrees())

    def test_descriptor_contents(self, tmp_path):
        constraints = TopologyConstraints(target_avg_degree=2.5)
        graph = generate_semi_random(6, constraints, seed=4)
        edge_path = tmp_path / "t.edges"
        json_path = tmp_path / "t.json"
        write_edge_list(graph, edge_path)
        write_descriptor(json_path, graph, 4, constraints, str(edge_path))
        desc = json.loads(json_path.read_text())
        assert desc["node_count"] == 6
        assert desc["seed"] == 4
        assert desc["constraints"]["target_avg_degree"] == 2.5

    @pytest.mark.parametrize("text, nodes", [("", 0), ("\n\n", 0), ("0 0\n", 1)])
    def test_edge_list_of_fewer_than_two_nodes(self, tmp_path, text, nodes):
        path = tmp_path / "small.edges"
        path.write_text(text)
        with pytest.raises(MalformedGraphError, match=f"names {nodes} nodes") as excinfo:
            read_edge_list(path)
        assert str(path) in str(excinfo.value)

    def test_index_no_edge_touches_rejected_before_any_graph(self, tmp_path, monkeypatch):
        path = tmp_path / "sparse.edges"
        path.write_text("0 1\n1 300000\n")
        built = []
        monkeypatch.setattr(TopologyGraph, "from_edges",
                            classmethod(lambda cls, *args: built.append(args)))
        with pytest.raises(MalformedGraphError) as excinfo:
            read_edge_list(path)
        assert str(excinfo.value) == (f"edge list {path} has no edge at node 2; the nodes "
                                      f"must be 0..300000 with no index left out")
        assert built == []

    def test_malformed_edge_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n2 3 4\n")
        with pytest.raises(MalformedGraphError):
            read_edge_list(path)

    @pytest.mark.parametrize("line, reason", [
        ("2 3 4", "need two node indices"),
        ("a b", "need two node indices"),
        ("1.5 2", "need two node indices"),
        ("3", "need two node indices"),
        ("1 -1", "node indices must be non-negative"),
        ("1 1", "self-loop at node 1"),
        ("3 3", "self-loop at node 3"),  # before node 2, which no edge touches
    ], ids=["2 3 4", "a b", "1.5 2", "3", "1 -1", "1 1", "3 3"])
    def test_bad_edge_line_names_file_and_line(self, tmp_path, line, reason):
        path = tmp_path / "bad.edges"
        path.write_text(f"0 1\n\n{line}\n")
        with pytest.raises(MalformedGraphError) as excinfo:
            read_edge_list(path)
        assert str(excinfo.value) == f"bad edge line 3 in {path}: {line!r}; {reason}"

    @pytest.mark.parametrize("write", ["edge_list", "descriptor"])
    def test_failed_replace_leaves_no_file(self, tmp_path, monkeypatch, write):
        graph = ring(4)
        constraints = TopologyConstraints(target_avg_degree=2.0)
        writers = {
            "edge_list": lambda: write_edge_list(graph, tmp_path / "t.edges"),
            "descriptor": lambda: write_descriptor(tmp_path / "t.json", graph, 0, constraints,
                                                   "t.edges"),
        }

        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr("os.replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            writers[write]()
        assert list(tmp_path.iterdir()) == []
