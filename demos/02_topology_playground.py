"""Generate the three reference topology sizes and inspect their shape.

Each graph is connected, keeps every node between 1 and 8 neighbors, and
lands within +-0.5 of its target average connectivity by construction, so
the demo checks nothing itself: stats, which rejects a disconnected graph,
reports each graph's degree range, diameter and bridges.
"""

import deltagossip as dg
from deltagossip.topology import stats, write_edge_list

SCENARIOS = [(10, 3.3), (25, 3.2), (50, 4.2)]

for nodes, target in SCENARIOS:
    constraints = dg.TopologyConstraints(target_avg_degree=target)
    graph = dg.generate_semi_random(nodes, constraints, seed=42)
    info = stats(graph)
    print(
        f"{nodes:>3} nodes: avg degree {info.avg_degree:.2f} (target {target}), "
        f"degrees {info.min_degree}..{info.max_degree}, diameter {info.diameter}, "
        f"bridges {info.bridge_count}"
    )
    path = f"{nodes}nodes.edges"
    write_edge_list(graph, path)
    print(f"          wrote {path}")
