"""Race the integration strategies as the gossip topology grows.

On a small topology all strategies tie. Spread the same dataset over three
times as many nodes and full-model averaging starts paying its dilution
penalty, while delta-sum integration holds on to most of the accuracy.
One metrics CSV per (size, strategy) lands next to this script.
"""

import deltagossip as dg

STRATEGIES = ("standard_averaging", "variance_corrected", "delta_sum")
damping = dg.LambdaSchedule(offset=0.15, slope_divisor=300.0, cap=0.35)
schedule = dg.SimSchedule(
    train_epochs=60, integrate_every=10, convergence_until_round=75, batch_size=16
)

finals = {}
for nodes in (8, 24):
    data = dg.synth_classification(classes=10, dim=16, per_class=120, seed=1,
                                   noise_sigma=0.12)
    graph = dg.generate_semi_random(
        nodes, dg.TopologyConstraints(target_avg_degree=3.3), seed=101
    )
    print(f"\n{nodes} nodes (avg degree {graph.avg_degree:.2f}), "
          f"{data.size // nodes} samples per node:")
    configs = [
        dg.SimConfig(
            topology=graph,
            strategy=dg.IntegrationStrategy(kind, damping if kind == "delta_sum" else None),
            schedule=schedule,
            model_config=dg.ModelConfig(
                input_dim=16, class_count=10, hidden_dim=0, learning_rate=0.05, seed=201
            ),
            shard_plan=dg.ShardPlan(node_count=nodes, train_fraction=0.8, seed=301),
        )
        for kind in STRATEGIES
    ]
    # The strategies differ from the first integration on; start_run trains the
    # epochs before it once, and every run goes on from that start.
    start = dg.start_run(configs[0], data)
    for kind, config in zip(STRATEGIES, configs):
        records = dg.run_simulation(config, data, start=start)
        rows = dg.aggregate_across_nodes(records)
        path = f"{nodes}nodes_{kind}.csv"
        dg.export_csv(rows, path)
        final = rows[-1]
        finals[(nodes, kind)] = final.test_acc_median
        print(
            f"  {kind:<20} median {final.test_acc_median:.4f} "
            f"range [{final.test_acc_min:.4f}, {final.test_acc_max:.4f}]  -> {path}"
        )

print("\naccuracy drop when scaling 8 -> 24 nodes:")
for kind in STRATEGIES:
    drop = finals[(8, kind)] - finals[(24, kind)]
    print(f"  {kind:<20} {drop:+.4f}")
ratio = dg.accuracy_drop_ratio(
    {n: finals[(n, "standard_averaging")] for n in (8, 24)},
    {n: finals[(n, "delta_sum")] for n in (8, 24)},
)
print(f"delta_sum keeps {ratio:.0%} of the averaging baseline's scaling loss away")
