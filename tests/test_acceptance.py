"""Acceptance suite: one test per criterion, printing a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Every tolerance is pinned here; the experiment constants (dataset
shape, topology seeds, schedules) are frozen so results are reproducible
bit for bit on one platform.
"""

import json
import time

import numpy as np
import pytest

import deltagossip as dg
from deltagossip.aggregation import STRATEGY_KINDS
from deltagossip.cli import main as cli_main
from deltagossip.gossipsim import Forwarding
from deltagossip.model import ModelConfig
from deltagossip.params import ParameterVector, make_layout
from deltagossip.topology import (
    GenerationBudgetError,
    TopologyConstraints,
    UnsatisfiableConstraintsError,
    generate_semi_random,
    is_connected,
)

from reference_engine import loss_and_gradient

EXACT = 1e-12


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def pv(values, layout=None):
    values = np.asarray(values, dtype=np.float64)
    if layout is None:
        layout = make_layout([("w", values.size)])
    return ParameterVector(values, layout)


def update(node_id, base, delta, k=1):
    base = pv(base)
    return dg.ModelUpdate(node_id, base, pv(delta, base.layout), k)


def test_criterion_1_equation_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(17)

    # averaging penalty: mean of {w0 + d_n} == w0 + sum(d)/(N+1)
    for n in (1, 3, 6):
        w0 = rng.normal(0, 1, 20)
        deltas = rng.normal(0, 0.3, (n + 1, 20))
        averaged = dg.average_full_models([pv(w0 + d) for d in deltas])
        expected = w0 + deltas.sum(axis=0) / (n + 1)
        assert np.max(np.abs(averaged.values - expected)) <= EXACT

    # sample-weighted progress is exactly N times the fedavg progress
    for n in (1, 2, 5):
        w = pv(rng.normal(0, 1, 12))
        ups = [
            update(i, np.zeros(12), rng.normal(0, 0.2, 12), k=int(rng.integers(1, 7)))
            for i in range(n)
        ]
        weighted = dg.sample_weighted_integrate(w, ups).values - w.values
        federated = dg.fedavg_integrate(w, ups).values - w.values
        assert np.max(np.abs(weighted - n * federated)) <= EXACT

    # equal bases at full damping factor: integration == base + summed deltas
    passthrough = dg.LambdaSchedule(offset=1.0, slope_divisor=1000.0, cap=1.0)
    w0 = rng.normal(0, 1, 15)
    deltas = rng.normal(0, 0.1, (4, 15))
    local = update(0, w0, deltas[0])
    remote = [update(i, w0, deltas[i]) for i in range(1, 4)]
    merged = dg.delta_sum_integrate(local, remote, passthrough, t=0)
    assert np.max(np.abs(merged.values - (w0 + deltas.sum(axis=0)))) <= EXACT

    # hand-computed case: bases [0],[2], deltas [1],[1], factor 0.25 -> [1.5]
    quarter = dg.LambdaSchedule(offset=0.25, slope_divisor=1000.0, cap=0.25)
    merged = dg.delta_sum_integrate(
        update(0, [0.0], [1.0]), [update(1, [2.0], [1.0])], quarter, t=0
    )
    assert abs(merged.values[0] - 1.5) <= EXACT

    # reference damping constants: 0.15 at t=0, capped 0.35 at t=200
    schedule = dg.LambdaSchedule(offset=0.15, slope_divisor=1000.0, cap=0.35)
    assert abs(dg.lambda_value(schedule, 0) - 0.15) <= EXACT
    assert abs(dg.lambda_value(schedule, 200) - 0.35) <= EXACT

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"equation oracles exact to 1e-12 ({elapsed:.3f}s)")


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    step = 1e-5
    for hidden in (0, 6):
        rng = np.random.default_rng(100 + hidden)
        cfg = ModelConfig(input_dim=5, class_count=3, hidden_dim=hidden, seed=1)
        for _ in range(100):
            w = rng.normal(0, 0.6, len(dg.init_weights(cfg)))
            batch = dg.DatasetShard(rng.uniform(0, 1, (6, 5)), rng.integers(0, 3, 6))
            _, grad = loss_and_gradient(cfg, w, batch)
            numeric = np.zeros(len(w))
            for i in range(len(w)):
                for sign in (1.0, -1.0):
                    shifted = w.copy()
                    shifted[i] += sign * step
                    numeric[i] += sign * loss_and_gradient(cfg, shifted, batch)[0]
            numeric /= 2 * step
            np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-7)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"100 finite-difference draws per model within 1e-4 ({elapsed:.1f}s)")


def test_criterion_3_throughput_analytics():
    start = time.perf_counter()
    baseline = 1.77066
    assert dg.fedavg_rate(5, 20) == 0.21
    assert abs(dg.expected_rate(baseline, 3.3, 3.2) - 1.71700) <= 1e-3
    assert abs(dg.expected_rate(baseline, 3.3, 4.2) - 2.25357) <= 1e-3
    flat = [dg.constant_connectivity_rate(baseline) for _ in (10, 25, 50)]
    assert flat == [baseline] * 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, f"throughput scenario points reproduced ({elapsed:.3f}s)")


# Frozen desk-scale experiment: 10 nodes at the reference connectivity.
CONVERGENCE_TOPOLOGY_SEED = 15
CONVERGENCE_DATASET = dict(classes=3, dim=8, per_class=150, seed=21, noise_sigma=0.12)


def convergence_config(kind):
    graph = generate_semi_random(
        10, TopologyConstraints(target_avg_degree=3.3), seed=CONVERGENCE_TOPOLOGY_SEED
    )
    lam = dg.LambdaSchedule(offset=0.15, slope_divisor=300.0, cap=0.35)
    return dg.SimConfig(
        topology=graph,
        strategy=dg.IntegrationStrategy(kind, lam if kind == "delta_sum" else None),
        schedule=dg.SimSchedule(
            train_epochs=60, integrate_every=10, convergence_until_round=75, batch_size=16
        ),
        model_config=ModelConfig(
            input_dim=8, class_count=3, hidden_dim=8, learning_rate=0.1, seed=2
        ),
        shard_plan=dg.ShardPlan(node_count=10, train_fraction=0.8, seed=9),
    )


def test_criterion_4_convergence_contracts_for_every_strategy(monkeypatch):
    start = time.perf_counter()
    data = dg.synth_classification(**CONVERGENCE_DATASET)

    def spread(states):
        w = np.stack([s.model.weights.values for s in states])
        return float((w.max(axis=0) - w.min(axis=0)).max())

    convergence_round = dg.gossipsim.convergence_round
    for kind in STRATEGY_KINDS:
        spreads = []

        def watch(states, *args):
            if not spreads:  # the models as training left them
                spreads.append(spread(states))
            convergence_round(states, *args)
            spreads.append(spread(states))

        monkeypatch.setattr(dg.gossipsim, "convergence_round", watch)
        dg.run_simulation(convergence_config(kind), data)
        assert len(spreads) == 16  # start of convergence plus 15 rounds
        for before, after in zip(spreads, spreads[1:]):
            assert after <= before + 1e-12, f"{kind}: spread grew {before} -> {after}"
        assert spreads[0] > 0.0
        assert spreads[-1] < 1e-3 * spreads[0], (
            f"{kind}: final spread {spreads[-1]:.3e} vs start {spreads[0]:.3e}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(4, f"weight spread contracts below 1e-3 for all strategies ({elapsed:.1f}s)")


# Frozen scaling experiment: a 10-class task starves per-node shards at 24
# nodes, which is where averaging pays its dilution penalty.
SCALING_DATASET = dict(classes=10, dim=16, per_class=120, noise_sigma=0.12)
SCALING_SEEDS = (1, 2, 3)


def scaling_run(kind, nodes, master_seed):
    data = dg.synth_classification(seed=master_seed, **SCALING_DATASET)
    graph = generate_semi_random(
        nodes, TopologyConstraints(target_avg_degree=3.3), seed=master_seed + 100
    )
    lam = dg.LambdaSchedule(offset=0.15, slope_divisor=300.0, cap=0.35)
    config = dg.SimConfig(
        topology=graph,
        strategy=dg.IntegrationStrategy(kind, lam if kind == "delta_sum" else None),
        schedule=dg.SimSchedule(
            train_epochs=60, integrate_every=10, convergence_until_round=75, batch_size=16
        ),
        model_config=ModelConfig(
            input_dim=16, class_count=10, hidden_dim=0, learning_rate=0.05,
            seed=master_seed + 200,
        ),
        shard_plan=dg.ShardPlan(
            node_count=nodes, train_fraction=0.8, seed=master_seed + 300
        ),
    )
    records = dg.run_simulation(config, data)
    return dg.aggregate_across_nodes(records)[-1].test_acc_median


def test_criterion_5_scaling_trend():
    start = time.perf_counter()
    wins = 0
    ratios = []
    for seed in SCALING_SEEDS:
        averaging = {n: scaling_run("standard_averaging", n, seed) for n in (8, 24)}
        delta_sum = {n: scaling_run("delta_sum", n, seed) for n in (8, 24)}
        drop_avg = averaging[8] - averaging[24]
        drop_ds = delta_sum[8] - delta_sum[24]
        if drop_ds < drop_avg:
            wins += 1
        ratios.append(dg.accuracy_drop_ratio(averaging, delta_sum))
    assert wins >= 2, f"delta_sum dropped less in only {wins}/3 seeds"
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio > 0.0, f"mean accuracy-drop ratio {mean_ratio:.3f} not positive"
    elapsed = time.perf_counter() - start
    assert elapsed < 1200.0
    report(
        5,
        f"delta_sum lost less accuracy 8->24 nodes in {wins}/3 seeds, "
        f"mean drop ratio {mean_ratio:.2f} ({elapsed:.1f}s)",
    )


def test_criterion_6_cli_determinism(tmp_path):
    config = {
        "seed": 1,
        "dataset": {"kind": "synthetic", **CONVERGENCE_DATASET},
        "topologies": [
            {"nodes": 10, "target_avg_degree": 3.3, "seed": CONVERGENCE_TOPOLOGY_SEED}
        ],
        "model": {"hidden_dim": 8, "learning_rate": 0.1, "seed": 2},
        "schedule": {
            "train_epochs": 60,
            "integrate_every": 10,
            "convergence_until_round": 75,
            "batch_size": 16,
        },
        "shards": {"train_fraction": 0.8, "seed": 9},
        "lambda_schedule": {"offset": 0.15, "slope_divisor": 300.0, "cap": 0.35},
        "strategies": list(STRATEGY_KINDS),
    }
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(config_path), "--out", str(out_a),
                     "--threads", "1"]) == 0
    assert cli_main(["run", "--config", str(config_path), "--out", str(out_b),
                     "--threads", "4"]) == 0
    names = sorted(p.name for p in out_a.glob("*.csv"))
    assert len(names) == len(STRATEGY_KINDS)
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    report(6, f"{len(names)} CSVs byte-identical across --threads 1 and 4")


def test_criterion_7_topology_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    generated = 0
    rejected = 0
    for i in range(1000):
        n = 5 + i % 56
        target = float(rng.uniform(0.8, 9.0))
        constraints = TopologyConstraints(target_avg_degree=target)
        try:
            graph = generate_semi_random(n, constraints, seed=int(rng.integers(10**9)))
        except UnsatisfiableConstraintsError:
            # the band truly misses every achievable average degree
            lo, hi = 2.0 * (n - 1) / n, float(min(8, n - 1))
            assert (
                not 1.0 <= target <= 8.0
                or target >= n
                or target + 0.5 < lo
                or target - 0.5 > hi
            ), f"n={n} target={target} was satisfiable"
            rejected += 1
            continue
        except GenerationBudgetError as err:  # pragma: no cover - must not happen
            pytest.fail(f"budget exhausted on satisfiable n={n} target={target}: {err}")
        assert is_connected(graph)
        assert all(1 <= d <= 8 for d in graph.degrees())
        assert abs(graph.avg_degree - target) <= 0.5
        generated += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        7,
        f"{generated} topologies validated, {rejected} correctly rejected "
        f"({elapsed:.1f}s)",
    )


def test_criterion_8_dissemination_dedup():
    start = time.perf_counter()
    rng = np.random.default_rng(888)
    data = dg.synth_classification(2, 2, 60, seed=0)
    schedule = dg.LambdaSchedule(offset=0.15, slope_divisor=1000.0, cap=0.35)
    integrate = dg.gossipsim.integration_step

    checked = 0
    for graph_index in range(120):
        n = int(rng.integers(4, 21))
        graph = generate_semi_random(
            n,
            TopologyConstraints(target_avg_degree=float(min(3.5, n - 1.2))),
            seed=int(rng.integers(10**9)),
        )
        max_hops = int(rng.integers(1, 6))
        kind = STRATEGY_KINDS[graph_index % len(STRATEGY_KINDS)]

        # brute-force oracle: breadth-first distances on the raw adjacency;
        # the graph is undirected, so a node hears from the nodes it reaches
        def reachable(source):
            dist = {source: 0}
            frontier = [source]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in graph.adjacency[u]:
                        if v not in dist:
                            dist[v] = dist[u] + 1
                            nxt.append(v)
                frontier = nxt
            return sorted(v for v, d in dist.items() if 1 <= d <= max_hops)

        # exactly-once at the engine: each node integrates once per round,
        # each sender within max_hops once, in sender order; a duplicated
        # sender or the node's own update is rejected under every strategy
        calls = []

        def spy(strategy, t, local_update, remotes):
            calls.append((local_update.node_id, [u.node_id for u in remotes]))
            for bad in ([*remotes, remotes[0]], [*remotes, local_update]):
                with pytest.raises(ValueError, match="duplicate node ids"):
                    integrate(strategy, t, local_update, bad)
            return integrate(strategy, t, local_update, remotes)

        config = dg.SimConfig(
            topology=graph,
            strategy=dg.IntegrationStrategy(kind, schedule if kind == "delta_sum" else None),
            schedule=dg.SimSchedule(train_epochs=1, integrate_every=1,
                                    convergence_until_round=1, batch_size=4),
            model_config=ModelConfig(input_dim=2, class_count=2, seed=0),
            shard_plan=dg.ShardPlan(node_count=n, seed=0),
            forwarding=Forwarding(mode="multi_hop", max_hops=max_hops),
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dg.gossipsim, "integration_step", spy)
            dg.run_simulation(config, data)
        assert calls == [(node, reachable(node)) for node in range(n)]
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(8, f"every node integrated exactly the reachability oracle's senders on "
              f"{checked} graphs; duplicates rejected ({elapsed:.1f}s)")
