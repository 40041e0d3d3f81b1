import ctypes
import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deltagossip import aggregation, gossipsim
from deltagossip.aggregation import (
    STRATEGY_KINDS,
    IntegrationStrategy,
    LambdaSchedule,
    ModelUpdate,
)
from deltagossip.dataset import DatasetShard, ShardPlan, shard_equal, synth_classification
from deltagossip.gossipsim import (
    Forwarding,
    NodeState,
    SimConfig,
    SimSchedule,
    SimulationError,
    convergence_round,
    disseminate,
    integrate_round,
    integration_step,
    package_round,
    run_simulation,
    start_run,
)
from deltagossip.metrics import aggregate_across_nodes, export_csv
from deltagossip.model import ModelConfig, TrainableModel, train_epochs
from deltagossip.params import ParameterVector
from deltagossip.topology import TopologyConstraints, TopologyGraph, generate_semi_random

from reference_engine import reach, run_reference

PASSTHROUGH = LambdaSchedule(offset=1.0, slope_divisor=1000.0, cap=1.0)


def ring(n):
    return TopologyGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return TopologyGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def tiny_shard(seed=0, classes=3, dim=4, per_class=12):
    return synth_classification(classes, dim, per_class, seed=seed, noise_sigma=0.05)


def make_state(node_id=0, seed=3, shard=None):
    shard = shard if shard is not None else tiny_shard()
    cfg = ModelConfig(input_dim=shard.dim, class_count=int(shard.labels.max()) + 1,
                      hidden_dim=0, learning_rate=0.1, seed=seed)
    val = DatasetShard(shard.inputs[:6], shard.labels[:6], origin="local_val")
    model = TrainableModel(cfg)
    return NodeState(node_id, model, model.weights, shard.size, val)


def train(state, epochs, start_epoch=0, shard=None):
    # One single-epoch call per epoch, as run_simulation trains; the
    # shard is make_state's.
    shard = shard if shard is not None else tiny_shard()
    for epoch in range(start_epoch, start_epoch + epochs):
        train_epochs([state.model], shard.inputs[None], shard.labels[None], 1, 8,
                     start_epoch=epoch)


def train_and_package(state, epochs):
    train(state, epochs)
    return state.package_update(epochs=epochs)


def zero_update(node_id, state):
    layout = state.model.weights.layout
    zeros = ParameterVector(np.zeros(len(state.model.weights)), layout)
    return ModelUpdate(node_id, state.model.weights, zeros, 10)


STRATEGIES = [IntegrationStrategy(kind, PASSTHROUGH if kind == "delta_sum" else None)
              for kind in STRATEGY_KINDS]


class TestDisseminate:
    def test_first_hop_on_ring(self):
        delivered = disseminate(ring(4), 0, Forwarding())
        assert delivered == {1, 3}

    def test_multi_hop_ring_dedups_opposite_node(self):
        fwd = Forwarding(mode="multi_hop", max_hops=2)
        delivered = disseminate(ring(4), 0, fwd)
        assert delivered == {1, 2, 3}

    def test_sender_never_delivered_to_itself(self):
        for fwd in (Forwarding(), Forwarding(mode="multi_hop", max_hops=5)):
            delivered = disseminate(complete(6), 2, fwd)
            assert 2 not in delivered

    def test_unknown_sender(self):
        with pytest.raises(ValueError):
            disseminate(ring(4), 9, Forwarding())

    def test_flood_matches_reachability_oracle(self):
        # independent oracle: plain BFS distances on the same adjacency
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(4, 13))
            graph = generate_semi_random(
                n, TopologyConstraints(target_avg_degree=min(3.0, n - 1.2)),
                seed=int(rng.integers(10**6)),
            )
            sender = int(rng.integers(n))
            max_hops = int(rng.integers(1, 5))
            dist = {sender: 0}
            frontier = [sender]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in graph.adjacency[u]:
                        if v not in dist:
                            dist[v] = dist[u] + 1
                            nxt.append(v)
                frontier = nxt
            expected = {v for v, d in dist.items() if 1 <= d <= max_hops}
            fwd = Forwarding(mode="multi_hop", max_hops=max_hops)
            delivered = disseminate(graph, sender, fwd)
            assert delivered == expected

    def test_integrate_round_counts_one_delivery_per_reached_node(self):
        # The graphs of the test above, each at 1-4 hops, against the
        # reference engine's breadth-first reach sets.
        rng = np.random.default_rng(21)
        shard = tiny_shard()
        for _ in range(25):
            n = int(rng.integers(4, 13))
            graph = generate_semi_random(
                n, TopologyConstraints(target_avg_degree=min(3.0, n - 1.2)),
                seed=int(rng.integers(10**6)),
            )
            rng.integers(n), rng.integers(1, 5)  # the sender and hops drawn above
            states = [make_state(node_id=i, shard=shard) for i in range(n)]
            for max_hops in range(1, 5):
                config = SimConfig(
                    topology=graph, strategy=IntegrationStrategy("standard_averaging"),
                    schedule=SimSchedule(1, 1, 1, 8), model_config=states[0].model.config,
                    shard_plan=ShardPlan(n, seed=0), forwarding=Forwarding(max_hops=max_hops),
                )
                updates = package_round(states, 1)
                delivered = integrate_round(states, updates, config, 1, "round")
                assert delivered == sum(len(reach(graph.adjacency, sender, max_hops))
                                        for sender in range(n))


class TestNodeTrainPhase:
    def test_update_without_training_has_zero_delta(self):
        state = make_state()
        update = state.package_update(epochs=0)
        assert np.all(update.delta.values == 0.0)
        assert update.sample_count == 0

    def test_delta_is_trained_weights_minus_base(self):
        state = make_state()
        base = state.base_snapshot
        update = train_and_package(state, 3)
        assert update.base is base
        assert np.array_equal(update.delta.values, state.model.weights.values - base.values)

    def test_sample_count_scales_with_epochs(self):
        state = make_state()
        update = train_and_package(state, 4)
        assert update.sample_count == tiny_shard().size * 4

    def test_packaging_leaves_the_trained_weights_alone(self):
        state = make_state()
        train(state, 3)
        trained = state.model.weights
        state.package_update(epochs=3)
        assert state.model.weights is trained

    def test_replay_identical_update(self):
        a = train_and_package(make_state(), 20)
        b = train_and_package(make_state(), 20)
        assert np.array_equal(a.delta.values, b.delta.values)
        assert np.array_equal(a.base.values, b.base.values)


class TestIntegrationStep:
    def test_empty_inbox_averaging_keeps_local_model(self):
        state = make_state()
        update = train_and_package(state, 2)
        new = integration_step(IntegrationStrategy("standard_averaging"), 2, update, [])
        assert np.array_equal(new.values, update.base.values + update.delta.values)

    def test_empty_inbox_delta_sum_damps_local_delta(self):
        schedule = LambdaSchedule(offset=0.25, slope_divisor=10**9, cap=0.25)
        state = make_state()
        update = train_and_package(state, 2)
        expected = update.base.values + 0.25 * update.delta.values
        new = integration_step(IntegrationStrategy("delta_sum", schedule), 2, update, [])
        np.testing.assert_allclose(new.values, expected, rtol=0, atol=1e-15)

    def test_remote_identical_to_local_changes_nothing_under_averaging(self):
        state = make_state()
        update = train_and_package(state, 2)
        twin = ModelUpdate(99, update.base, update.delta, update.sample_count)
        new = integration_step(IntegrationStrategy("standard_averaging"), 2, update, [twin])
        np.testing.assert_allclose(
            new.values, update.base.values + update.delta.values, rtol=0, atol=1e-15
        )

    def test_fedavg_uses_base_snapshot_and_counts(self):
        state = make_state()
        update = train_and_package(state, 2)
        base = state.base_snapshot
        tripled = update.delta.with_values(update.delta.values * 3.0)
        remote = ModelUpdate(7, update.base, tripled, update.sample_count)
        new = integration_step(IntegrationStrategy("fedavg"), 2, update, [remote])
        expected = base.values + (update.delta.values + 3.0 * update.delta.values) / 2.0
        np.testing.assert_allclose(new.values, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda strategy: strategy.kind)
    def test_duplicate_sender_or_own_update_rejected(self, strategy):
        state = make_state(node_id=2)
        update = train_and_package(state, 2)
        remote = zero_update(5, state)
        for remotes in ([remote, remote], [remote, update], [zero_update(2, state)]):
            with pytest.raises(ValueError, match="duplicate node ids"):
                integration_step(strategy, 2, update, remotes)

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda strategy: strategy.kind)
    def test_each_merge_sorts_its_updates_once(self, strategy, monkeypatch):
        calls = []
        sorted_unique = aggregation._sorted_unique

        def counting(updates):
            calls.append(len(updates))
            return sorted_unique(updates)

        monkeypatch.setattr(aggregation, "_sorted_unique", counting)
        monkeypatch.setattr(gossipsim, "_sorted_unique", counting)
        state = make_state(node_id=2)
        update = train_and_package(state, 2)
        integration_step(strategy, 2, update, [zero_update(7, state), zero_update(5, state)])
        assert calls == [3]

    @pytest.mark.parametrize("name, kind", [("average_full_models", "standard_averaging"),
                                            ("variance_corrected_average", "variance_corrected")])
    def test_averages_receive_the_full_models_in_sender_order(self, name, kind, monkeypatch):
        received = []
        average = getattr(gossipsim, name)

        def capturing(models):
            received.extend(models)
            return average(models)

        monkeypatch.setattr(gossipsim, name, capturing)
        state = make_state(node_id=2)
        update = train_and_package(state, 2)
        remotes = [zero_update(7, state), zero_update(0, state)]
        integration_step(IntegrationStrategy(kind), 2, update, remotes)
        senders = [remotes[1], update, remotes[0]]
        assert len(received) == 3
        assert all(model is sender.full for model, sender in zip(received, senders))


class TestIntegrateRound:
    @staticmethod
    def trained_triangle():
        """Three nodes of distinct seeds, each trained 2 epochs, their updates and a
        standard_averaging config that sends every update to both other nodes."""
        shard = tiny_shard()
        states = [make_state(node_id=i, seed=3 + i, shard=shard) for i in range(3)]
        for state in states:
            train(state, 2)
        config = SimConfig(
            topology=complete(3), strategy=IntegrationStrategy("standard_averaging"),
            schedule=SimSchedule(2, 2, 2, 8), model_config=states[0].model.config,
            shard_plan=ShardPlan(3, seed=0),
        )
        return states, package_round(states, 2), config

    def test_snapshot_advanced_to_merged_weights(self):
        states, updates, config = self.trained_triangle()
        assert integrate_round(states, updates, config, 2, "round") == 6
        for state, update in zip(states, updates):
            remotes = [other for other in updates if other is not update]
            merged = integration_step(config.strategy, 2, update, remotes)
            assert state.model.weights is state.base_snapshot
            assert np.array_equal(state.base_snapshot.values, merged.values)

    def test_a_failed_merge_writes_nothing(self, monkeypatch):
        states, updates, config = self.trained_triangle()
        before = [(state.model.weights, state.base_snapshot) for state in states]
        average = gossipsim.average_full_models
        calls = itertools.count()

        def failing(models):
            if next(calls) == 1:  # node 1's merge
                raise ValueError("parameter values must be finite")
            return average(models)

        monkeypatch.setattr(gossipsim, "average_full_models", failing)
        with pytest.raises(SimulationError, match="^node 1 round: parameter values"):
            integrate_round(states, updates, config, 2, "round")
        assert states[0].model.weights is states[0].base_snapshot is not before[0][1]
        for state, (weights, base) in zip(states[1:], before[1:]):
            assert state.model.weights is weights and state.base_snapshot is base


class TestConvergenceRound:
    @staticmethod
    def states_with_weights(weight_rows, graph, dim=1):
        """One state per row, its weights the row repeated over the model's layout."""
        states = []
        shard = tiny_shard(classes=2, dim=dim, per_class=4)
        for i, row in enumerate(weight_rows):
            state = make_state(node_id=i, shard=shard)
            weights = state.model.weights
            state.model.weights = weights.with_values(
                np.resize(np.asarray(row, dtype=float), len(weights)))
            states.append(state)
        return states

    def test_identical_weights_are_a_fixed_point(self):
        graph = ring(4)
        states = self.states_with_weights([[0.5]] * 4, graph)
        convergence_round(states, graph)
        assert all(s.model.weights.values[0] == 0.5 for s in states)

    def test_an_overflowing_average_is_a_simulation_error_without_a_warning(self):
        # Node 0 averages 1.7e308, 1.6e308 and -1.6e308, and the sum of the
        # first two overflows. Tier-1 turns a RuntimeWarning into an error,
        # so a warning from the average would fail the test first.
        graph = ring(3)
        states = self.states_with_weights([[1.7e308], [1.6e308], [-1.6e308]], graph)
        with pytest.raises(SimulationError) as info:
            convergence_round(states, graph, "convergence round 7 (fedavg)")
        assert str(info.value) == (
            "node 0 convergence round 7 (fedavg): parameter values must be finite")

    def test_two_nodes_meet_in_the_middle(self):
        graph = complete(2)
        states = self.states_with_weights([[0.0], [2.0]], graph)
        convergence_round(states, graph)
        assert [s.model.weights.values[0] for s in states] == [1.0, 1.0]

    def test_spread_contracts_on_random_graphs(self):
        rng = np.random.default_rng(30)
        for _ in range(8):
            n = int(rng.integers(4, 12))
            graph = generate_semi_random(
                n, TopologyConstraints(target_avg_degree=min(3.0, n - 1.2)),
                seed=int(rng.integers(10**6)),
            )
            rows = rng.normal(0, 1, (n, 5))
            states = self.states_with_weights(rows, graph, dim=5)

            def spread(states):
                w = np.stack([s.model.weights.values for s in states])
                return float((w.max(axis=0) - w.min(axis=0)).max())

            previous = spread(states)
            for _ in range(10):
                convergence_round(states, graph)
                current = spread(states)
                assert current <= previous + 1e-12
                previous = current

    def test_mean_conserved_on_regular_graphs(self):
        rng = np.random.default_rng(31)
        for graph in (ring(6), complete(5)):
            n = graph.node_count
            rows = rng.normal(0, 1, (n, 4))
            states = self.states_with_weights(rows, graph, dim=4)
            before = np.stack([s.model.weights.values for s in states]).mean(axis=0)
            for _ in range(5):
                convergence_round(states, graph)
            after = np.stack([s.model.weights.values for s in states]).mean(axis=0)
            np.testing.assert_allclose(after, before, rtol=0, atol=1e-12)


def small_sim_config(strategy_kind="delta_sum", seed=5, nodes=4, hidden=0, classes=3,
                     learning_rate=0.1):
    graph = generate_semi_random(
        nodes, TopologyConstraints(target_avg_degree=2.5), seed=seed
    )
    schedule = (
        LambdaSchedule(offset=0.15, slope_divisor=100.0, cap=0.35)
        if strategy_kind == "delta_sum"
        else None
    )
    return SimConfig(
        topology=graph,
        strategy=IntegrationStrategy(strategy_kind, schedule),
        schedule=SimSchedule(
            train_epochs=10, integrate_every=5, convergence_until_round=14, batch_size=8
        ),
        model_config=ModelConfig(
            input_dim=4, class_count=classes, hidden_dim=hidden,
            learning_rate=learning_rate, seed=2,
        ),
        shard_plan=ShardPlan(node_count=nodes, train_fraction=0.8, seed=9),
    )


class TestRunSimulation:
    def test_single_node_topology_rejected(self):
        single = TopologyGraph(1, ((),))
        with pytest.raises(ValueError, match="at least 2"):
            SimConfig(
                topology=single,
                strategy=IntegrationStrategy("standard_averaging"),
                schedule=SimSchedule(10, 5, 12, 8),
                model_config=ModelConfig(input_dim=4, class_count=3, seed=0),
                shard_plan=ShardPlan(node_count=1, seed=0),
            )

    def test_disconnected_topology_rejected(self):
        config = small_sim_config()
        broken = TopologyGraph.from_edges(4, [(0, 1), (2, 3)])
        config = SimConfig(
            topology=broken,
            strategy=config.strategy,
            schedule=config.schedule,
            model_config=config.model_config,
            shard_plan=config.shard_plan,
        )
        with pytest.raises(ValueError, match="connected"):
            run_simulation(config, tiny_shard(per_class=40))

    @pytest.mark.parametrize("bad, message", [
        ("empty_global_val", "global_val must hold at least one sample"),
        ("global_val_dim", "global_val feature dimension 3 does not match input_dim 4"),
        ("global_val_label", "global_val label 3 is not below class_count 3"),
        ("dataset_label", "dataset label 3 is not below class_count 3"),
        ("dataset_dim", "dataset feature dimension 3 does not match input_dim 4"),
    ])
    def test_bad_data_rejected_before_training(self, bad, message, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained on rejected data")

        monkeypatch.setattr(gossipsim, "train_epochs", no_training)
        data = tiny_shard(per_class=40)
        global_val = DatasetShard(data.inputs[:5], data.labels[:5], origin="global_val")
        if bad == "empty_global_val":
            global_val = DatasetShard(data.inputs[:0], data.labels[:0], origin="global_val")
        elif bad == "global_val_dim":
            global_val = DatasetShard(global_val.inputs[:, :3], global_val.labels)
        elif bad == "global_val_label":
            global_val = DatasetShard(global_val.inputs, global_val.labels + 3)
        elif bad == "dataset_dim":
            data = DatasetShard(data.inputs[:, :3], data.labels)
        else:
            data = DatasetShard(data.inputs, np.where(data.labels == 2, 3, data.labels))
        with pytest.raises(ValueError) as info:
            run_simulation(small_sim_config(), data, global_val=global_val)
        assert str(info.value) == message
        assert not isinstance(info.value, SimulationError)

    def test_metrics_cover_every_node_and_index(self):
        config = small_sim_config()
        records = run_simulation(config, tiny_shard(per_class=40))
        indices = {r.index for r in records}
        assert indices == set(range(1, 15))
        for index in indices:
            nodes = sorted(r.node_id for r in records if r.index == index)
            assert nodes == [0, 1, 2, 3]

    def test_each_phase_is_one_seam_call(self, monkeypatch):
        config = small_sim_config(nodes=7)
        data = golden_data()
        expected = run_simulation(config, data)
        per_node, _ = shard_equal(data, config.shard_plan)
        groups = len({train.size for train, _ in per_node})
        assert groups == 2
        calls = dict.fromkeys(["train_epochs", "package_round", "integrate_round",
                               "convergence_round", "evaluate_population"], 0)

        def counted(name, seam):
            def call(*args, **kwargs):
                calls[name] += 1
                return seam(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(gossipsim, name, counted(name, getattr(gossipsim, name)))
        assert run_simulation(config, data) == expected
        schedule = config.schedule
        assert calls == {
            "train_epochs": groups * schedule.train_epochs,
            "package_round": schedule.train_epochs // schedule.integrate_every,
            "integrate_round": schedule.train_epochs // schedule.integrate_every,
            "convergence_round": schedule.convergence_until_round - schedule.train_epochs,
            "evaluate_population": schedule.convergence_until_round,
        }

    def test_bit_identical_reruns(self):
        config = small_sim_config()
        data = tiny_shard(per_class=40)
        assert run_simulation(config, data) == run_simulation(config, data)

    @pytest.mark.parametrize(
        "kind",
        ["standard_averaging", "variance_corrected", "fedavg", "sample_weighted", "delta_sum"],
    )
    def test_every_strategy_runs_and_learns(self, kind):
        config = small_sim_config(strategy_kind=kind)
        records = run_simulation(config, tiny_shard(per_class=40))
        final = [r.global_acc for r in records if r.index == 14]
        assert min(final) > 1 / 3  # beats random guessing on 3 classes

    def test_symmetric_twins_stay_identical_under_delta_sum(self):
        # two nodes, same shard, same seed: every integration must agree
        shard = tiny_shard(seed=8, per_class=20)
        graph = complete(2)
        states = [make_state(node_id=i, seed=4, shard=shard) for i in range(2)]
        config = SimConfig(
            topology=graph, strategy=IntegrationStrategy("delta_sum", PASSTHROUGH),
            schedule=SimSchedule(15, 5, 15, 8), model_config=states[0].model.config,
            shard_plan=ShardPlan(2, seed=0),
        )
        for round_index in range(1, 4):
            for state in states:
                train(state, 5, start_epoch=5 * (round_index - 1), shard=shard)
            updates = package_round(states, 5)
            integrate_round(states, updates, config, 5 * round_index, "round")
            assert np.array_equal(
                states[0].model.weights.values, states[1].model.weights.values
            )
            # identical bases at full factor: integration == base + summed deltas
            expected = updates[0].base.values + (
                updates[0].delta.values + updates[1].delta.values
            )
            assert np.array_equal(states[0].model.weights.values, expected)


# CSV sha256 of 7-node runs whose train shards hold 31 and 30 samples, keyed
# by (strategy, hidden_dim, class_count, learning_rate). The 3-class digests
# were taken from the node-by-node trainer before shard-size groups trained
# as one stacked SGD step: the stacked engine must reproduce its bytes
# exactly. The 10-class digest was taken from the last-axis log-softmax
# evaluation: evaluation must reproduce it.
# The standard_averaging, fedavg, sample_weighted and two-hop digests were
# taken while each node still collected its deliveries in a mailbox, before
# integration took them as a list: the list engine must reproduce them.
GOLDEN_CSV_SHA256 = {
    ("delta_sum", 8, 3, 0.1): "8a9a44be0eda30bfaf499e6731b5abf421a29ff9fa3cf12a821451e94c1be757",
    ("variance_corrected", 0, 3, 0.1):
        "e4e4708914ac55d8b31e90de0ef0f5e6c7126037735d0e69055e1592fb2fb8ca",
    ("delta_sum", 0, 10, 1.0): "47074c1d38215173cb9972d8e9bf0702357ec707ff7bc7bf2673dba3c0b69971",
    ("standard_averaging", 8, 3, 0.1):
        "6ff349dcb8e5dbb867f1f4e3300279e9203482af6b9e9d69b16b8aaf3c7f0964",
    ("fedavg", 0, 3, 0.1): "1698f1aca7ba844944629d292c0ff4cba2bb67f3789c2e6ab43833cc8a6ae833",
    ("sample_weighted", 8, 3, 0.1):
        "acea210ae51b07fdb5f52050bca71cdf77aa60773bf33a72da5ab21820ba5f6c",
}
# The same runs with every update flooded two hops (multi_hop, max_hops=2).
GOLDEN_TWO_HOP_CSV_SHA256 = {
    ("delta_sum", 8, 3, 0.1): "bcab6531b67727e59daa401c8fe4939b6a445369a1e6aaf4845214736e472fa1",
}
GOLDEN_CASES = ([(case, 1) for case in sorted(GOLDEN_CSV_SHA256)]
                + [(case, 2) for case in sorted(GOLDEN_TWO_HOP_CSV_SHA256)])


def golden_data(classes=3):
    """300 samples in 4 dimensions; 10 clusters need a lower noise to stay apart."""
    noise_sigma = {3: 0.12, 10: 0.05}[classes]
    return synth_classification(classes, 4, 300 // classes, seed=0, noise_sigma=noise_sigma)


def golden_id(case_hops):
    (kind, hidden, classes, _), hops = case_hops
    name = f"{kind}-{hidden}" if classes == 3 else f"{kind}-{hidden}-{classes}classes"
    return name if hops == 1 else f"{name}-{hops}hops"


class TestGoldenDigest:
    @pytest.mark.parametrize("case_hops", GOLDEN_CASES, ids=golden_id)
    def test_csv_bytes_are_pinned(self, tmp_path, case_hops):
        case, hops = case_hops
        kind, hidden, classes, learning_rate = case
        config = small_sim_config(strategy_kind=kind, nodes=7, hidden=hidden, classes=classes,
                                  learning_rate=learning_rate)
        if hops > 1:
            config = dataclasses.replace(config, forwarding=Forwarding("multi_hop", hops))
        data = golden_data(classes)
        per_node, _ = shard_equal(data, config.shard_plan)
        assert sorted({train.size for train, _ in per_node}) == [30, 31]
        path = tmp_path / "run.csv"
        export_csv(aggregate_across_nodes(run_simulation(config, data)), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        golden = GOLDEN_CSV_SHA256 if hops == 1 else GOLDEN_TWO_HOP_CSV_SHA256
        assert digest == golden[case]


def rerun_golden_digests(env, check=""):
    """Run TestGoldenDigest in a fresh interpreter whose environment adds ``env``;
    ``check`` is Python run first, in the child, before the tests."""
    root = Path(__file__).resolve().parent.parent
    script = (
        "import sys, pytest\n"
        f"{check}"
        "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', "
        "'tests/test_gossipsim.py::TestGoldenDigest']))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=root,
                          env=dict(os.environ, **env, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"{len(GOLDEN_CASES)} passed" in done.stdout


OPENBLAS_CORENAME = "scipy_openblas_get_corename64_"


def dynamic_openblas() -> str:
    """The path of NumPy's bundled OpenBLAS; skip unless it picks its kernel at load
    (DYNAMIC_ARCH) and exports the name of the kernel it picked."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip("NumPy's OpenBLAS is not a DYNAMIC_ARCH build")
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        if hasattr(ctypes.CDLL(str(path)), OPENBLAS_CORENAME):
            return str(path)
    pytest.skip(f"NumPy's bundled OpenBLAS exports no {OPENBLAS_CORENAME}")


class TestGoldenDigestAcrossDispatch:
    def test_digests_hold_with_every_dispatch_target_off(self):
        # The CSV bytes are portable across NumPy's SIMD dispatch levels
        # (the weight bits are not): the digests above must hold at the
        # baseline level too. NumPy reads NPY_DISABLE_CPU_FEATURES only at
        # import, so the digests rerun in a fresh interpreter.
        targets = pytest.importorskip("numpy._core._multiarray_umath").__cpu_dispatch__
        if not targets:
            pytest.skip("this NumPy build dispatches to no optional CPU target")
        rerun_golden_digests(
            {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)},
            "from numpy._core._multiarray_umath import __cpu_features__ as on\n"
            f"assert not any(on[t] for t in {list(targets)!r}), on\n",
        )

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_digests_hold_at_each_blas_thread_count(self, threads):
        # Evaluation and training rest on BLAS matmuls; the digests must not
        # depend on how many threads OpenBLAS splits them over. It reads the
        # variable only at load, so the digests rerun in a fresh interpreter.
        rerun_golden_digests({"OPENBLAS_NUM_THREADS": threads})

    @pytest.mark.parametrize("coretype, core", [("Sandybridge", "Sandybridge"),
                                                ("Prescott", "Katmai")],
                             ids=["Sandybridge", "Prescott"])
    def test_digests_hold_on_each_openblas_kernel(self, coretype, core):
        # The weights may differ by a few ulps between OpenBLAS kernels; the
        # CSV bytes must not. OpenBLAS reads OPENBLAS_CORETYPE only at load, so
        # the child first checks which kernel it runs (Prescott loads Katmai's).
        library = dynamic_openblas()
        rerun_golden_digests(
            {"OPENBLAS_CORETYPE": coretype},
            "import ctypes, numpy\n"
            f"corename = ctypes.CDLL({library!r}).{OPENBLAS_CORENAME}\n"
            "corename.restype = ctypes.c_char_p\n"
            f"assert corename() == {core.encode()!r}, corename()\n",
        )


class TestFailureContext:
    def test_divergence_names_the_node_and_epoch_of_node_by_node_training(self, monkeypatch):
        # One huge input in the train shards of nodes 1 and 3 (same shard
        # size, one training group) overflows their logits at its second
        # visit, in epoch 2. Node 3 meets it at batch 0 of that epoch and
        # node 1 only at batch 2, yet node 1 is the node to name: the engine
        # must report what the reference engine, which trains node after
        # node, hits first.
        hot_rows = {1: 19, 3: 3}
        shard_equal_of_run = gossipsim.shard_equal

        def with_hot_rows(*args, **kwargs):
            per_node, gval = shard_equal_of_run(*args, **kwargs)
            for node, row in hot_rows.items():
                train, val = per_node[node]
                inputs = train.inputs.copy()
                inputs[row] *= 3e155
                per_node[node] = (DatasetShard(inputs, train.labels), val)
            return per_node, gval

        monkeypatch.setattr(gossipsim, "shard_equal", with_hot_rows)
        config = dataclasses.replace(
            small_sim_config(strategy_kind="standard_averaging", nodes=7),
            schedule=SimSchedule(train_epochs=6, integrate_every=6,
                                 convergence_until_round=6, batch_size=8),
        )
        data = golden_data()
        per_node, gval = gossipsim.shard_equal(data, config.shard_plan)
        order = np.random.default_rng([config.model_config.seed, 1]).permutation(31)
        assert [int(np.flatnonzero(order == hot_rows[n])[0]) // 8 for n in (1, 3)] == [2, 0]

        with pytest.raises(SimulationError) as reference:
            run_reference(config, per_node, gval)
        expected = str(reference.value)
        assert expected == "node 1 epoch 2: non-finite loss"

        with pytest.raises(SimulationError) as info:
            run_simulation(config, data)
        assert str(info.value) == expected

    def test_integration_failure_names_node_round_and_strategy(self, monkeypatch):
        integrate = gossipsim.delta_sum_integrate

        def failing(local, remotes, schedule, t):
            if (local.node_id, t) == (2, 10):  # round 2 integrates after epoch 10
                raise FloatingPointError("overflow")
            return integrate(local, remotes, schedule, t)

        monkeypatch.setattr(gossipsim, "delta_sum_integrate", failing)
        with pytest.raises(SimulationError) as info:
            run_simulation(small_sim_config("delta_sum"), tiny_shard(per_class=40))
        assert str(info.value) == "node 2 integration round 2 (delta_sum): overflow"
        assert isinstance(info.value.__cause__, FloatingPointError)

    def test_own_update_delivered_back_names_node_round_and_strategy(self, monkeypatch):
        disseminate_of_run = gossipsim.disseminate
        monkeypatch.setattr(gossipsim, "disseminate", lambda graph, sender, forwarding:
                            disseminate_of_run(graph, sender, forwarding) | {sender})
        with pytest.raises(SimulationError) as info:
            run_simulation(small_sim_config("standard_averaging"), tiny_shard(per_class=40))
        assert str(info.value).startswith(
            "node 0 integration round 1 (standard_averaging): duplicate node ids in one "
            "integration: [0, 0,")
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize("kind, learning_rate", [
        ("fedavg", 1e306), ("sample_weighted", 1e306), ("variance_corrected", 1e306),
        ("standard_averaging", 3e307), ("delta_sum", 3e307), ("fedavg", 4.7e307),
    ])
    def test_an_overflowing_merge_is_a_simulation_error_without_a_warning(self, kind,
                                                                           learning_rate):
        # Steps this large train to finite weights whose first merge
        # overflows. Tier-1 turns a RuntimeWarning into an error, so a
        # warning from the merge would end the run before its SimulationError.
        # At 4.7e307 the logits of epoch 1's weights overflow evaluate's
        # shifts before that merge.
        config = SimConfig(
            topology=generate_semi_random(6, TopologyConstraints(target_avg_degree=2.5), seed=5),
            strategy=IntegrationStrategy(kind, LambdaSchedule() if kind == "delta_sum" else None),
            schedule=SimSchedule(train_epochs=4, integrate_every=2, convergence_until_round=5,
                                 batch_size=1),
            model_config=ModelConfig(input_dim=4, class_count=3, learning_rate=learning_rate,
                                     seed=0),
            shard_plan=ShardPlan(node_count=6, seed=2),
        )
        with pytest.raises(SimulationError) as info:
            run_simulation(config, synth_classification(3, 4, 60, seed=3))
        assert str(info.value) == (
            f"node 0 integration round 1 ({kind}): parameter values must be finite")

    def test_convergence_failure_names_node_round_and_strategy(self, monkeypatch):
        # Under delta_sum only convergence rounds average full models; the
        # 4-node run converges over rounds 11-14, so call 6 is node 2 in round 12.
        average = gossipsim.average_full_models
        calls = itertools.count()

        def failing(models):
            if next(calls) == 6:
                raise ValueError("parameter values must be finite")
            return average(models)

        monkeypatch.setattr(gossipsim, "average_full_models", failing)
        with pytest.raises(SimulationError) as info:
            run_simulation(small_sim_config("delta_sum"), tiny_shard(per_class=40))
        assert str(info.value) == (
            "node 2 convergence round 12 (delta_sum): parameter values must be finite"
        )


class TestDeltaSumAtOneOverK:
    """On a d-regular graph with first-hop forwarding every node merges k = d + 1
    updates, and delta_sum at a constant lambda of 1/k is full-model averaging
    (delta_sum_integrate's docstring). Both rules round differently, so the
    records agree through the decision margins, not through equal bits.

    The margin is the smallest top-1 minus top-2 log-prob gap of any sample
    in any evaluation of either run, on the reference engine's weights. At
    (8, 3), (24, 3) and (24, 4) it is 2.7e-7, 2.2e-7 and 2.2e-7; from epoch
    10, the first merge, on it is 2.7e-7, 2.0e-6 and 9.6e-7. The two rules'
    log-probs there differ by at most 1.8e-15, 8.9e-16 and 8.9e-16."""

    @pytest.mark.parametrize("nodes, degree", [(8, 3), (24, 3), (24, 4)])
    def test_records_equal_standard_averaging(self, nodes, degree):
        graph = generate_semi_random(nodes, TopologyConstraints(
            min_degree=degree, max_degree=degree, target_avg_degree=degree), seed=5)
        assert all(len(neighbors) == degree for neighbors in graph.adjacency)
        data = synth_classification(10, 16, 120, seed=1, noise_sigma=0.12)
        one_over_k = 1 / (degree + 1)

        def config(strategy):
            return SimConfig(
                topology=graph, strategy=strategy,
                schedule=SimSchedule(train_epochs=60, integrate_every=10,
                                     convergence_until_round=75, batch_size=16),
                model_config=ModelConfig(input_dim=16, class_count=10, learning_rate=0.05,
                                         seed=201),
                shard_plan=ShardPlan(node_count=nodes, seed=301),
            )

        averaging = config(IntegrationStrategy("standard_averaging"))
        start = start_run(averaging, data)
        expected = run_simulation(averaging, data, start=start)
        ramp = LambdaSchedule(offset=one_over_k, slope_divisor=1.0, cap=one_over_k)
        records = run_simulation(config(IntegrationStrategy("delta_sum", ramp)), data,
                                 start=start)
        assert len(records) == nodes * 75
        assert records == expected


def start_config(kind="delta_sum", max_hops=1, every=4, hidden=0):
    """A 7-node run, two train-shard sizes, 4 epochs and 2 convergence rounds."""
    return dataclasses.replace(
        small_sim_config(kind, nodes=7, hidden=hidden),
        schedule=SimSchedule(train_epochs=4, integrate_every=every, convergence_until_round=6,
                             batch_size=8),
        forwarding=Forwarding(max_hops=max_hops),
    )


def counting(monkeypatch, name):
    """Count the engine's calls of the gossipsim global ``name``; the list of their args."""
    calls = []
    seam = getattr(gossipsim, name)

    def call(*args, **kwargs):
        calls.append((args, kwargs))
        return seam(*args, **kwargs)

    monkeypatch.setattr(gossipsim, name, call)
    return calls


class TestRunStart:
    @pytest.mark.parametrize("hidden", [0, 4])
    @pytest.mark.parametrize("every", [1, 4])
    @pytest.mark.parametrize("max_hops", [1, 2])
    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    def test_one_start_serves_every_strategy_in_either_order(self, kind, max_hops, every,
                                                             hidden):
        # The start is made for ``kind`` at the other forwarding; every run
        # from it has the records of its lone run, whatever ran before it.
        data = tiny_shard(per_class=40)
        configs = [start_config(other, max_hops, every, hidden) for other in STRATEGY_KINDS]
        alone = [run_simulation(config, data) for config in configs]
        start = start_run(start_config(kind, 3 - max_hops, every, hidden), data)
        weights, records = start.weights, start.records
        assert len(records) == 7 * (every - 1)
        for order in (slice(None), slice(None, None, -1)):
            for config, expected in zip(configs[order], alone[order]):
                assert run_simulation(config, data, start=start) == expected
        assert start.weights is weights and start.records is records

    def test_a_start_is_frozen(self):
        start = start_run(start_config("delta_sum"), tiny_shard(per_class=40))
        for name in ("config", "base", "weights", "records"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(start, name, getattr(start, name))
        assert not hasattr(start, "epoch")
        assert all(weights is not start.base for weights in start.weights)

    @pytest.mark.parametrize("every", [1, 2, 4])
    def test_start_run_trains_the_shared_epochs_and_each_run_the_rest(self, monkeypatch,
                                                                      every):
        # Two train-shard sizes: one train_epochs call per group and epoch.
        data = tiny_shard(per_class=40)
        prepared = counting(monkeypatch, "prepare_inputs")
        trained = counting(monkeypatch, "train_epochs")
        start = start_run(start_config("delta_sum", every=every), data)
        assert len(prepared) == 1
        assert [kwargs["start_epoch"] for _, kwargs in trained] == [
            epoch for epoch in range(every - 1) for _ in range(2)]
        for kind in ("standard_averaging", "fedavg"):
            trained.clear()
            run_simulation(start_config(kind, every=every), data, start=start)
            assert len(prepared) == 1
            assert [kwargs["start_epoch"] for _, kwargs in trained] == [
                epoch for epoch in range(every - 1, 4) for _ in range(2)]

    @pytest.mark.parametrize("change, named", [
        ("topology", "topology"), ("schedule", "schedule"), ("model_seed", "model_config"),
        ("shard_plan", "shard_plan"), ("dataset", "dataset"), ("dataset_copy", "dataset"),
        ("global_val", "global_val"), ("global_val_copy", "global_val"),
        ("no_global_val", "global_val")])
    def test_a_start_made_for_another_run_is_a_value_error(self, change, named):
        data, gval = tiny_shard(per_class=40), tiny_shard(seed=3, per_class=4)
        config = start_config("delta_sum")
        other, other_data, other_gval = start_config("fedavg"), data, gval
        if change == "topology":
            other = dataclasses.replace(other, topology=ring(7))
            assert other.topology != config.topology
        elif change == "schedule":
            other = dataclasses.replace(other, schedule=dataclasses.replace(
                other.schedule, batch_size=4))
        elif change == "model_seed":
            other = dataclasses.replace(other, model_config=dataclasses.replace(
                other.model_config, seed=3))
        elif change == "shard_plan":
            other = dataclasses.replace(other, shard_plan=dataclasses.replace(
                other.shard_plan, seed=10))
        elif change == "dataset":
            other_data = tiny_shard(seed=1, per_class=40)
        elif change == "dataset_copy":  # equal values, another object
            other_data = DatasetShard(data.inputs.copy(), data.labels)
        elif change == "global_val":
            other_gval = tiny_shard(seed=4, per_class=4)
        elif change == "global_val_copy":
            other_gval = DatasetShard(gval.inputs.copy(), gval.labels)
        else:
            other_gval = None

        start = start_run(config, data, gval)
        message = f"this start was made for another {named}$"
        with pytest.raises(ValueError, match=message):
            run_simulation(other, other_data, other_gval, start=start)
        assert run_simulation(config, data, gval, start=start) == run_simulation(
            config, data, gval)
        with pytest.raises(ValueError, match=message):
            run_simulation(other, other_data, other_gval, start=start)

    def test_a_failure_before_epoch_i_is_raised_once_by_start_run(self, monkeypatch):
        data = tiny_shard(per_class=40)
        inputs = data.inputs.copy()
        inputs[0] *= 3e155
        hot = DatasetShard(inputs, data.labels)
        with pytest.raises(SimulationError) as alone:
            run_simulation(start_config("delta_sum"), hot)
        assert str(alone.value) == "node 6 epoch 2: non-finite loss"

        prepared = counting(monkeypatch, "prepare_inputs")
        trained = counting(monkeypatch, "train_epochs")
        with pytest.raises(SimulationError) as info:
            start_run(start_config("fedavg"), hot)
        assert str(info.value) == str(alone.value)
        assert len(prepared) == 1
        # Epochs 1 and 2, each group once: both groups train in epoch 2.
        assert [kwargs["start_epoch"] for _, kwargs in trained] == [0, 0, 1, 1]


class TestScheduleValidation:
    def test_integrate_every_must_divide(self):
        with pytest.raises(ValueError):
            SimSchedule(train_epochs=10, integrate_every=3, convergence_until_round=12)

    def test_convergence_not_before_training_ends(self):
        with pytest.raises(ValueError):
            SimSchedule(train_epochs=10, integrate_every=5, convergence_until_round=8)

    def test_defaults_match_reference_protocol(self):
        schedule = SimSchedule()
        assert schedule.train_epochs == 200
        assert schedule.integrate_every == 20
        assert schedule.convergence_until_round == 235

    def test_forwarding_validation(self):
        with pytest.raises(ValueError):
            Forwarding(mode="broadcast")
        with pytest.raises(ValueError):
            Forwarding(mode="multi_hop", max_hops=0)
        with pytest.raises(ValueError, match="multi_hop"):
            Forwarding(mode="first_hop", max_hops=3)

    def test_forwarding_mode_follows_max_hops_when_omitted(self):
        assert Forwarding() == Forwarding("first_hop", 1) == Forwarding(max_hops=1)
        assert Forwarding(max_hops=3) == Forwarding("multi_hop", 3)
        assert hash(Forwarding(max_hops=3)) == hash(Forwarding("multi_hop", 3))
        with pytest.raises(ValueError):
            Forwarding(max_hops=0)
