import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from deltagossip import gossipsim
from deltagossip.aggregation import IntegrationStrategy, LambdaSchedule, ModelUpdate
from deltagossip.dataset import DatasetShard, ShardPlan, shard_equal, synth_classification
from deltagossip.gossipsim import (
    Forwarding,
    NodeState,
    SimConfig,
    SimSchedule,
    SimulationError,
    TrainingGroup,
    convergence_round,
    disseminate,
    integration_step,
    run_simulation,
)
from deltagossip.metrics import aggregate_across_nodes, export_csv
from deltagossip.model import ModelConfig, TrainableModel, TrainingError, train_epochs
from deltagossip.params import ParameterVector, make_layout
from deltagossip.topology import TopologyConstraints, TopologyGraph, generate_semi_random

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
    return NodeState(node_id, TrainableModel(cfg), shard, val)


def train_and_package(state, epochs):
    group = TrainingGroup([state])
    for _ in range(epochs):
        group.train_one_epoch(batch_size=8)
    return state.package_update(round_index=1)


def zero_update(node_id, state, round_index=1):
    layout = state.model.weights.layout
    zeros = ParameterVector(np.zeros(len(state.model.weights)), layout)
    return ModelUpdate(node_id, round_index, state.model.weights, zeros, 10)


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

    def test_receive_rejects_duplicate_sender_round(self):
        state = make_state()
        update = zero_update(1, state)
        state.receive(update)
        assert (1, 1) in state.inbox
        with pytest.raises(SimulationError):
            state.receive(update)


class TestNodeTrainPhase:
    def test_update_without_training_has_zero_delta(self):
        state = make_state()
        update = state.package_update(round_index=1)
        assert np.all(update.delta.values == 0.0)
        assert update.sample_count == 0

    def test_base_plus_delta_reproduces_weights_exactly(self):
        state = make_state()
        update = train_and_package(state, 3)
        recomposed = update.base + update.delta
        assert np.array_equal(recomposed.values, state.model.weights.values)

    def test_sample_count_scales_with_epochs(self):
        state = make_state()
        update = train_and_package(state, 4)
        assert update.sample_count == state.train_shard.size * 4

    def test_replay_identical_update(self):
        a = train_and_package(make_state(), 20)
        b = train_and_package(make_state(), 20)
        assert np.array_equal(a.delta.values, b.delta.values)
        assert np.array_equal(a.base.values, b.base.values)


class TestIntegrationStep:
    def test_empty_inbox_averaging_keeps_local_model(self):
        state = make_state()
        update = train_and_package(state, 2)
        before = state.model.weights.values.copy()
        new = integration_step(
            state, IntegrationStrategy("standard_averaging"), t=2, local_update=update
        )
        assert np.array_equal(new.values, before)

    def test_empty_inbox_delta_sum_damps_local_delta(self):
        schedule = LambdaSchedule(offset=0.25, slope_divisor=10**9, cap=0.25)
        state = make_state()
        update = train_and_package(state, 2)
        expected = update.base.values + 0.25 * update.delta.values
        new = integration_step(
            state, IntegrationStrategy("delta_sum", schedule), t=2, local_update=update
        )
        np.testing.assert_allclose(new.values, expected, rtol=0, atol=1e-15)

    def test_remote_identical_to_local_changes_nothing_under_averaging(self):
        state = make_state()
        update = train_and_package(state, 2)
        twin = ModelUpdate(99, 1, update.base, update.delta, update.sample_count)
        state.receive(twin)
        new = integration_step(
            state, IntegrationStrategy("standard_averaging"), t=2, local_update=update
        )
        np.testing.assert_allclose(
            new.values, (update.base + update.delta).values, rtol=0, atol=1e-15
        )

    def test_inbox_cleared_and_snapshot_advanced(self):
        state = make_state()
        update = train_and_package(state, 2)
        state.receive(zero_update(5, state))
        new = integration_step(
            state, IntegrationStrategy("standard_averaging"), t=2, local_update=update
        )
        assert state.inbox == {}
        assert np.array_equal(state.base_snapshot.values, new.values)
        assert state.snapshot_epoch == state.epoch_counter

    def test_fedavg_uses_base_snapshot_and_counts(self):
        state = make_state()
        update = train_and_package(state, 2)
        base = state.base_snapshot
        remote = ModelUpdate(7, 1, update.base, update.delta * 3.0, update.sample_count)
        state.receive(remote)
        new = integration_step(
            state, IntegrationStrategy("fedavg"), t=2, local_update=update
        )
        expected = base.values + (update.delta.values + 3.0 * update.delta.values) / 2.0
        np.testing.assert_allclose(new.values, expected, rtol=0, atol=1e-12)


class TestConvergenceRound:
    @staticmethod
    def states_with_weights(weight_rows, graph, dim=1):
        layout = make_layout([("w", dim)])
        states = []
        shard = tiny_shard(classes=2, dim=dim, per_class=4)
        for i, row in enumerate(weight_rows):
            state = make_state(node_id=i, shard=shard)
            state.model.weights = ParameterVector(np.asarray(row, dtype=float), layout)
            states.append(state)
        return states

    def test_identical_weights_are_a_fixed_point(self):
        graph = ring(4)
        states = self.states_with_weights([[0.5]] * 4, graph)
        convergence_round(states, graph)
        assert all(s.model.weights.values[0] == 0.5 for s in states)

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


def small_sim_config(strategy_kind="delta_sum", seed=5, nodes=4, hidden=0):
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
            input_dim=4, class_count=3, hidden_dim=hidden, learning_rate=0.1, seed=2
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

    def test_metrics_cover_every_node_and_index(self):
        config = small_sim_config()
        records = run_simulation(config, tiny_shard(per_class=40))
        indices = {r.index for r in records}
        assert indices == set(range(1, 15))
        for index in indices:
            nodes = sorted(r.node_id for r in records if r.index == index)
            assert nodes == [0, 1, 2, 3]
        phases = {r.index: r.phase for r in records}
        assert phases[10] == "train" and phases[11] == "convergence"

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
        strategy = IntegrationStrategy("delta_sum", PASSTHROUGH)
        for round_index in range(1, 4):
            for state in states:
                for _ in range(5):
                    TrainingGroup([state]).train_one_epoch(8)
            updates = [s.package_update(round_index) for s in states]
            states[0].receive(updates[1])
            states[1].receive(updates[0])
            for state, update in zip(states, updates):
                integration_step(state, strategy, t=state.epoch_counter, local_update=update)
            assert np.array_equal(
                states[0].model.weights.values, states[1].model.weights.values
            )
            # identical bases at full factor: integration == base + summed deltas
            expected = updates[0].base.values + (
                updates[0].delta.values + updates[1].delta.values
            )
            assert np.array_equal(states[0].model.weights.values, expected)


# CSV sha256 of two 7-node runs whose train shards hold 31 and 30 samples,
# taken from the node-by-node trainer before shard-size groups trained as
# one stacked SGD step: the stacked engine must reproduce its bytes exactly.
GOLDEN_CSV_SHA256 = {
    ("delta_sum", 8): "8a9a44be0eda30bfaf499e6731b5abf421a29ff9fa3cf12a821451e94c1be757",
    ("variance_corrected", 0): "e4e4708914ac55d8b31e90de0ef0f5e6c7126037735d0e69055e1592fb2fb8ca",
}


def golden_data():
    return synth_classification(3, 4, 100, seed=0, noise_sigma=0.12)


class TestGoldenDigest:
    @pytest.mark.parametrize("kind, hidden", sorted(GOLDEN_CSV_SHA256))
    def test_csv_bytes_are_pinned(self, tmp_path, kind, hidden):
        config = small_sim_config(strategy_kind=kind, nodes=7, hidden=hidden)
        data = golden_data()
        per_node, _ = shard_equal(data, config.shard_plan)
        assert sorted({train.size for train, _ in per_node}) == [30, 31]
        path = tmp_path / "run.csv"
        export_csv(aggregate_across_nodes(run_simulation(config, data)), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_CSV_SHA256[(kind, hidden)]


def first_failure_node_by_node(per_node, model_config, epochs, batch_size=8):
    """What the first failure is when each node trains alone, node after node, epoch after epoch."""
    models = [TrainableModel(model_config) for _ in per_node]
    for epoch in range(1, epochs + 1):
        for node, ((train, _), model) in enumerate(zip(per_node, models)):
            try:
                train_epochs([model], train.inputs[None], train.labels[None], 1, batch_size,
                             start_epoch=epoch - 1)
            except TrainingError as err:
                return f"node {node} epoch {epoch}: {err}"
    return None


class TestFailureContext:
    def test_divergence_names_the_node_and_epoch_of_node_by_node_training(self, monkeypatch):
        # One huge input in the train shards of nodes 1 and 3 (same shard
        # size, one training group) overflows their logits at its second
        # visit, in epoch 2. Node 3 meets it at batch 0 of that epoch and
        # node 1 only at batch 2, yet node 1 is the node to name: the engine
        # must report what training node after node would have hit first.
        # No integration precedes the failure (integrate_every is
        # train_epochs), so training alone is the whole oracle.
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
        per_node, _ = gossipsim.shard_equal(data, config.shard_plan)
        order = np.random.default_rng([config.model_config.seed, 1]).permutation(31)
        assert [int(np.flatnonzero(order == hot_rows[n])[0]) // 8 for n in (1, 3)] == [2, 0]

        expected = first_failure_node_by_node(per_node, config.model_config, epochs=6)
        assert expected == "node 1 epoch 2: non-finite loss"

        with pytest.raises(SimulationError) as info:
            run_simulation(config, data)
        assert str(info.value) == expected

    def test_integration_failure_names_node_round_and_strategy(self, monkeypatch):
        integrate = gossipsim.delta_sum_integrate

        def failing(local, remotes, schedule, t):
            if (local.node_id, local.round) == (2, 2):
                raise FloatingPointError("overflow")
            return integrate(local, remotes, schedule, t)

        monkeypatch.setattr(gossipsim, "delta_sum_integrate", failing)
        with pytest.raises(SimulationError) as info:
            run_simulation(small_sim_config("delta_sum"), tiny_shard(per_class=40))
        assert str(info.value) == "node 2 integration round 2 (delta_sum): overflow"
        assert isinstance(info.value.__cause__, FloatingPointError)

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
