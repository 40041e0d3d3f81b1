"""Synchronous round simulation of gossip training over a topology.

Every node trains one epoch per round from an identical starting model. At
each integration point all nodes package a (base, delta) update against
their last snapshot, each update reaches every node within max_hops of its
sender (first_hop is the 1-hop walk), and every node merges its inbox with
the configured strategy. After training, convergence rounds average full
models with neighbors until the cluster agrees. After every epoch and
every convergence round each node records two accuracies: on its local
validation shard and on the shared global validation set.

Rounds are barriers: all sends are computed from pre-round state. Nodes
share ModelConfig.seed, so nodes with equal train-shard size draw the same
batches every epoch; each such group trains as one stacked SGD step per
batch, bitwise equal to training its nodes one by one. Packaging,
integration and evaluation go one node at a time in ascending node order,
so a run is a bit-reproducible function of its config and data. A failure
in any phase is a SimulationError naming the node.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .aggregation import (
    IntegrationStrategy,
    ModelUpdate,
    average_full_models,
    delta_sum_integrate,
    fedavg_integrate,
    sample_weighted_integrate,
    variance_corrected_average,
)
from .dataset import DatasetShard, ShardPlan, shard_equal
from .metrics import MetricsRecord
from .model import (
    ModelConfig,
    TrainableModel,
    TrainingError,
    evaluate,
    init_weights,
    train_epochs,
)
from .params import ParameterVector, require_ints
from .topology import TopologyConstraints, TopologyGraph, hop_distances
from .topology import validate as validate_topology


class SimulationError(RuntimeError):
    """Simulation aborted; the message carries node/epoch context."""


@dataclass(frozen=True)
class SimSchedule:
    train_epochs: int = 200
    integrate_every: int = 20
    convergence_until_round: int = 235
    batch_size: int = 32

    def __post_init__(self):
        require_ints(train_epochs=self.train_epochs, integrate_every=self.integrate_every,
                     convergence_until_round=self.convergence_until_round,
                     batch_size=self.batch_size)
        if self.train_epochs < 1 or self.integrate_every < 1 or self.batch_size < 1:
            raise ValueError("schedule fields must be positive")
        if self.train_epochs % self.integrate_every != 0:
            raise ValueError("integrate_every must divide train_epochs")
        if self.convergence_until_round < self.train_epochs:
            raise ValueError("convergence_until_round must be >= train_epochs")


@dataclass(frozen=True)
class Forwarding:
    mode: str = "first_hop"  # first_hop | multi_hop
    max_hops: int = 1

    def __post_init__(self):
        if self.mode not in ("first_hop", "multi_hop"):
            raise ValueError(f"unknown forwarding mode {self.mode!r}")
        require_ints(max_hops=self.max_hops)
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        if self.mode == "first_hop" and self.max_hops != 1:
            raise ValueError("first_hop forwarding sends one hop; use multi_hop for max_hops > 1")


@dataclass(frozen=True)
class SimConfig:
    topology: TopologyGraph
    strategy: IntegrationStrategy
    schedule: SimSchedule
    model_config: ModelConfig
    shard_plan: ShardPlan
    forwarding: Forwarding = field(default_factory=Forwarding)

    def __post_init__(self):
        if self.topology.node_count < 2:
            raise ValueError("simulation needs at least 2 nodes")
        if self.shard_plan.node_count != self.topology.node_count:
            raise ValueError("shard plan and topology disagree on node count")


class NodeState:
    """One simulated node: model, data, snapshot, and this round's inbox."""

    def __init__(self, node_id: int, model: TrainableModel,
                 train_shard: DatasetShard, local_val: DatasetShard):
        self.node_id = node_id
        self.model = model
        self.train_shard = train_shard
        self.local_val = local_val
        self.epoch_counter = 0
        self.base_snapshot = model.weights
        self.snapshot_epoch = 0
        self.inbox: dict[tuple[int, int], ModelUpdate] = {}
        self.seen: set[tuple[int, int]] = set()

    def package_update(self, round_index: int) -> ModelUpdate:
        """Base snapshot plus everything learned since it was taken.

        The model is recomposed as base + delta so that receivers
        reconstruct this node's weights bitwise.
        """
        epochs_done = self.epoch_counter - self.snapshot_epoch
        delta = self.model.weights - self.base_snapshot
        self.model.weights = self.base_snapshot + delta
        return ModelUpdate(
            node_id=self.node_id,
            round=round_index,
            base=self.base_snapshot,
            delta=delta,
            sample_count=self.train_shard.size * epochs_done,
        )

    def receive(self, update: ModelUpdate) -> None:
        key = (update.node_id, update.round)
        if key in self.seen:
            raise SimulationError(
                f"node {self.node_id} received duplicate update {key}"
            )
        self.seen.add(key)
        self.inbox[key] = update


class TrainingGroup:
    """Nodes with one train-shard size, in node-id order, and their stacked shards.

    The shards are stacked once, when the group is made; every epoch then
    trains all members with one stacked SGD step per batch.
    """

    def __init__(self, members: list[NodeState]):
        self.members = members
        self.inputs = np.stack([s.train_shard.inputs for s in members])
        self.labels = np.stack([s.train_shard.labels for s in members])

    def train_one_epoch(self, batch_size: int) -> None:
        """Raises TrainingError, whose row indexes ``members``, if a member fails."""
        train_epochs([s.model for s in self.members], self.inputs, self.labels, 1,
                     batch_size, start_epoch=self.members[0].epoch_counter)
        for state in self.members:
            state.epoch_counter += 1


@contextmanager
def _failing_node(node_id: int, where: str):
    """Re-raise a ValueError or FloatingPointError as a SimulationError naming the node."""
    try:
        yield
    except (ValueError, FloatingPointError) as err:
        raise SimulationError(f"node {node_id} {where}: {err}") from err


def disseminate(graph: TopologyGraph, sender: int, forwarding: Forwarding) -> set[int]:
    """Which nodes receive the sender's update; it never delivers to itself.

    The update reaches every node within forwarding.max_hops of the sender,
    each (sender, round) accepted once however many paths reach a node.
    first_hop is the 1-hop walk: exactly the sender's neighbors.
    """
    return set(hop_distances(graph, sender, forwarding.max_hops)) - {sender}


def integration_step(
    state: NodeState,
    strategy: IntegrationStrategy,
    t: int,
    local_update: ModelUpdate,
) -> ParameterVector:
    """Merge the node's inbox with its own update under one strategy.

    For delta_sum ``local_update``, the node's package for this round,
    contributes its base and delta alongside the remote updates. The
    averaging baselines reconstruct full models (base + delta) and average
    those. FedAvg-style strategies apply sample-weighted deltas on top of
    the node's base snapshot. Afterwards the merged weights become the new
    base snapshot and the inbox is cleared.
    """
    remotes = list(state.inbox.values())
    updates = sorted([local_update, *remotes], key=lambda u: u.node_id)

    kind = strategy.kind
    if kind == "delta_sum":
        new_weights = delta_sum_integrate(local_update, remotes, strategy.schedule, t)
    elif kind == "standard_averaging":
        new_weights = average_full_models([u.full_model() for u in updates])
    elif kind == "variance_corrected":
        new_weights = variance_corrected_average([u.full_model() for u in updates])
    elif kind == "fedavg":
        new_weights = fedavg_integrate(state.base_snapshot, updates)
    elif kind == "sample_weighted":
        new_weights = sample_weighted_integrate(state.base_snapshot, updates)
    else:  # pragma: no cover - IntegrationStrategy already validated
        raise ValueError(f"unknown strategy {kind!r}")

    state.model.weights = new_weights
    state.base_snapshot = new_weights
    state.snapshot_epoch = state.epoch_counter
    state.inbox.clear()
    return new_weights


def convergence_round(states, graph: TopologyGraph, where: str = "convergence") -> None:
    """One synchronous round of plain full-model neighborhood averaging.

    A node whose average fails raises SimulationError("node <id> <where>: ...").
    """
    snapshot = [s.model.weights for s in states]
    for i, state in enumerate(states):
        group = [snapshot[i]] + [snapshot[j] for j in graph.adjacency[i]]
        with _failing_node(state.node_id, where):
            state.model.weights = average_full_models(group)


def run_simulation(
    config: SimConfig,
    dataset: DatasetShard,
    global_val: DatasetShard | None = None,
    observer=None,
) -> list[MetricsRecord]:
    """Full training + convergence schedule; one record per node per index.

    ``observer(phase, index, states)``, when given, is called after every
    completed epoch/round.
    """
    graph = config.topology
    report = validate_topology(
        graph, TopologyConstraints(min_degree=1, max_degree=max(1, graph.node_count - 1))
    )
    if not report.connected:
        raise ValueError("topology must be connected")

    per_node, gval = shard_equal(dataset, config.shard_plan, global_val=global_val)
    start = init_weights(config.model_config)
    states = [
        NodeState(i, TrainableModel(config.model_config, start), train, lval)
        for i, (train, lval) in enumerate(per_node)
    ]

    by_size: dict[int, list[NodeState]] = {}
    for state in states:
        by_size.setdefault(state.train_shard.size, []).append(state)
    groups = [TrainingGroup(members) for members in by_size.values()]

    schedule = config.schedule
    kind = config.strategy.kind
    records: list[MetricsRecord] = []

    def record_all(index: int, phase: str) -> None:
        for state in states:
            local_acc = evaluate(state.model, state.local_val)
            global_acc = evaluate(state.model, gval)
            records.append(MetricsRecord(state.node_id, index, local_acc, global_acc, phase))

    for epoch in range(1, schedule.train_epochs + 1):
        failures = []
        for group in groups:
            try:
                group.train_one_epoch(schedule.batch_size)
            except TrainingError as err:
                failures.append((group.members[err.row].node_id, err))
        if failures:
            node_id, err = min(failures, key=lambda failure: failure[0])
            raise SimulationError(f"node {node_id} epoch {epoch}: {err}") from err

        if epoch % schedule.integrate_every == 0:
            round_index = epoch // schedule.integrate_every
            updates = [s.package_update(round_index) for s in states]
            for state, update in zip(states, updates):
                for receiver in sorted(disseminate(graph, state.node_id, config.forwarding)):
                    states[receiver].receive(update)
            where = f"integration round {round_index} ({kind})"
            for state, update in zip(states, updates):
                with _failing_node(state.node_id, where):
                    integration_step(
                        state, config.strategy, t=state.epoch_counter, local_update=update
                    )

        record_all(epoch, "train")
        if observer is not None:
            observer("train", epoch, states)

    for rnd in range(schedule.train_epochs + 1, schedule.convergence_until_round + 1):
        convergence_round(states, graph, f"convergence round {rnd} ({kind})")
        record_all(rnd, "convergence")
        if observer is not None:
            observer("convergence", rnd, states)

    return records
