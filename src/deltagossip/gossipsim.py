"""Synchronous round simulation of gossip training over a topology.

Every node trains one epoch per round from an identical starting model. At
each integration point all nodes package a (base, delta) update against
their last snapshot, each update reaches every node within max_hops of its
sender (first_hop is the 1-hop walk), and every node merges its own update
with the list of updates that reached it, in sender order, under the
configured strategy. After training, convergence rounds average full
models with neighbors until the cluster agrees. After every epoch and
every convergence round each node records two accuracies: on its local
validation shard and on the shared global validation set.

Rounds are barriers: all sends are computed from pre-round state, and every
node is at the same epoch or round, so run_simulation's loop counters are
the only record of where a run is. Nodes share ModelConfig.seed, so nodes
with equal train-shard size draw the same batches every epoch; the shards
of each such group are stacked once per run and trained as one stacked SGD
step per batch, bitwise equal to training its nodes one by one. Packaging,
integration and evaluation go one node at a time in ascending node order,
so a run is a bit-reproducible function of its config and data. A failure
in any step is a SimulationError naming the node.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .aggregation import (
    IntegrationStrategy,
    ModelUpdate,
    _sorted_unique,
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
    """One simulated node: model, data and the snapshot its next delta is taken against."""

    def __init__(self, node_id: int, model: TrainableModel,
                 train_shard: DatasetShard, local_val: DatasetShard):
        self.node_id = node_id
        self.model = model
        self.train_shard = train_shard
        self.local_val = local_val
        self.base_snapshot = model.weights

    def package_update(self, epochs: int) -> ModelUpdate:
        """Base snapshot plus what training learned since it was taken.

        ``epochs`` is how many epochs that was; sample_count is train size
        times epochs. The node's weights become the update's full model.
        """
        update = ModelUpdate(
            node_id=self.node_id,
            base=self.base_snapshot,
            delta=self.model.weights - self.base_snapshot,
            sample_count=self.train_shard.size * epochs,
        )
        self.model.weights = update.full
        return update


@contextmanager
def _failing_node(node_id: int, where: str):
    """Re-raise a ValueError or FloatingPointError as a SimulationError naming the node."""
    try:
        yield
    except (ValueError, FloatingPointError) as err:
        raise SimulationError(f"node {node_id} {where}: {err}") from err


def disseminate(graph: TopologyGraph, sender: int, forwarding: Forwarding) -> set[int]:
    """Which nodes the sender's update reaches; never the sender itself.

    The update reaches every node within forwarding.max_hops of the sender,
    once however many paths reach it. first_hop is the 1-hop walk: exactly
    the sender's neighbors.
    """
    return set(hop_distances(graph, sender, forwarding.max_hops)) - {sender}


def integration_step(
    state: NodeState,
    strategy: IntegrationStrategy,
    t: int,
    local_update: ModelUpdate,
    remotes: list[ModelUpdate],
) -> ParameterVector:
    """Merge the node's own update with the remote updates that reached it.

    For delta_sum ``local_update``, the node's package for this round,
    contributes its base and delta alongside the remote updates. The
    averaging baselines average the updates' full models in sender order.
    FedAvg-style strategies apply sample-weighted deltas on top of the
    node's base snapshot. Each strategy sorts its updates by sender once;
    a remote sender given twice, or the node's own update among the
    remotes, is a ValueError under every strategy. Afterwards the merged
    weights become the new base snapshot.
    """
    updates = [local_update, *remotes]
    kind = strategy.kind
    if kind == "delta_sum":
        new_weights = delta_sum_integrate(local_update, remotes, strategy.schedule, t)
    elif kind == "fedavg":
        new_weights = fedavg_integrate(state.base_snapshot, updates)
    elif kind == "sample_weighted":
        new_weights = sample_weighted_integrate(state.base_snapshot, updates)
    elif kind == "standard_averaging":
        new_weights = average_full_models([u.full for u in _sorted_unique(updates)])
    else:
        new_weights = variance_corrected_average([u.full for u in _sorted_unique(updates)])

    state.model.weights = new_weights
    state.base_snapshot = new_weights
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


def prepare_inputs(config: SimConfig, dataset: DatasetShard,
                   global_val: DatasetShard | None = None):
    """A run's checked inputs: shard_equal's (per_node, global_val) for the config.

    A disconnected topology, a dataset shard_equal cannot split under the
    shard plan, an empty global_val, a given global_val whose feature
    dimension is not the model's input_dim, or a label in the dataset or
    global_val that reaches the model's class_count is a ValueError.
    """
    graph = config.topology
    report = validate_topology(
        graph, TopologyConstraints(min_degree=1, max_degree=max(1, graph.node_count - 1))
    )
    if not report.connected:
        raise ValueError("topology must be connected")

    per_node, gval = shard_equal(dataset, config.shard_plan, global_val=global_val)
    if gval.size < 1:
        raise ValueError("global_val must hold at least one sample")
    input_dim = config.model_config.input_dim
    if global_val is not None and gval.dim != input_dim:
        raise ValueError(f"global_val feature dimension {gval.dim} does not match "
                         f"input_dim {input_dim}")
    class_count = config.model_config.class_count
    for name, shard in (("dataset", dataset), ("global_val", gval)):
        if shard.labels.max() >= class_count:
            raise ValueError(f"{name} label {shard.labels.max()} is not below "
                             f"class_count {class_count}")
    return per_node, gval


def run_simulation(
    config: SimConfig,
    dataset: DatasetShard,
    global_val: DatasetShard | None = None,
) -> list[MetricsRecord]:
    """Full training + convergence schedule; one record per node per index.

    Indices 1..train_epochs are training epochs; the indices after them up
    to convergence_until_round are convergence rounds. Inputs that
    prepare_inputs rejects are a ValueError before training; a dataset of
    the wrong dimension fails its first training epoch as a SimulationError.
    """
    graph = config.topology
    per_node, gval = prepare_inputs(config, dataset, global_val)
    start = init_weights(config.model_config)
    states = [
        NodeState(i, TrainableModel(config.model_config, start), train, lval)
        for i, (train, lval) in enumerate(per_node)
    ]

    by_size: dict[int, list[NodeState]] = {}
    for state in states:
        by_size.setdefault(state.train_shard.size, []).append(state)
    # One (members, stacked inputs, stacked labels) per train-shard size.
    groups = [(members, np.stack([s.train_shard.inputs for s in members]),
               np.stack([s.train_shard.labels for s in members]))
              for members in by_size.values()]

    schedule = config.schedule
    kind = config.strategy.kind
    records: list[MetricsRecord] = []

    def record_all(index: int) -> None:
        for state in states:
            local_acc = evaluate(state.model, state.local_val)
            global_acc = evaluate(state.model, gval)
            records.append(MetricsRecord(state.node_id, index, local_acc, global_acc))

    for epoch in range(1, schedule.train_epochs + 1):
        failures = []
        for members, inputs, labels in groups:
            try:
                train_epochs([s.model for s in members], inputs, labels, 1,
                             schedule.batch_size, start_epoch=epoch - 1)
            except TrainingError as err:  # err.row indexes members
                failures.append((members[err.row].node_id, err))
        if failures:
            node_id, err = min(failures, key=lambda failure: failure[0])
            raise SimulationError(f"node {node_id} epoch {epoch}: {err}") from err

        if epoch % schedule.integrate_every == 0:
            updates = [s.package_update(schedule.integrate_every) for s in states]
            delivered = [[] for _ in states]  # filled in sender order
            for state, update in zip(states, updates):
                for target in disseminate(graph, state.node_id, config.forwarding):
                    delivered[target].append(update)
            where = f"integration round {epoch // schedule.integrate_every} ({kind})"
            for state, update, remotes in zip(states, updates, delivered):
                with _failing_node(state.node_id, where):
                    integration_step(state, config.strategy, epoch, update, remotes)

        record_all(epoch)

    for rnd in range(schedule.train_epochs + 1, schedule.convergence_until_round + 1):
        convergence_round(states, graph, f"convergence round {rnd} ({kind})")
        record_all(rnd)

    return records
