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

run_simulation calls one module global per phase, looked up at call time:
train_epochs trains a group in place, package_round returns the nodes'
ModelUpdates in node order, integrate_round makes each node's merge from
integration_step its weights and base snapshot and returns the deliveries,
convergence_round averages in place and evaluate_population returns each
model's accuracy on the global set.

Rounds are barriers: all sends are computed from pre-round state, and every
node is at the same epoch or round, so run_simulation's loop counters are
the only record of where a run is. Nodes share ModelConfig.seed, so nodes
with equal train-shard size draw the same batches every epoch; the shards
of each such group are stacked once per run and trained as one stacked SGD
step per batch, bitwise equal to training its nodes one by one. Packaging,
integration and evaluation go one node at a time in ascending node order,
so a run is a bit-reproducible function of its config and data. A failure
in any step is a SimulationError naming the node.

Runs that differ only in strategy and forwarding compute the same epochs
1..integrate_every - 1. Given one RunStart from start_run, the first such
run advances it to the start of epoch integrate_every and the others go on
from there, in the same epoch loop, with the same records.
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
from .topology import TopologyGraph, hop_distances
# bench/spans.py patches is_connected under this name
from .topology import is_connected as validate_topology


class SimulationError(RuntimeError):
    """Simulation aborted; the message carries node/epoch context."""


@dataclass(frozen=True)
class SimSchedule:
    train_epochs: int = 200
    integrate_every: int = 20
    convergence_until_round: int = 235
    batch_size: int = 32

    def __post_init__(self):
        require_ints(1, train_epochs=self.train_epochs, integrate_every=self.integrate_every,
                     convergence_until_round=self.convergence_until_round,
                     batch_size=self.batch_size)
        if self.train_epochs % self.integrate_every != 0:
            raise ValueError("integrate_every must divide train_epochs")
        if self.convergence_until_round < self.train_epochs:
            raise ValueError("convergence_until_round must be >= train_epochs")


@dataclass(frozen=True)
class Forwarding:
    """An update reaches every node within ``max_hops`` of its sender. ``mode`` (first_hop |
    multi_hop) is optional and only checked against max_hops; equality and hash ignore it."""

    mode: str | None = field(default=None, compare=False)
    max_hops: int = 1

    def __post_init__(self):
        if self.mode not in (None, "first_hop", "multi_hop"):
            raise ValueError(f"unknown forwarding mode {self.mode!r}")
        require_ints(1, max_hops=self.max_hops)
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
    """One simulated node: model, train size, local validation set and the snapshot its
    next delta is taken against. Its training rows live in its train-size group's stack."""

    def __init__(self, node_id: int, model: TrainableModel, base_snapshot: ParameterVector,
                 train_size: int, local_val: DatasetShard):
        self.node_id = node_id
        self.model = model
        self.base_snapshot = base_snapshot
        self.train_size = train_size
        self.local_val = local_val

    def package_update(self, epochs: int) -> ModelUpdate:
        """Base snapshot plus what training learned since it was taken.

        ``epochs`` is how many epochs that was; sample_count is train size
        times epochs. The node's weights are left as trained.
        """
        weights, base = self.model.weights, self.base_snapshot
        return ModelUpdate(node_id=self.node_id, base=base,
                           delta=weights.with_values(weights.values - base.values),
                           sample_count=self.train_size * epochs)


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
    strategy: IntegrationStrategy,
    t: int,
    local_update: ModelUpdate,
    remotes: list[ModelUpdate],
) -> ParameterVector:
    """A node's merge of its own update with the remote updates that reached it.

    For delta_sum ``local_update``, the node's package for this round,
    contributes its base and delta alongside the remote updates. The
    averaging baselines average the updates' full models in sender order.
    FedAvg-style strategies apply sample-weighted deltas on top of
    ``local_update``'s base. Each strategy sorts its updates by sender once;
    a remote sender given twice, or the node's own update among the
    remotes, is a ValueError under every strategy. Nothing is written:
    integrate_round stores the result.
    """
    updates = [local_update, *remotes]
    kind = strategy.kind
    if kind == "delta_sum":
        return delta_sum_integrate(local_update, remotes, strategy.schedule, t)
    if kind == "fedavg":
        return fedavg_integrate(local_update.base, updates)
    if kind == "sample_weighted":
        return sample_weighted_integrate(local_update.base, updates)
    if kind == "standard_averaging":
        return average_full_models([u.full for u in _sorted_unique(updates)])
    return variance_corrected_average([u.full for u in _sorted_unique(updates)])


def package_round(states, epochs: int) -> list[ModelUpdate]:
    """Every node's update after ``epochs`` epochs of training, in node order."""
    return [state.package_update(epochs) for state in states]


def integrate_round(states, updates, config: SimConfig, t: int, where: str) -> int:
    """Merge into each node its own update and those disseminate delivers to it, in sender
    order, and make the merge the node's weights and base snapshot; return the delivery
    count. A failed merge is a SimulationError naming ``where`` and writes nothing."""
    delivered = [[] for _ in states]  # filled in sender order
    for state, update in zip(states, updates):
        for target in disseminate(config.topology, state.node_id, config.forwarding):
            delivered[target].append(update)
    # An overflowing merge fails ParameterVector's finite check, a
    # SimulationError naming the node: its warnings would add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for state, update, remotes in zip(states, updates, delivered):
            with _failing_node(state.node_id, where):
                merged = integration_step(config.strategy, t, update, remotes)
            state.model.weights = state.base_snapshot = merged
    return sum(len(remotes) for remotes in delivered)


def convergence_round(states, graph: TopologyGraph, where: str = "convergence") -> None:
    """One synchronous round of plain full-model neighborhood averaging.

    A node whose average fails raises SimulationError("node <id> <where>: ...").
    """
    snapshot = [s.model.weights for s in states]
    with np.errstate(over="ignore", invalid="ignore"):  # as in integrate_round
        for i, state in enumerate(states):
            group = [snapshot[i]] + [snapshot[j] for j in graph.adjacency[i]]
            with _failing_node(state.node_id, where):
                state.model.weights = average_full_models(group)


def evaluate_population(models, dataset: DatasetShard) -> list[float]:
    """Each model's accuracy on ``dataset``, in the order the models are given."""
    return [evaluate(model, dataset) for model in models]


def prepare_inputs(config: SimConfig, dataset: DatasetShard,
                   global_val: DatasetShard | None = None):
    """A run's checked inputs: shard_equal's (per_node, global_val) for the config.

    A disconnected topology, a dataset shard_equal cannot split under the
    shard plan, and a dataset or global_val the model cannot take
    (ModelConfig.require_fit: empty, another feature dimension than
    input_dim, or a label that reaches class_count) is a ValueError.
    """
    if not validate_topology(config.topology):
        raise ValueError("topology must be connected")

    per_node, gval = shard_equal(dataset, config.shard_plan, global_val=global_val)
    for name, shard in (("dataset", dataset), ("global_val", gval)):
        config.model_config.require_fit(shard, name)
    return per_node, gval


@dataclass(eq=False)
class RunStart:
    """Where the runs of one topology start: start_run makes it, run_simulation advances it.

    Until epoch ``integrate_every``, the first integration, nothing a run
    computes depends on its strategy or forwarding. A start holds a run's
    state at the start of ``epoch``: its checked inputs, every node's
    weights and base snapshot, and its records so far. It serves only runs
    of the topology, schedule, model_config and shard_plan it was made for,
    on the same dataset and global_val objects. It shares those inputs and
    the immutable weight vectors, so it is only valid while the dataset and
    global_val are not changed.
    """

    topology: TopologyGraph
    schedule: SimSchedule
    model_config: ModelConfig
    shard_plan: ShardPlan
    dataset: DatasetShard
    global_val: DatasetShard | None
    gval: DatasetShard  # prepare_inputs' global validation set
    nodes: list  # (train size, local_val) per node
    # One (node indices, stacked inputs, stacked labels) per train-shard size.
    groups: list
    weights: list  # (weights, base snapshot) per node
    epoch: int = 1
    records: tuple = ()  # the records of the indices before epoch

    def check(self, config: SimConfig, dataset: DatasetShard,
              global_val: DatasetShard | None) -> None:
        """A ValueError naming what differs unless this start serves ``config`` on
        ``dataset`` and ``global_val``."""
        differ = [name for name in ("topology", "schedule", "model_config", "shard_plan")
                  if getattr(self, name) != getattr(config, name)]
        differ += [name for name, given in (("dataset", dataset), ("global_val", global_val))
                   if getattr(self, name) is not given]
        if differ:
            raise ValueError(f"this start was made for another {', '.join(differ)}")


def start_run(config: SimConfig, dataset: DatasetShard,
              global_val: DatasetShard | None = None) -> RunStart:
    """A run's start at epoch 1: checked inputs, one shared start model.

    Inputs that prepare_inputs rejects are a ValueError. Each train-shard
    size's training rows are stacked once; a node keeps only its train size.
    """
    per_node, gval = prepare_inputs(config, dataset, global_val)
    by_size: dict[int, list[int]] = {}
    for i, (train, _) in enumerate(per_node):
        by_size.setdefault(train.size, []).append(i)
    groups = []
    for rows in by_size.values():
        inputs = np.stack([per_node[i][0].inputs for i in rows])
        labels = np.stack([per_node[i][0].labels for i in rows])
        inputs.setflags(write=False)  # the runs of a start share them
        labels.setflags(write=False)
        groups.append((rows, inputs, labels))
    weights = init_weights(config.model_config)
    return RunStart(config.topology, config.schedule, config.model_config, config.shard_plan,
                    dataset, global_val, gval, [(train.size, lval) for train, lval in per_node],
                    groups, [(weights, weights)] * len(per_node))


def run_simulation(
    config: SimConfig,
    dataset: DatasetShard,
    global_val: DatasetShard | None = None,
    start: RunStart | None = None,
) -> list[MetricsRecord]:
    """Full training + convergence schedule; one record per node per index.

    Indices 1..train_epochs are training epochs; the indices after them up
    to convergence_until_round are convergence rounds. Inputs that
    prepare_inputs rejects, a dataset of the wrong feature dimension among
    them, are a ValueError before training.
    Without a ``start`` the run makes its own with start_run; a given one
    that does not serve this config, dataset and global_val is a ValueError.
    The first run to reach epoch integrate_every advances its start there,
    and every later run of that start goes on from that epoch; the records
    are the same either way.
    """
    if start is None:
        start = start_run(config, dataset, global_val)
    else:
        start.check(config, dataset, global_val)
    schedule = config.schedule
    first_merge = schedule.integrate_every
    gval = start.gval
    states = [NodeState(i, TrainableModel(config.model_config, weights), base, size, lval)
              for i, ((size, lval), (weights, base)) in enumerate(zip(start.nodes, start.weights))]
    groups = [([states[i] for i in rows], inputs, labels)
              for rows, inputs, labels in start.groups]

    kind = config.strategy.kind
    records: list[MetricsRecord] = list(start.records)

    def record_all(index: int) -> None:
        local = [evaluate(state.model, state.local_val) for state in states]
        shared = evaluate_population([state.model for state in states], gval)
        records.extend(MetricsRecord(state.node_id, index, local_acc, global_acc)
                       for state, local_acc, global_acc in zip(states, local, shared))

    for epoch in range(start.epoch, schedule.train_epochs + 1):
        if epoch == first_merge and start.epoch < epoch:
            start.epoch, start.records = epoch, tuple(records)
            start.weights = [(s.model.weights, s.base_snapshot) for s in states]
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
            updates = package_round(states, schedule.integrate_every)
            integrate_round(states, updates, config, epoch,
                            f"integration round {epoch // schedule.integrate_every} ({kind})")
        record_all(epoch)

    for rnd in range(schedule.train_epochs + 1, schedule.convergence_until_round + 1):
        convergence_round(states, config.topology, f"convergence round {rnd} ({kind})")
        record_all(rnd)

    return records
