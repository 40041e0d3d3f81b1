"""Deterministic desk-scale gossip learning toolkit.

Simulates peer-to-peer model training over constrained random topologies
and compares integration strategies: full-model averaging, variance
corrected averaging, FedAvg-style weighted deltas, and delta-sum
integration with a time-ramped gossip factor.
"""

from .aggregation import (
    IntegrationStrategy,
    LambdaSchedule,
    ModelUpdate,
    average_full_models,
    delta_alignment,
    delta_sum_integrate,
    fedavg_integrate,
    lambda_value,
    sample_weighted_integrate,
    variance_corrected_average,
)
from .dataset import DatasetShard, ShardPlan, load_idx, shard_equal, synth_classification
from .gossipsim import (
    Forwarding,
    NodeState,
    RunStart,
    SimConfig,
    SimSchedule,
    convergence_round,
    disseminate,
    integration_step,
    run_simulation,
    start_run,
)
from .metrics import (
    AggregateRow,
    MetricsRecord,
    accuracy_drop_ratio,
    aggregate_across_nodes,
    export_csv,
)
from .model import (
    ModelConfig,
    TrainableModel,
    centralized_reference_train,
    evaluate,
    init_weights,
    sgd_batch_step,
    train_epochs,
)
from .netmodel import (
    connectivity_increase_rate,
    constant_connectivity_rate,
    expected_rate,
    fedavg_rate,
    scenario_table,
)
from .params import LayoutError, ParameterVector, Segment, make_layout
from .topology import (
    TopologyConstraints,
    TopologyGraph,
    generate_semi_random,
    is_connected,
    read_edge_list,
    stats,
    write_edge_list,
)

__version__ = "0.1.0"
