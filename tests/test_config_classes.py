"""Every frozen config class that deltagossip exports survives dataclasses.replace.

A copy of a config is equal to it, a copy with one valid field changed is the
config built with that field, and a copy with one invalid field raises the
error that the constructor raises for the same arguments.
"""

import dataclasses
import re

import pytest

import deltagossip as dg

PATH_GRAPH = dg.TopologyGraph(3, ((1,), (0, 2), (1,)))
SIM_CONFIG = dict(
    topology=PATH_GRAPH,
    strategy=dg.IntegrationStrategy("fedavg"),
    schedule=dg.SimSchedule(train_epochs=4, integrate_every=2, convergence_until_round=5,
                            batch_size=4),
    model_config=dg.ModelConfig(input_dim=2, class_count=2),
    shard_plan=dg.ShardPlan(node_count=3),
)

# (class, constructor arguments, field, a valid value, an invalid value)
CASES = [
    (dg.SimSchedule, {}, "integrate_every", 40, 7),
    (dg.Forwarding, {}, "max_hops", 2, 0),
    (dg.Forwarding, {"mode": "multi_hop", "max_hops": 2}, "mode", None, "first_hop"),
    (dg.SimConfig, SIM_CONFIG, "shard_plan", dg.ShardPlan(node_count=3, seed=1),
     dg.ShardPlan(node_count=4)),
    (dg.ModelConfig, {"input_dim": 4, "class_count": 3}, "class_count", 5, 1),
    (dg.ShardPlan, {"node_count": 5}, "train_fraction", 0.5, 1.0),
    (dg.TopologyConstraints, {}, "min_degree", 2, 9),
    (dg.LambdaSchedule, {}, "offset", 0.3, float("nan")),
    (dg.IntegrationStrategy, {"kind": "delta_sum", "schedule": dg.LambdaSchedule()},
     "schedule", dg.LambdaSchedule(cap=0.5), None),
]


@pytest.mark.parametrize("cls, kwargs, name, valid, invalid", CASES,
                         ids=[f"{case[0].__name__}.{case[2]}" for case in CASES])
def test_replace_builds_what_the_constructor_builds(cls, kwargs, name, valid, invalid):
    config = cls(**kwargs)
    assert dataclasses.replace(config) == config
    assert dataclasses.replace(config, **{name: valid}) == cls(**{**kwargs, name: valid})
    with pytest.raises(Exception) as direct:
        cls(**{**kwargs, name: invalid})
    with pytest.raises(direct.type, match=f"^{re.escape(str(direct.value))}$"):
        dataclasses.replace(config, **{name: invalid})

