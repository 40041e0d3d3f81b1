import dataclasses

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from hypothesis import seed as hypothesis_seed

from deltagossip import gossipsim, model
from deltagossip.aggregation import STRATEGY_KINDS, IntegrationStrategy, LambdaSchedule
from deltagossip.dataset import ShardPlan, shard_equal, synth_classification
from deltagossip.gossipsim import Forwarding, SimConfig, SimSchedule, run_simulation
from deltagossip.model import ModelConfig
from deltagossip.topology import GenerationBudgetError, TopologyConstraints, generate_semi_random

from reference_engine import run_reference

seeds = st.integers(0, 2**32 - 1)


@st.composite
def topologies(draw):
    n = draw(st.integers(2, 12))
    if n == 2:
        constraints = TopologyConstraints(min_degree=1, max_degree=1, target_avg_degree=1.0)
    else:
        max_degree = draw(st.integers(2, min(n - 1, 6)))
        lo, hi = 2.0 * (n - 1) / n, float(max_degree)
        target = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
        constraints = TopologyConstraints(max_degree=max_degree, target_avg_degree=target)
    try:
        return generate_semi_random(n, constraints, draw(seeds))
    except GenerationBudgetError:
        reject()


@st.composite
def strategies(draw):
    kind = draw(st.sampled_from(STRATEGY_KINDS))
    if kind != "delta_sum":
        return IntegrationStrategy(kind)
    offset = draw(st.sampled_from([0.0, 0.15, 0.5]))
    ramp = LambdaSchedule(offset=offset, slope_divisor=draw(st.sampled_from([1.0, 7.0, 1000.0])),
                          cap=draw(st.sampled_from([c for c in (0.35, 0.6, 1.0) if c >= offset])))
    return IntegrationStrategy(kind, ramp)


@st.composite
def runs(draw):
    """(config, dataset, global_val or None) over every strategy, forwarding and model shape."""
    graph = draw(topologies())
    n = graph.node_count
    k = draw(st.integers(2, 10))
    d = draw(st.integers(3, 8) | (st.just(1) if k == 2 else st.nothing()))
    # synth_classification must place k means 4 sigma apart in [0.15, 0.85]^d.
    sigma = 0.02 if d < 3 or k > 4 else 0.08
    # Each node's chunk needs 3 samples for a train and a validation split.
    per_class = draw(st.integers(4 * n // k + 2, 4 * n // k + 8))
    data = synth_classification(k, d, per_class, seed=draw(seeds), noise_sigma=sigma)
    global_val = draw(st.none() | st.builds(synth_classification, st.just(k), st.just(d),
                                            st.integers(1, 6), seeds, st.just(sigma)))
    every = draw(st.integers(1, 3))
    epochs = every * draw(st.integers(1, 3))
    schedule = SimSchedule(train_epochs=epochs, integrate_every=every,
                           convergence_until_round=epochs + draw(st.integers(0, 3)),
                           batch_size=draw(st.integers(1, 8)))
    max_hops = draw(st.integers(1, 3))
    forwarding = draw(st.sampled_from(
        [Forwarding("first_hop"), Forwarding("multi_hop", 1), Forwarding(max_hops=1)]
        if max_hops == 1 else [Forwarding("multi_hop", max_hops), Forwarding(max_hops=max_hops)]))
    model = ModelConfig(input_dim=d, class_count=k, hidden_dim=draw(st.sampled_from([0, 1, 3, 8])),
                        learning_rate=draw(st.sampled_from([0.02, 0.1, 0.4, 1.0])),
                        seed=draw(seeds))
    config = SimConfig(topology=graph, strategy=draw(strategies()), schedule=schedule,
                       model_config=model, shard_plan=ShardPlan(n, seed=draw(seeds)),
                       forwarding=forwarding)
    return config, data, global_val


class TestReferenceEngine:
    @hypothesis_seed(20261019)
    @settings(max_examples=100, deadline=None, database=None)
    @given(runs())
    def test_records_and_evaluated_weights_bitwise_equal_the_reference(self, run):
        config, data, global_val = run
        records, evaluated = logged_run(config, data, global_val)
        per_node, gval = shard_equal(data, config.shard_plan, global_val=global_val)
        expected_records, expected_evaluated = run_reference(config, per_node, gval)
        assert len(evaluated) == 2 * len(records)
        assert records == expected_records
        assert evaluated == expected_evaluated

    @hypothesis_seed(20261020)
    @settings(max_examples=40, deadline=None, database=None)
    @given(runs(), strategies(), st.integers(1, 3))
    def test_a_run_from_a_start_another_strategy_advanced_equals_the_reference(
            self, run, filler, filler_hops):
        # The advancing run differs in strategy and forwarding only; the run
        # after it evaluates from epoch integrate_every on.
        config, data, global_val = run
        advancing = dataclasses.replace(config, strategy=filler,
                                        forwarding=Forwarding(max_hops=filler_hops))
        start = gossipsim.start_run(advancing, data, global_val)
        run_simulation(advancing, data, global_val, start=start)
        records, evaluated = logged_run(config, data, global_val, start)
        per_node, gval = shard_equal(data, config.shard_plan, global_val=global_val)
        expected_records, expected_evaluated = run_reference(config, per_node, gval)
        skipped = 2 * len(per_node) * (config.schedule.integrate_every - 1)
        assert records == expected_records
        assert evaluated == expected_evaluated[skipped:]

    def test_a_one_ulp_change_in_the_training_kernel_is_seen(self, monkeypatch):
        # The reference trains through its own allocating step, so a kernel
        # that moves each gradient's first entry up one ulp is not its own.
        kernel = model._loss_and_gradient

        def nudged(config, w, x, y, out):
            loss = kernel(config, w, x, y, out)
            np.nextafter(out[..., 0], np.inf, out=out[..., 0])
            return loss

        config = SimConfig(
            topology=generate_semi_random(6, TopologyConstraints(target_avg_degree=2.5), seed=5),
            strategy=IntegrationStrategy("standard_averaging"),
            schedule=SimSchedule(train_epochs=4, integrate_every=2, convergence_until_round=5,
                                 batch_size=4),
            model_config=ModelConfig(input_dim=4, class_count=3, hidden_dim=3,
                                     learning_rate=0.1, seed=0),
            shard_plan=ShardPlan(node_count=6, seed=2),
        )
        data = synth_classification(3, 4, 20, seed=3)
        per_node, gval = shard_equal(data, config.shard_plan)
        _, plain = logged_run(config, data, None)
        assert plain == run_reference(config, per_node, gval)[1]
        monkeypatch.setattr(model, "_loss_and_gradient", nudged)
        _, evaluated = logged_run(config, data, None)
        assert evaluated != plain
        assert evaluated != run_reference(config, per_node, gval)[1]


def logged_run(config, data, global_val, start=None):
    """run_simulation's records and the weight bytes each of its evaluations sees.

    Accuracy is too coarse to show a changed summation order, so the
    weight bytes every evaluation sees are compared as well. The spy sits
    on the seams: each local-val evaluate call, and the models handed to
    each evaluate_population call, whatever its body calls (evaluate is
    left unlogged inside it).
    """
    evaluated = []
    evaluate, evaluate_population = gossipsim.evaluate, gossipsim.evaluate_population

    def logged(model, dataset):
        evaluated.append(model.weights.values.tobytes())
        return evaluate(model, dataset)

    def logged_population(models, dataset):
        evaluated.extend(model.weights.values.tobytes() for model in models)
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(gossipsim, "evaluate", evaluate)
            return evaluate_population(models, dataset)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gossipsim, "evaluate", logged)
        patch.setattr(gossipsim, "evaluate_population", logged_population)
        records = run_simulation(config, data, global_val, start=start)
    return records, evaluated
