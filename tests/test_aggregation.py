import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis import seed as hypothesis_seed

from deltagossip.aggregation import (
    STRATEGY_KINDS,
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
from deltagossip.gossipsim import integration_step
from deltagossip.params import LayoutError, ParameterVector, make_layout

REFERENCE_SCHEDULE = LambdaSchedule(offset=0.15, slope_divisor=1000.0, cap=0.35)


def pv(values, layout=None):
    values = np.asarray(values, dtype=np.float64)
    if layout is None:
        layout = make_layout([("w", values.size)])
    return ParameterVector(values, layout)


def update(node_id, base, delta, k=1):
    base = pv(base)
    return ModelUpdate(node_id, base, pv(delta, base.layout), sample_count=k)


class TestLambdaValue:
    def test_at_zero(self):
        assert lambda_value(REFERENCE_SCHEDULE, 0) == pytest.approx(0.15, abs=1e-15)

    def test_at_two_hundred(self):
        # min(0.15 + 200/1000, 0.35) = 0.35
        assert lambda_value(REFERENCE_SCHEDULE, 200) == pytest.approx(0.35, abs=1e-15)

    def test_cap_clamps_far_out(self):
        assert lambda_value(REFERENCE_SCHEDULE, 10**9) == 0.35

    def test_monotone_and_capped(self):
        values = [lambda_value(REFERENCE_SCHEDULE, t) for t in range(0, 2000, 25)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(v <= REFERENCE_SCHEDULE.cap for v in values)
        assert values[0] == min(REFERENCE_SCHEDULE.offset, REFERENCE_SCHEDULE.cap)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            LambdaSchedule(offset=0.5, slope_divisor=100.0, cap=0.3)  # offset > cap
        with pytest.raises(ValueError):
            LambdaSchedule(offset=0.1, slope_divisor=0.0, cap=0.3)
        with pytest.raises(ValueError):
            LambdaSchedule(offset=0.1, slope_divisor=10.0, cap=1.5)

    @pytest.mark.parametrize("field, value", [
        ("offset", float("nan")),
        ("offset", float("-inf")),
        ("offset", -0.1),
        ("slope_divisor", float("nan")),
    ])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            LambdaSchedule(**{field: value})


class TestAverageFullModels:
    def test_idempotent_on_identical(self):
        v = pv([1.5, -2.0, 3.0])
        out = average_full_models([v, pv(v.values)])
        np.testing.assert_array_equal(out.values, v.values)

    def test_two_scalars(self):
        out = average_full_models([pv([0.0]), pv([2.0])])
        np.testing.assert_array_equal(out.values, [1.0])

    def test_averaging_penalty_two_contributors(self):
        # both nodes advanced by 1 from w0=0; the average keeps only half
        w0 = pv([0.0])
        local, remote = pv(w0.values + 1.0), pv(w0.values + 1.0)
        out = average_full_models([local, remote])
        np.testing.assert_array_equal(out.values, [1.0])  # w0 + (1+1)/2

    def test_progress_divided_by_contributor_count(self):
        # averaging {w0 + d_n} == w0 + sum(d_n)/(N+1), the implicit penalty
        rng = np.random.default_rng(7)
        for n_contributors in (1, 2, 5, 9):
            w0 = rng.normal(0, 1, 12)
            deltas = rng.normal(0, 0.1, (n_contributors + 1, 12))
            models = [pv(w0 + d) for d in deltas]
            expected = w0 + deltas.sum(axis=0) / (n_contributors + 1)
            np.testing.assert_allclose(
                average_full_models(models).values, expected, rtol=0, atol=1e-12
            )

    def test_empty_and_mismatch(self):
        with pytest.raises(ValueError):
            average_full_models([])
        with pytest.raises(LayoutError):
            average_full_models([pv([1.0, 2.0]), pv([1.0, 2.0], make_layout([("x", 2)]))])


class TestVarianceCorrectedAverage:
    def test_identical_inputs_plain_average(self):
        v = pv([1.0, 2.0, 3.0, 4.0])
        out = variance_corrected_average([v, pv(v.values), pv(v.values)])
        np.testing.assert_allclose(out.values, v.values, rtol=0, atol=1e-12)

    def test_single_input_unchanged(self):
        v = pv([0.5, -1.0, 2.5])
        np.testing.assert_allclose(
            variance_corrected_average([v]).values, v.values, rtol=0, atol=1e-12
        )

    def test_degenerate_sigma_branch(self):
        # averages cancel to a constant segment: no rescale applied
        out = variance_corrected_average([pv([-1.0, 1.0]), pv([1.0, -1.0])])
        np.testing.assert_array_equal(out.values, [0.0, 0.0])

    def test_restores_average_spread(self):
        rng = np.random.default_rng(5)
        models = [pv(rng.normal(0, 1, 40)) for _ in range(6)]
        plain = average_full_models(models).values
        corrected = variance_corrected_average(models).values
        target = np.sqrt(np.mean([np.var(m.values) for m in models]))
        assert np.std(corrected) == pytest.approx(target, rel=1e-9)
        assert np.std(plain) < np.std(corrected)

    def test_preserves_segment_means(self):
        rng = np.random.default_rng(6)
        layout = make_layout([("a", 7), ("b", 13)])
        models = [pv(rng.normal(0, 1, 20), layout) for _ in range(4)]
        plain = average_full_models(models)
        corrected = variance_corrected_average(models)
        for seg in layout:
            part = slice(seg.offset, seg.offset + seg.length)
            assert np.mean(corrected.values[part]) == pytest.approx(
                np.mean(plain.values[part]), abs=1e-12
            )


class TestFedavgIntegrate:
    def test_equal_counts(self):
        w = pv([0.0])
        out = fedavg_integrate(w, [update(0, [9.0], [2.0], k=4),
                                   update(1, [9.0], [4.0], k=4)])
        np.testing.assert_array_equal(out.values, [3.0])  # base fields ignored

    def test_weighted_counts(self):
        w = pv([0.0])
        out = fedavg_integrate(w, [update(0, [0.0], [4.0], k=3),
                                   update(1, [0.0], [0.0], k=1)])
        np.testing.assert_array_equal(out.values, [3.0])  # (3*4 + 1*0) / 4

    def test_zero_deltas_identity(self):
        w = pv([1.0, -2.0])
        out = fedavg_integrate(w, [update(0, [0.0, 0.0], [0.0, 0.0], k=5)])
        np.testing.assert_array_equal(out.values, w.values)

    def test_all_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            fedavg_integrate(pv([0.0]), [update(0, [0.0], [1.0], k=0)])

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ValueError):
            fedavg_integrate(
                pv([0.0]),
                [update(3, [0.0], [1.0]), update(3, [0.0], [2.0])],
            )


class TestSampleWeightedIntegrate:
    def test_equal_counts_sums_deltas(self):
        w = pv([0.0])
        out = sample_weighted_integrate(
            w, [update(0, [0.0], [2.0], k=4), update(1, [0.0], [4.0], k=4)]
        )
        np.testing.assert_array_equal(out.values, [6.0])

    def test_single_update_any_count(self):
        w = pv([1.0])
        out = sample_weighted_integrate(w, [update(0, [0.0], [0.25], k=17)])
        np.testing.assert_array_equal(out.values, [1.25])

    def test_weighted_counts(self):
        w = pv([0.0])
        out = sample_weighted_integrate(
            w, [update(0, [0.0], [4.0], k=3), update(1, [0.0], [0.0], k=1)]
        )
        np.testing.assert_array_equal(out.values, [6.0])  # (12 + 0) / 2

    def test_n_times_fedavg_relationship(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 4, 7):
            w = pv(rng.normal(0, 1, 10))
            updates = [
                update(i, np.zeros(10), rng.normal(0, 0.2, 10), k=int(rng.integers(1, 9)))
                for i in range(n)
            ]
            weighted = sample_weighted_integrate(w, updates).values - w.values
            federated = fedavg_integrate(w, updates).values - w.values
            np.testing.assert_allclose(weighted, n * federated, rtol=0, atol=1e-12)


class TestDeltaSumIntegrate:
    def test_no_remotes_full_factor_continues_sgd(self):
        passthrough = LambdaSchedule(offset=1.0, slope_divisor=1000.0, cap=1.0)
        local = update(0, [0.5, -0.25], [0.1, 0.2])
        out = delta_sum_integrate(local, [], passthrough, t=0)
        np.testing.assert_array_equal(out.values, local.base.values + local.delta.values)

    def test_hand_computed_two_nodes(self):
        # bases [0],[2] and deltas [1],[1] at factor 0.25: [1] + 0.25*[2] = [1.5]
        schedule = LambdaSchedule(offset=0.25, slope_divisor=1000.0, cap=0.25)
        local = update(0, [0.0], [1.0])
        remote = [update(1, [2.0], [1.0])]
        out = delta_sum_integrate(local, remote, schedule, t=0)
        np.testing.assert_array_equal(out.values, [1.5])

    def test_identical_bases_zero_deltas_fixed_point(self):
        w = [0.7, -0.3, 1.1]
        local = update(0, w, [0.0, 0.0, 0.0])
        remote = [update(i, w, [0.0, 0.0, 0.0]) for i in (1, 2)]
        out = delta_sum_integrate(local, remote, REFERENCE_SCHEDULE, t=50)
        np.testing.assert_allclose(out.values, w, rtol=0, atol=1e-12)

    def test_equal_bases_full_factor_sums_deltas(self):
        rng = np.random.default_rng(9)
        passthrough = LambdaSchedule(offset=1.0, slope_divisor=1000.0, cap=1.0)
        w0 = rng.normal(0, 1, 8)
        deltas = rng.normal(0, 0.1, (4, 8))
        local = update(0, w0, deltas[0])
        remote = [update(i, w0, deltas[i]) for i in range(1, 4)]
        out = delta_sum_integrate(local, remote, passthrough, t=0)
        np.testing.assert_allclose(
            out.values, w0 + deltas.sum(axis=0), rtol=0, atol=1e-12
        )

    def test_remote_order_does_not_matter(self):
        rng = np.random.default_rng(10)
        local = update(0, rng.normal(0, 1, 6), rng.normal(0, 0.1, 6))
        remote = [
            update(i, rng.normal(0, 1, 6), rng.normal(0, 0.1, 6)) for i in (1, 2, 3)
        ]
        a = delta_sum_integrate(local, remote, REFERENCE_SCHEDULE, t=40)
        b = delta_sum_integrate(local, remote[::-1], REFERENCE_SCHEDULE, t=40)
        assert np.array_equal(a.values, b.values)

    def test_layout_mismatch_rejected(self):
        local = update(0, [0.0], [1.0])
        other = ModelUpdate(
            1, pv([0.0], make_layout([("x", 1)])),
            pv([1.0], make_layout([("x", 1)])), 1
        )
        with pytest.raises(LayoutError):
            delta_sum_integrate(local, [other], REFERENCE_SCHEDULE, t=0)


class TestIntegratePermutationInvariance:
    def test_all_strategies(self):
        rng = np.random.default_rng(12)
        w = pv(rng.normal(0, 1, 9))
        updates = [
            update(i, rng.normal(0, 1, 9), rng.normal(0, 0.1, 9), k=int(rng.integers(1, 5)))
            for i in range(5)
        ]
        shuffled = updates[::-1]
        for fn in (fedavg_integrate, sample_weighted_integrate):
            assert np.array_equal(fn(w, updates).values, fn(w, shuffled).values)
        models = [u.full for u in updates]
        np.testing.assert_allclose(
            average_full_models(models).values,
            average_full_models(models[::-1]).values,
            rtol=0, atol=1e-12,
        )


def test_delta_sums_start_from_positive_zero():
    # Every delta strategy adds its rows onto 0.0, so rows of -0.0 sum to
    # +0.0; a sum seeded with its first row would keep -0.0 and change bits.
    passthrough = LambdaSchedule(offset=1.0, slope_divisor=1000.0, cap=1.0)
    local = update(0, [-0.0], [-0.0])
    merged = [delta_sum_integrate(local, [], passthrough, t=0)]
    merged += [fn(pv([-0.0]), [local]) for fn in (fedavg_integrate, sample_weighted_integrate)]
    for out in merged:
        assert out.values[0] == 0.0 and not np.signbit(out.values[0])


class TestDeltaAlignment:
    def test_fully_aligned(self):
        local = pv([1.0, 2.0])
        assert delta_alignment(local, [pv([0.5, 1.0]), pv([0.5, 1.0])]) == pytest.approx(1.0)

    def test_full_cancellation(self):
        local = pv([1.0, 2.0])
        assert delta_alignment(local, [pv([-1.0, -2.0])]) == pytest.approx(-1.0)

    def test_orthogonal(self):
        assert delta_alignment(pv([1.0, 0.0]), [pv([0.0, 1.0])]) == 0.0

    def test_zero_remote_sum(self):
        assert delta_alignment(pv([1.0, 0.0]), [pv([1.0, 0.0]), pv([-1.0, 0.0])]) == 0.0
        assert delta_alignment(pv([1.0, 0.0]), []) == 0.0

    def test_zero_local_rejected(self):
        with pytest.raises(ValueError):
            delta_alignment(pv([0.0, 0.0]), [pv([1.0, 0.0])])


class TestModelUpdate:
    def test_full_is_base_plus_delta_outside_eq_and_repr(self):
        u = update(3, [0.1, -2.0], [0.7, 1e-17])
        assert np.array_equal(u.full.values, u.base.values + u.delta.values)
        assert u == ModelUpdate(3, u.base, u.delta, u.sample_count)
        assert "full" not in repr(u)

    def test_full_is_built_once_on_first_read(self):
        u = update(3, [0.1, -2.0], [0.7, 1e-17])
        assert "full" not in vars(u)
        assert u.full is u.full

    def test_full_reuses_the_sum_checked_at_construction(self):
        u = update(3, [0.1, -2.0], [0.7, 1e-17])
        assert u.full.values.tobytes() == (u.base.values + u.delta.values).tobytes()

    @pytest.mark.parametrize("field, value", [
        ("sample_count", float("nan")),
        ("sample_count", 2.5),
        ("sample_count", True),
        ("node_id", "a"),
    ])
    def test_integer_fields_checked(self, field, value):
        fields = {"node_id": 0, "base": pv([1.0]), "delta": pv([0.5]), "sample_count": 4}
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            ModelUpdate(**{**fields, field: value})

    @pytest.mark.parametrize("field", ["node_id", "sample_count"])
    def test_negative_integer_fields_named(self, field):
        fields = {"node_id": 0, "base": pv([1.0]), "delta": pv([0.5]), "sample_count": 4}
        with pytest.raises(ValueError, match=f"^{field} must be non-negative, got -1$"):
            ModelUpdate(**{**fields, field: -1})

    def test_layout_mismatch_is_a_layout_error(self):
        with pytest.raises(LayoutError):
            ModelUpdate(0, pv([1.0]), pv([0.5], make_layout([("x", 1)])), sample_count=1)

    def test_non_finite_full_model_rejected_when_built(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
            update(0, [1e308], [1e308])


class TestIntegrationStrategy:
    def test_delta_sum_requires_schedule(self):
        with pytest.raises(ValueError):
            IntegrationStrategy("delta_sum")
        IntegrationStrategy("delta_sum", REFERENCE_SCHEDULE)
        IntegrationStrategy("standard_averaging")

    def test_delta_sum_schedule_must_be_a_lambda_schedule(self):
        with pytest.raises(ValueError, match="delta_sum requires a LambdaSchedule"):
            IntegrationStrategy("delta_sum", schedule={"offset": 0.1})

    @pytest.mark.parametrize("kind", [k for k in STRATEGY_KINDS if k != "delta_sum"])
    def test_other_kinds_take_no_schedule(self, kind):
        assert IntegrationStrategy(kind).schedule is None
        with pytest.raises(ValueError, match=f"{kind} takes no schedule"):
            IntegrationStrategy(kind, REFERENCE_SCHEDULE)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            IntegrationStrategy("median_of_means")


# Property tests: the paper's identities over random layouts, node counts,
# sample counts and lambda schedules. A fixed seed and no example database
# keep every run identical.
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)
layouts = st.lists(st.integers(1, 6), min_size=1, max_size=4).map(
    lambda sizes: make_layout([(f"s{i}", n) for i, n in enumerate(sizes)])
)
lambda_schedules = st.builds(
    lambda cap, share, divisor: LambdaSchedule(offset=cap * share, slope_divisor=divisor,
                                               cap=cap),
    st.floats(0.01, 1.0), st.floats(0.0, 1.0), st.floats(1.0, 5000.0),
)


@st.composite
def update_groups(draw, min_size=1):
    """(w, updates): on one random layout, a base w and min_size..8 updates with distinct ids."""
    layout = draw(layouts)
    size = sum(seg.length for seg in layout)
    count = draw(st.integers(min_size, 8))
    ids = draw(st.lists(st.integers(0, 99), min_size=count, max_size=count, unique=True))
    samples = draw(st.lists(st.integers(0, 500), min_size=count, max_size=count)
                   .filter(lambda ks: sum(ks) > 0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 10.0]))

    def vec(sigma):
        return ParameterVector(rng.normal(0.0, sigma * scale, size), layout)

    updates = [ModelUpdate(i, vec(1.0), vec(0.1), sample_count=k)
               for i, k in zip(ids, samples)]
    return vec(1.0), updates


class TestAggregationProperties:
    @hypothesis_seed(20250101)
    @PROPERTY_SETTINGS
    @given(update_groups(), lambda_schedules, st.integers(0, 10_000))
    def test_delta_sum_is_mean_base_plus_damped_delta_sum(self, group, schedule, t):
        _, updates = group
        local, remotes = updates[0], updates[1:]
        bases = np.array([u.base.values for u in updates])
        deltas = np.array([u.delta.values for u in updates])
        expected = bases.mean(axis=0) + lambda_value(schedule, t) * deltas.sum(axis=0)
        out = delta_sum_integrate(local, remotes, schedule, t)
        np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-12)

    @hypothesis_seed(20250102)
    @PROPERTY_SETTINGS
    @given(update_groups())
    def test_sample_weighted_step_is_update_count_times_fedavg_step(self, group):
        w, updates = group
        fedavg_step = fedavg_integrate(w, updates).values - w.values
        weighted_step = sample_weighted_integrate(w, updates).values - w.values
        np.testing.assert_allclose(weighted_step, len(updates) * fedavg_step,
                                   rtol=1e-9, atol=1e-12)

    @hypothesis_seed(20250103)
    @PROPERTY_SETTINGS
    @given(
        update_groups(min_size=2),
        lambda_schedules,
        st.integers(0, 10_000),
        st.randoms(use_true_random=False),
    )
    def test_every_strategy_is_bitwise_order_independent(self, group, schedule, t, random):
        # The engine path: the node's own update plus its remote updates in
        # arbitrary arrival order.
        _, (local, *remotes) = group
        shuffled = random.sample(remotes, len(remotes))
        for kind in STRATEGY_KINDS:
            strategy = IntegrationStrategy(kind, schedule if kind == "delta_sum" else None)
            results = [
                integration_step(strategy, t, local, arrivals)
                for arrivals in (remotes, shuffled)
            ]
            assert np.array_equal(results[0].values, results[1].values), kind

    @hypothesis_seed(20250105)
    @PROPERTY_SETTINGS
    @given(update_groups(), st.integers(0, 10_000))
    def test_delta_sum_at_one_over_k_is_full_model_averaging(self, group, t):
        # Over k updates delta_sum is the mean full model plus (lambda*k - 1) times
        # the mean delta, so at a constant lambda = 1/k the two rules agree.
        _, updates = group
        k = len(updates)
        schedule = LambdaSchedule(offset=1 / k, slope_divisor=1.0, cap=1 / k)
        out = delta_sum_integrate(updates[0], updates[1:], schedule, t)
        in_sender_order = sorted(updates, key=lambda u: u.node_id)
        expected = average_full_models([u.full for u in in_sender_order])
        np.testing.assert_allclose(out.values, expected.values, rtol=0, atol=1e-12)

    @hypothesis_seed(20250104)
    @PROPERTY_SETTINGS
    @given(update_groups(), st.integers(1, 9))
    def test_averaging_identical_models_returns_that_model(self, group, copies):
        model = group[1][0].full
        for average in (average_full_models, variance_corrected_average):
            out = average([model] * copies)
            np.testing.assert_allclose(out.values, model.values, rtol=1e-12, atol=1e-15)
