import math

import pytest

from deltagossip.netmodel import (
    connectivity_increase_rate,
    constant_connectivity_rate,
    expected_rate,
    fedavg_rate,
    scenario_table,
)

# Measured 10-node reference point the other series extrapolate from.
BASELINE = 1.77065882205598
REF_CONN = 3.3


class TestFedavgRate:
    def test_five_second_updates_sync_every_twenty(self):
        assert fedavg_rate(5, 20) == 0.21

    def test_sync_term_vanishes_for_huge_interval(self):
        assert fedavg_rate(1, 1e12) == pytest.approx(1.0, abs=1e-9)

    def test_ten_second_updates(self):
        assert fedavg_rate(10, 20) == pytest.approx(0.105, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fedavg_rate(0, 20)
        with pytest.raises(ValueError):
            fedavg_rate(5, -1)


class TestExpectedRate:
    def test_25_node_point(self):
        assert expected_rate(BASELINE, REF_CONN, 3.2) == pytest.approx(
            1.71700249411489, abs=1e-9
        )

    def test_50_node_point(self):
        assert expected_rate(BASELINE, REF_CONN, 4.2) == pytest.approx(
            2.25356577352579, abs=1e-9
        )

    def test_reference_connectivity_identity(self):
        assert expected_rate(BASELINE, REF_CONN, REF_CONN) == BASELINE


class TestConstantConnectivityRate:
    def test_flat_at_baseline(self):
        assert constant_connectivity_rate(BASELINE) == BASELINE
        assert constant_connectivity_rate(1.0) == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            constant_connectivity_rate(0.0)


class TestConnectivityIncreaseRate:
    def test_linear_density_25_nodes(self):
        assert connectivity_increase_rate(BASELINE, 10, 25) == pytest.approx(
            4.42664705513994, abs=1e-9
        )

    def test_reference_point_identity(self):
        assert connectivity_increase_rate(BASELINE, 10, 10) == BASELINE

    def test_linear_density_50_nodes(self):
        # linear density extrapolation: 5x the baseline
        assert connectivity_increase_rate(BASELINE, 10, 50) == pytest.approx(
            5 * BASELINE, abs=1e-9
        )

    def test_exponent_knob(self):
        quadratic = connectivity_increase_rate(1.0, 10, 20, density_exponent=2.0)
        assert quadratic == pytest.approx(4.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            connectivity_increase_rate(BASELINE, 10, 5)
        with pytest.raises(ValueError):
            connectivity_increase_rate(BASELINE, 10, 20, density_exponent=-1)


class TestMonotonicity:
    def test_rates_monotone_in_scaling_argument(self):
        conns = [1.0, 2.0, 3.3, 5.0, 8.0]
        expected = [expected_rate(BASELINE, REF_CONN, c) for c in conns]
        assert expected == sorted(expected)
        ns = [10, 20, 40, 80]
        growth = [connectivity_increase_rate(BASELINE, 10, n) for n in ns]
        assert growth == sorted(growth)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
class TestNonFiniteRejected:
    def test_fedavg_rate(self, bad):
        with pytest.raises(ValueError, match="update_interval_s must be positive and finite"):
            fedavg_rate(bad, 20)
        with pytest.raises(ValueError, match="sync_every_updates must be positive and finite"):
            fedavg_rate(5, bad)

    def test_expected_rate(self, bad):
        for args, name in (((bad, REF_CONN, 3.2), "baseline"),
                           ((BASELINE, bad, 3.2), "ref_conn"),
                           ((BASELINE, REF_CONN, bad), "conn_at_n")):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                expected_rate(*args)

    def test_constant_connectivity_rate(self, bad):
        with pytest.raises(ValueError, match="baseline must be positive and finite"):
            constant_connectivity_rate(bad)

    def test_connectivity_increase_rate(self, bad):
        with pytest.raises(ValueError, match="baseline must be positive and finite"):
            connectivity_increase_rate(bad, 10, 25)
        with pytest.raises(ValueError, match="n must be positive and finite"):
            connectivity_increase_rate(BASELINE, 10, bad)
        with pytest.raises(ValueError, match="density_exponent must be non-negative and finite"):
            connectivity_increase_rate(BASELINE, 10, 25, density_exponent=bad)

    def test_scenario_table(self, bad):
        with pytest.raises(ValueError, match="baseline must be positive and finite"):
            scenario_table(bad, 10, REF_CONN, [10], [3.3])


class TestScenarioTable:
    def test_grid_shape_and_series(self):
        rows = scenario_table(
            baseline=BASELINE,
            ref_n=10,
            ref_conn=REF_CONN,
            node_counts=[10, 25, 50],
            conns=[3.3, 3.2, 4.2],
        )
        assert [row["n"] for row in rows] == [10, 25, 50]
        assert all(row["constant_connectivity"] == BASELINE for row in rows)
        assert all(row["fedavg"] == 0.21 for row in rows)
        assert rows[1]["expected"] == pytest.approx(1.71700249411489, abs=1e-9)
        assert rows[2]["connectivity_increase"] == pytest.approx(5 * BASELINE, abs=1e-9)

    def test_mismatched_grid_rejected(self):
        with pytest.raises(ValueError):
            scenario_table(1.0, 10, 3.3, [10, 25], [3.3])

