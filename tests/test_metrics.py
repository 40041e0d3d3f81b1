import numpy as np
import pytest

from deltagossip.metrics import (
    AggregateRow,
    MetricsRecord,
    accuracy_drop_ratio,
    aggregate_across_nodes,
    export_csv,
    write_atomic,
)


def rec(node_id, index, global_acc):
    return MetricsRecord(
        node_id=node_id,
        index=index,
        local_acc=global_acc,
        global_acc=global_acc,
    )


class TestAggregateAcrossNodes:
    def test_three_values(self):
        rows = aggregate_across_nodes(
            [rec(0, 1, 0.9), rec(1, 1, 0.95), rec(2, 1, 1.0)]
        )
        assert rows == [AggregateRow(1, 0.9, 0.95, 1.0)]

    def test_all_equal(self):
        rows = aggregate_across_nodes([rec(i, 1, 0.97) for i in range(4)])
        assert rows == [AggregateRow(1, 0.97, 0.97, 0.97)]

    def test_even_count_uses_lower_middle_median(self):
        rows = aggregate_across_nodes(
            [rec(0, 5, 0.1), rec(1, 5, 0.2), rec(2, 5, 0.3), rec(3, 5, 0.4)]
        )
        assert rows[0].test_acc_median == pytest.approx(0.2)

    def test_missing_node_rejected(self):
        records = [rec(0, 1, 0.9), rec(1, 1, 0.8), rec(0, 2, 0.95)]
        with pytest.raises(ValueError, match="missing nodes"):
            aggregate_across_nodes(records)

    def test_duplicate_record_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            aggregate_across_nodes([rec(0, 1, 0.9), rec(0, 1, 0.91)])

    def test_node_order_invariant(self):
        records = [rec(0, 1, 0.8), rec(1, 1, 0.9), rec(2, 1, 0.7)]
        assert aggregate_across_nodes(records) == aggregate_across_nodes(records[::-1])

    def test_min_median_max_ordering_holds(self):
        rng = np.random.default_rng(4)
        records = [
            rec(node, index, float(rng.uniform(0, 1)))
            for index in range(6)
            for node in range(5)
        ]
        for row in aggregate_across_nodes(records):
            assert row.test_acc_min <= row.test_acc_median <= row.test_acc_max


class TestExportCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        export_csv([], path)
        assert path.read_text() == "index,test_acc_min,test_acc_median,test_acc_max\n"

    def test_exact_formatting(self, tmp_path):
        path = tmp_path / "out.csv"
        export_csv([AggregateRow(1, 0.9, 0.95, 1.0)], path)
        lines = path.read_text().splitlines()
        assert lines[1] == "1,0.900000,0.950000,1.000000"

    def test_round_trip_within_1e6(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [
            AggregateRow(i, *sorted(rng.uniform(0, 1, 3).tolist())) for i in range(20)
        ]
        path = tmp_path / "out.csv"
        export_csv(rows, path)
        header, *lines = path.read_text().splitlines()
        assert header == "index,test_acc_min,test_acc_median,test_acc_max"
        assert len(lines) == len(rows)
        for original, line in zip(rows, lines):
            index, *accs = line.split(",")
            assert int(index) == original.index
            expected = (original.test_acc_min, original.test_acc_median, original.test_acc_max)
            for text, value in zip(accs, expected, strict=True):
                assert abs(float(text) - value) <= 1e-6

    def test_bit_stable(self, tmp_path):
        rows = [AggregateRow(3, 0.123456789, 0.5, 0.987654321)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(rows, a)
        export_csv(rows, b)
        assert a.read_bytes() == b.read_bytes()

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "out.csv"
        export_csv([AggregateRow(1, 0.1, 0.2, 0.3)], path)
        before = path.read_bytes()
        # the second row cannot be formatted; a failure mid-write is TestWriteAtomic's
        failing = [AggregateRow(1, 0.4, 0.5, 0.6), AggregateRow(2, "x", 0.5, 0.6)]
        with pytest.raises(ValueError):
            export_csv(failing, path)
        assert path.read_bytes() == before
        with pytest.raises(ValueError):
            export_csv(failing, tmp_path / "new.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestWriteAtomic:
    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "out.txt"
        write_atomic(path, "before\r\n")
        # a lone surrogate cannot be encoded: the write fails once the temporary file exists
        with pytest.raises(UnicodeEncodeError):
            write_atomic(path, "after\n" + "\ud800")
        assert path.read_bytes() == b"before\r\n"
        with pytest.raises(UnicodeEncodeError):
            write_atomic(tmp_path / "new.txt", "after\n" + "\ud800")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path):
        taken = tmp_path / "out.txt"
        taken.mkdir()
        with pytest.raises(IsADirectoryError):
            write_atomic(taken, "text\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestAccuracyDropRatio:
    def test_headline_scaling_comparison(self):
        # averaging loses 0.0122 from 10 to 50 nodes, the delta strategy
        # 0.00525; the candidate keeps ~57% of the baseline's loss away
        baseline = {10: 0.9911, 50: 0.9789}
        candidate = {10: 0.9914, 50: 0.98615}
        ratio = accuracy_drop_ratio(baseline, candidate)
        assert ratio == pytest.approx(0.5697, abs=2e-3)

    def test_identical_series_zero(self):
        series = {8: 0.95, 24: 0.91}
        assert accuracy_drop_ratio(series, dict(series)) == 0.0

    def test_candidate_without_drop_scores_one(self):
        assert accuracy_drop_ratio({8: 0.9, 24: 0.8}, {8: 0.9, 24: 0.9}) == 1.0

    def test_zero_baseline_drop_rejected(self):
        with pytest.raises(ValueError):
            accuracy_drop_ratio({8: 0.9, 24: 0.9}, {8: 0.9, 24: 0.85})

    def test_missing_extreme_rejected(self):
        with pytest.raises(ValueError):
            accuracy_drop_ratio({8: 0.9, 24: 0.8}, {8: 0.9})


class TestMetricsRecordValidation:
    def test_accuracy_bounds(self):
        with pytest.raises(ValueError):
            rec(0, 1, 1.5)
