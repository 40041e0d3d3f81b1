"""Tests for the benchmark's own logic: spans, checks and accounting.

    python3 -m pytest bench/tests -q
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    """A clock that only moves when the test says so; shared by all threads."""

    def __init__(self):
        self.now = 0.0
        self.lock = threading.Lock()

    def __call__(self):
        return self.now

    def advance(self, seconds):
        with self.lock:
            self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    rec = spans.Recorder(clock)
    leaf = rec.timed("leaf", lambda: clock.advance(1.0))

    def middle_body():
        clock.advance(2.0)
        leaf()
        leaf()

    middle = rec.timed("middle", middle_body)

    def outer_body():
        clock.advance(0.5)
        middle()
        clock.advance(0.25)

    rec.timed("outer", outer_body)()
    totals = rec.totals()
    assert totals["leaf"] == spans.SpanTotal(2, 2.0, 2.0)
    assert totals["middle"] == spans.SpanTotal(1, 4.0, 2.0)
    assert totals["outer"] == spans.SpanTotal(1, 4.75, 0.75)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def fails():
        clock.advance(3.0)
        raise ValueError("boom")

    inner = rec.timed("inner", fails)

    def outer_body():
        with pytest.raises(ValueError):
            inner()
        clock.advance(1.0)

    rec.timed("outer", outer_body)()
    totals = rec.totals()
    assert totals["inner"].total_s == 3.0
    assert totals["outer"] == spans.SpanTotal(1, 4.0, 1.0)


def test_pool_work_is_rooted_in_worker_threads(tmp_path):
    clock = FakeClock()
    rec = spans.Recorder(clock)
    work = rec.timed("work", lambda: clock.advance(4.0),
                     count=lambda args, kwargs, result: {"jobs": 1})

    def engine_body():
        clock.advance(1.0)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(work) for _ in range(2)]
            for future in futures:
                future.result(timeout=10)
        clock.advance(1.0)

    rec.timed("engine", engine_body)()
    totals = rec.totals()
    # The engine waited on the pool: its children ran in other threads.
    assert totals["engine"] == spans.SpanTotal(1, 10.0, 10.0)
    assert totals["work"] == spans.SpanTotal(2, 8.0, 8.0)
    assert rec.counts()["jobs"] == 2

    log = tmp_path / "spans.csv"
    rec.write_spans(log)
    rows = [line.split(",") for line in log.read_text().splitlines()[1:]]
    assert [(r[3], r[2]) for r in rows if r[3] == "work"] == [("work", ""), ("work", "")]
    assert len({r[0] for r in rows}) >= 2


def test_counted_wrapper_and_traced_passthrough():
    rec = spans.Recorder()
    double = rec.counted(lambda x: 2 * x, lambda args, kwargs, result: {"in": args[0],
                                                                          "out": result})
    assert double(3) == 6 and double(4) == 8
    assert rec.counts() == {"in": 7, "out": 14}
    assert rec.totals() == {}

    def fn():
        return 1

    assert spans.traced(None, "x", fn) is fn


def test_instrument_restores_and_counts_a_small_simulation():
    import deltagossip as dg
    from deltagossip import cli, gossipsim, model, params

    before = (gossipsim.evaluate, model.sgd_batch_step, params.ParameterVector.__init__,
              gossipsim.NodeState.package_update, cli.run_simulation)
    graph = dg.TopologyGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    config = dg.SimConfig(
        topology=graph,
        strategy=dg.IntegrationStrategy("standard_averaging"),
        schedule=dg.SimSchedule(train_epochs=4, integrate_every=2,
                                convergence_until_round=5, batch_size=8),
        model_config=dg.ModelConfig(input_dim=3, class_count=2, hidden_dim=2, seed=1),
        shard_plan=dg.ShardPlan(node_count=4, seed=2),
    )
    data = dg.synth_classification(classes=2, dim=3, per_class=40, seed=3)
    rec = spans.Recorder()
    with spans.instrument(rec):
        _, _, run_simulation = spans.wrap_run_calls(
            rec, dg.aggregate_across_nodes, dg.export_csv, dg.run_simulation)
        records = run_simulation(config, data)
    after = (gossipsim.evaluate, model.sgd_batch_step, params.ParameterVector.__init__,
             gossipsim.NodeState.package_update, cli.run_simulation)
    assert after == before

    values = spans.layer_metrics(rec)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(values) | {"trace.overhead_frac"} == {m["name"] for m in declared}
    assert set(spans.COUNT_METRICS) <= set(values)
    assert values["gossipsim.messages"] == checks.expected_messages([config]) == 2 * 3 * 2
    assert values["metrics.records"] == len(records) == 4 * 5
    assert values["model.eval_calls"] == 2 * 4 * 5
    assert values["aggregation.calls"] == 4 * 2 + 4 * 1
    # Each of the 3 merges (2 integrations, 1 convergence round) averages
    # every node with its neighbours: 2 + 3 + 3 + 2 models.
    assert values["aggregation.contributors"] == 3 * 10
    params = 3 * 2 + 2 + 2 * 2 + 2  # hidden_w, hidden_b, out_w, out_b
    assert values["params.bytes_copied"] == values["params.vectors_built"] * 8 * params
    assert 0 < values["gossipsim.exchange_frac"] < 1
    assert values["gossipsim.engine_self_s"] < values["gossipsim.run_simulation_s"]


def _csv(rows):
    return "\n".join([checks.CSV_HEADER] + rows) + "\n"


def test_csv_problems():
    good = _csv(["1,0.100000,0.200000,0.300000", "2,0.500000,0.900000,1.000000"])
    assert checks.csv_problems(good, rounds=2, floor=0.8) == []
    assert checks.csv_problems(good, rounds=3, floor=0.8) == ["CSV indices are not 1..3"]
    assert "below floor" in checks.csv_problems(good, rounds=2, floor=0.95)[0]
    unordered = _csv(["1,0.300000,0.200000,0.300000"])
    assert "not ordered" in checks.csv_problems(unordered, rounds=1, floor=0.0)[0]
    assert "header" in checks.csv_problems("index,acc\n1,0.5\n", rounds=1, floor=0.0)[0]


def test_record_problems_find_missing_and_duplicate_reports():
    def rec(node, index, acc=0.5):
        return SimpleNamespace(node_id=node, index=index, local_acc=acc, global_acc=acc)

    full = [rec(n, i) for n in range(2) for i in (1, 2)]
    assert checks.record_problems(full, node_count=2, rounds=2) == []
    assert checks.record_problems(full[:-1], node_count=2, rounds=2)
    assert checks.record_problems(full + [rec(0, 1)], node_count=2, rounds=2)
    assert checks.record_problems(full[:-1] + [rec(1, 2, acc=1.5)], node_count=2, rounds=2)


def test_tally_counts_failures_per_simulation():
    tally = checks.Tally(golden={"a.csv": "d1", "b.csv": "d2"})
    tally.add_sample({"a.csv": ("d1", []), "b.csv": ("d2", [])})
    assert (tally.attempted, tally.failed) == (2, 0)

    tally.add_sample({"a.csv": ("d1", []), "b.csv": ("other", [])})
    assert (tally.attempted, tally.failed) == (4, 1)
    assert any("first sample" in m for m in tally.messages)
    assert any("pinned" in m for m in tally.messages)

    tally.add_sample({"a.csv": (None, ["raised"]), "b.csv": ("d2", [])})
    assert (tally.attempted, tally.failed) == (6, 2)

    tally.add_sample({"a.csv": ("d1", []), "b.csv": ("d2", [])}, ["messages off"])
    assert (tally.attempted, tally.failed) == (8, 4)


def test_tally_without_golden_checks_repeatability_only():
    tally = checks.Tally()
    tally.add_sample({"a.csv": ("x", [])})
    tally.add_sample({"a.csv": ("x", [])})
    assert (tally.attempted, tally.failed) == (2, 0)
    tally.add_sample({"a.csv": ("y", [])})
    assert tally.failed == 1


def _sim(nodes, until, adjacency=None, mode="first_hop", hops=1, epochs=60, every=10):
    return SimpleNamespace(
        topology=SimpleNamespace(node_count=nodes, adjacency=adjacency),
        schedule=SimpleNamespace(convergence_until_round=until, train_epochs=epochs,
                                 integrate_every=every),
        forwarding=SimpleNamespace(mode=mode, max_hops=hops),
    )


def test_node_rounds_per_workload_shape():
    assert checks.node_rounds([_sim(200, 75)]) == 15_000
    assert checks.node_rounds([_sim(48, 120)] * 5) == 28_800
    assert checks.node_rounds([_sim(n, 75) for n in (8, 24) for _ in range(3)]) == 7_200


def test_run_seconds_sums_per_simulation_medians():
    samples = [{"a": 1.0, "b": 5.0}, {"a": 9.0, "b": 4.0}, {"a": 2.0, "b": 6.0}]
    # A burst that slowed one simulation in one sample does not count.
    assert checks.run_seconds(samples) == 2.0 + 5.0
    assert checks.run_seconds([{"cli.main": 3.5}]) == 3.5


def test_speed_factor_uses_the_mean_of_both_brackets():
    # The kernel took 0.1 s before and 0.3 s after: the machine ran at half
    # the speed at which it takes 0.1 s, so 8 s of wall time count as 4 s.
    assert 8.0 * checks.speed_factor(0.1, 0.3, reference_s=0.1) == pytest.approx(4.0)
    assert checks.speed_factor(0.05, 0.05, reference_s=0.05) == 1.0


def test_expected_messages_first_hop_and_flooding():
    path = ((1,), (0, 2), (1, 3), (2,))  # 0-1-2-3, three edges
    assert checks.deliveries_per_round(path, hops=1) == 2 * 3
    assert checks.deliveries_per_round(path, hops=2) == 2 + 3 + 3 + 2
    assert checks.deliveries_per_round(path, hops=5) == 4 * 3
    assert checks.expected_messages([_sim(4, 75, path)]) == 6 * 6
    flood = _sim(4, 50, path, mode="multi_hop", hops=2, epochs=40, every=1)
    assert checks.expected_messages([flood]) == 40 * 10
