import ast
import inspect
import itertools
import json
import multiprocessing.process
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from test_dataset import write_idx_pair

from deltagossip import cli, gossipsim, topology
from deltagossip.cli import _build, _experiment, main
from deltagossip.gossipsim import SimulationError, run_simulation
from deltagossip.topology import is_connected, read_edge_list


def small_config(tmp_path, nodes=4, strategies=None):
    return {
        "seed": 11,
        "output_dir": str(tmp_path / "out"),
        "dataset": {
            "kind": "synthetic",
            "classes": 3,
            "dim": 4,
            "per_class": 40,
            "noise_sigma": 0.08,
            "seed": 1,
        },
        "topologies": [{"nodes": nodes, "target_avg_degree": 2.5, "seed": 3}],
        "model": {"hidden_dim": 0, "learning_rate": 0.1, "seed": 2},
        "schedule": {
            "train_epochs": 10,
            "integrate_every": 5,
            "convergence_until_round": 14,
            "batch_size": 8,
        },
        "shards": {"train_fraction": 0.8, "seed": 9},
        "lambda_schedule": {"offset": 0.15, "slope_divisor": 100.0, "cap": 0.35},
        "strategies": strategies or ["standard_averaging", "delta_sum"],
    }


class TestGenTopology:
    def test_round_trip_validates(self, tmp_path, capsys):
        prefix = tmp_path / "topo"
        code = main(
            [
                "gen-topology",
                "--nodes", "10",
                "--target-avg-degree", "3.3",
                "--seed", "7",
                "--out", str(prefix),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "avg_degree" in out and "diameter" in out
        graph = read_edge_list(str(prefix) + ".edges")
        assert is_connected(graph)
        assert all(1 <= d <= 8 for d in graph.degrees())
        descriptor = json.loads((tmp_path / "topo.json").read_text())
        assert descriptor["node_count"] == 10

    def test_two_nodes_single_edge(self, tmp_path):
        prefix = tmp_path / "pair"
        code = main(
            ["gen-topology", "--nodes", "2", "--target-avg-degree", "1.0",
             "--out", str(prefix)]
        )
        assert code == 0
        assert (tmp_path / "pair.edges").read_text() == "0 1\n"

    def test_unsatisfiable_target_fails(self, tmp_path, capsys):
        code = main(
            ["gen-topology", "--nodes", "10", "--target-avg-degree", "0.5",
             "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_rejected_target_is_an_error_line(self, tmp_path, capsys, value):
        code = main(["gen-topology", "--nodes", "10", "--target-avg-degree", value,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: target_avg_degree must be positive")
        assert not list(tmp_path.iterdir())

    def test_negative_seed_is_named(self, tmp_path, capsys):
        code = main(["gen-topology", "--nodes", "6", "--target-avg-degree", "2.5",
                     "--seed", "-3", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -3\n"
        assert not list(tmp_path.iterdir())


class TestRun:
    def test_end_to_end_artifacts(self, tmp_path, capsys):
        config = small_config(tmp_path)
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        code = main(["run", "--config", str(config_path)])
        assert code == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "4nodes_standard_averaging.csv").exists()
        assert (out_dir / "4nodes_delta_sum.csv").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert len(summary["runs"]) == 2
        for run in summary["runs"]:
            assert 0.0 <= run["final"]["median"] <= 1.0

    def test_rerun_byte_identical(self, tmp_path):
        config = small_config(tmp_path)
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config_path), "--out", str(out_b),
                     "--threads", "4"]) == 0
        for name in ("4nodes_standard_averaging.csv", "4nodes_delta_sum.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_strategy_flag_overrides_config(self, tmp_path):
        config = small_config(tmp_path)
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        code = main(
            ["run", "--config", str(config_path), "--strategy", "fedavg",
             "--out", str(tmp_path / "o")]
        )
        assert code == 0
        assert (tmp_path / "o" / "4nodes_fedavg.csv").exists()
        assert not (tmp_path / "o" / "4nodes_delta_sum.csv").exists()

    def test_one_start_per_topology_and_its_later_runs_train_from_epoch_i(
            self, tmp_path, monkeypatch):
        # integrate_every is 5: a topology's first run trains from epoch 1
        # (start_epoch 0), and the runs after it from epoch 5 (start_epoch
        # 4), where the first run left their start.
        made, run_epochs = [], []
        start_run, train_epochs = cli.start_run, gossipsim.train_epochs

        def counting_start(sim, *args, **kwargs):
            made.append(sim.topology.node_count)
            return start_run(sim, *args, **kwargs)

        def spy(sim, *args, **kwargs):
            run_epochs.append(set())
            return run_simulation(sim, *args, **kwargs)

        def logged_train(*args, start_epoch, **kwargs):
            run_epochs[-1].add(start_epoch)
            return train_epochs(*args, start_epoch=start_epoch, **kwargs)

        monkeypatch.setattr(cli, "start_run", counting_start)
        monkeypatch.setattr(cli, "run_simulation", spy)
        monkeypatch.setattr(gossipsim, "train_epochs", logged_train)
        config = small_config(tmp_path, strategies=["standard_averaging", "delta_sum",
                                                    "fedavg"])
        config["topologies"].append({"nodes": 6, "target_avg_degree": 2.5, "seed": 4})
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 0
        assert made == [4, 6]
        assert [min(epochs) for epochs in run_epochs] == [0, 4, 4] * 2

        monkeypatch.undo()
        assert main(["run", "--config", str(config_path), "--strategy", "fedavg",
                     "--out", str(tmp_path / "alone")]) == 0
        for csv in ("4nodes_fedavg.csv", "6nodes_fedavg.csv"):
            assert (tmp_path / "alone" / csv).read_bytes() == (
                tmp_path / "out" / csv).read_bytes()

    def test_failed_run_is_reported_and_the_others_go_on(self, tmp_path, capsys, monkeypatch):
        def fail_24_node_averaging(sim, *args, **kwargs):
            if (sim.topology.node_count, sim.strategy.kind) == (24, "standard_averaging"):
                raise SimulationError("node 5 round 3: parameter values must be finite")
            return run_simulation(sim, *args, **kwargs)

        monkeypatch.setattr(cli, "run_simulation", fail_24_node_averaging)
        config = small_config(tmp_path, strategies=["standard_averaging", "delta_sum",
                                                    "variance_corrected"])
        config["topologies"].append({"nodes": 24, "target_avg_degree": 3.0, "seed": 4})
        config["dataset"]["per_class"] = 120
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: 24 nodes standard_averaging: "
                       "node 5 round 3: parameter values must be finite\n")

        out_dir = tmp_path / "out"
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "24nodes_delta_sum.csv", "24nodes_variance_corrected.csv",
            "4nodes_delta_sum.csv", "4nodes_standard_averaging.csv",
            "4nodes_variance_corrected.csv", "summary.json",
        ]
        summary = json.loads((out_dir / "summary.json").read_text())
        assert [(run["nodes"], run["strategy"]) for run in summary["runs"]] == [
            (n, kind) for n in (4, 24)
            for kind in ("standard_averaging", "delta_sum", "variance_corrected")
        ]
        assert summary["runs"][3] == {
            "nodes": 24, "strategy": "standard_averaging",
            "error": "node 5 round 3: parameter values must be finite",
        }
        assert all("final" in run for i, run in enumerate(summary["runs"]) if i != 3)
        # standard_averaging has one successful node count left: no ratio for it
        assert list(summary["drop_ratios"]) == ["delta_sum_vs_variance_corrected"]

    def test_missing_dataset_path_is_clear_error(self, tmp_path, capsys):
        config = small_config(tmp_path)
        config["dataset"] = {
            "kind": "idx",
            "train_images": str(tmp_path / "nope-images"),
            "train_labels": str(tmp_path / "nope-labels"),
        }
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        code = main(["run", "--config", str(config_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "not found" in err and "nope-images" in err

    def test_max_hops_alone_sets_the_forwarding(self, tmp_path):
        for name, forwarding in (("alone", {"max_hops": 2}),
                                 ("explicit", {"mode": "multi_hop", "max_hops": 2})):
            config = small_config(tmp_path)
            config["forwarding"] = forwarding
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps(config))
            assert main(["run", "--config", str(config_path), "--out", str(tmp_path / name)]) == 0
        for csv in ("4nodes_standard_averaging.csv", "4nodes_delta_sum.csv"):
            assert (tmp_path / "alone" / csv).read_bytes() == (
                tmp_path / "explicit" / csv).read_bytes()

    def test_idx_dataset_with_test_split(self, tmp_path):
        rng = np.random.default_rng(0)
        train = write_idx_pair(tmp_path, rng.integers(0, 256, (40, 4, 4)),
                               [0, 1] * 20, prefix="train_")
        test_labels = [0, 1, 2] * 4  # class 2 only in the test split
        test = write_idx_pair(tmp_path, rng.integers(0, 256, (12, 4, 4)),
                              test_labels, prefix="test_")
        config = small_config(tmp_path)
        config["dataset"] = {"kind": "idx", "train_images": str(train[0]),
                             "train_labels": str(train[1]), "test_images": str(test[0]),
                             "test_labels": str(test[1]), "downsample": 2}
        _, global_val, runs, _ = _build("config", _experiment, config)
        assert global_val.labels.tolist() == test_labels and global_val.dim == 4
        assert runs[0][0].model_config.class_count == 3

        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 0
        csvs = sorted(p.name for p in (tmp_path / "out").glob("*.csv"))
        assert csvs == ["4nodes_delta_sum.csv", "4nodes_standard_averaging.csv"]

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "ghost.json")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_strategy_rejected(self, tmp_path, capsys):
        config = small_config(tmp_path, strategies=["clustered_averaging"])
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 1
        assert "unknown strategy" in capsys.readouterr().err


def _typo_top_level(config, tmp_path):
    config["strategy"] = ["delta_sum"]


def _topology_alias(config, tmp_path):
    config["topology"] = config.pop("topologies")[0]


def _typo_synthetic(config, tmp_path):
    config["dataset"]["nosie_sigma"] = 0.1


def _typo_idx(config, tmp_path):
    config["dataset"] = {"kind": "idx", "train_images": "imgs", "train_labels": "labels",
                         "downsampel": 2}


def _typo_generated_topology(config, tmp_path):
    config["topologies"].append({"nodes": 5, "target_avg_degree": 2.0, "max_degre": 3})


def _typo_path_topology(config, tmp_path):
    edges = tmp_path / "ring.edges"
    edges.write_text("0 1\n1 2\n2 3\n3 0\n")
    config["topologies"].append({"path": str(edges), "seed": 4})


def _typo_model(config, tmp_path):
    config["model"]["learning_rat"] = 0.1


def _derived_model_key(config, tmp_path):
    config["model"]["input_dim"] = 4


def _typo_schedule(config, tmp_path):
    config["schedule"]["integrate_evry"] = 10


def _typo_shards(config, tmp_path):
    config["shards"]["train_fractoin"] = 0.5


def _typo_lambda_schedule(config, tmp_path):
    config["lambda_schedule"]["slope_divisr"] = 300.0


def _typo_forwarding(config, tmp_path):
    config["forwarding"] = {"max_hop": 3}


class TestStrictConfig:
    @pytest.mark.parametrize(
        "mutate, key, block",
        [
            (_typo_top_level, "strategy", "config"),
            (_topology_alias, "topology", "config"),
            (_typo_synthetic, "nosie_sigma", "dataset"),
            (_typo_idx, "downsampel", "dataset"),
            (_typo_generated_topology, "max_degre", "topologies[1]"),
            (_typo_path_topology, "seed", "topologies[1]"),
            (_typo_model, "learning_rat", "model"),
            (_derived_model_key, "input_dim", "model"),
            (_typo_schedule, "integrate_evry", "schedule"),
            (_typo_shards, "train_fractoin", "shards"),
            (_typo_lambda_schedule, "slope_divisr", "lambda_schedule"),
            (_typo_forwarding, "max_hop", "forwarding"),
        ],
    )
    def test_unknown_key_is_rejected(self, tmp_path, capsys, mutate, key, block):
        config = small_config(tmp_path)
        mutate(config, tmp_path)
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert f"'{key}'" in err and f" in {block};" in err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("extra", [[], ["--strategy", "delta_sum"]])
    def test_config_must_be_an_object(self, tmp_path, capsys, extra):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps([small_config(tmp_path)]))
        assert main(["run", "--config", str(config_path), *extra]) == 1
        assert "config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("schedule", "batch_size", "8"),
            ("dataset", "per_class", 40.0),
            ("schedule", "train_epochs", 10.0),
            ("model", "hidden_dim", 4.0),
            ("shards", "seed", True),
            ("topologies[0]", "nodes", 4.0),
            ("config", "seed", 1.5),
            ("dataset", "seed", 1.5),
            ("model", "learning_rate", True),
            ("lambda_schedule", "cap", True),
            ("topologies[0]", "target_avg_degree", "2"),
            ("shards", "train_fraction", "0.5"),
        ],
    )
    def test_wrong_typed_value_is_a_config_error(self, tmp_path, capsys, block, key, value):
        config = small_config(tmp_path)
        blocks = {"config": config, "topologies[0]": config["topologies"][0]}
        blocks.get(block, config.get(block))[key] = value
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {block}: {key} ")
        assert not Path(config["output_dir"]).exists()

    @pytest.mark.parametrize("block", ["config", "dataset", "topologies[0]", "model", "shards"])
    def test_negative_seed_names_its_block(self, tmp_path, capsys, block):
        config = small_config(tmp_path)
        blocks = {"config": config, "topologies[0]": config["topologies"][0]}
        blocks.get(block, config.get(block))["seed"] = -5
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == f"error: {block}: seed must be non-negative, got -5\n"
        assert not Path(config["output_dir"]).exists()

    def test_negative_master_seed_is_named_before_any_derived_seed(self, tmp_path, capsys):
        # Without the check the dataset seed, -7 + 1, would take the blame.
        config = small_config(tmp_path)
        del config["dataset"]["seed"]
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path), "--seed", "-7"]) == 1
        assert capsys.readouterr().err == "error: config: seed must be non-negative, got -7\n"
        assert not Path(config["output_dir"]).exists()

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("model", "learning_rate", float("nan")),
            ("model", "learning_rate", float("inf")),
            ("lambda_schedule", "offset", float("-inf")),
        ],
    )
    def test_non_finite_constant_is_not_json(self, tmp_path, capsys, block, key, value):
        config = small_config(tmp_path)
        config[block][key] = value
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))  # writes NaN, Infinity, -Infinity
        assert main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config is not valid JSON: ")
        assert not Path(config["output_dir"]).exists()

    @pytest.mark.parametrize("value", ["delta_sum", {"delta_sum": {}}],
                             ids=["string", "object"])
    def test_strategies_must_be_a_list(self, tmp_path, capsys, value):
        # Iterating would walk a string by character and an object by its keys.
        config = small_config(tmp_path)
        config["strategies"] = value
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: config: strategies must be a list of strategy names, got {value!r}\n")
        assert not Path(config["output_dir"]).exists()

    def test_output_dir_must_be_a_string(self, tmp_path, capsys):
        config = small_config(tmp_path)
        config["output_dir"] = 5
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err.startswith("error: config: output_dir must be a string")
        assert not (tmp_path / "5").exists()

    @pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "float"])
    def test_downsample_must_be_an_integer(self, tmp_path, capsys, value):
        images, labels = write_idx_pair(tmp_path, np.zeros((40, 4, 4)), [0, 1] * 20)
        config = small_config(tmp_path)
        config["dataset"] = {"kind": "idx", "train_images": str(images),
                             "train_labels": str(labels), "downsample": value}
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: dataset: downsample must be an integer, got {value!r}\n")
        assert not Path(config["output_dir"]).exists()

    def test_a_bound_error_names_its_field_and_value(self, tmp_path, capsys):
        config = small_config(tmp_path)
        config["schedule"] = {"batch_size": 0}
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == "error: schedule: batch_size must be >= 1, got 0\n"
        assert not Path(config["output_dir"]).exists()

    def test_an_integer_beyond_float_range_is_an_error(self, tmp_path, capsys):
        config = small_config(tmp_path)
        config["model"]["learning_rate"] = 10**400
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 1
        out, err = capsys.readouterr()
        assert err == (f"error: model: learning_rate must be positive and finite, "
                       f"got {10**400}\n")
        assert out == ""
        assert not Path(config["output_dir"]).exists()

    @pytest.mark.parametrize("key", ["schedule", "batch_size"])
    def test_a_repeated_key_is_an_error(self, tmp_path, capsys, key):
        # json.load alone keeps the last value, so the second block would run.
        config = small_config(tmp_path)
        text = json.dumps(config)
        first = f'"{key}": '
        at = text.index(first)
        value = '{"batch_size": 4}' if key == "schedule" else "4"
        config_path = tmp_path / "exp.json"
        config_path.write_text(f"{text[:at]}{first}{value}, {text[at:]}")
        assert main(["run", "--config", str(config_path)]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: config is not valid JSON: key {key!r} appears twice in one object\n"
        assert out == ""
        assert not Path(config["output_dir"]).exists()

    @pytest.mark.parametrize("which", ["train_images", "train_labels"])
    def test_an_idx_header_that_claims_too_much_is_an_error(self, tmp_path, capsys, which):
        images, labels = write_idx_pair(tmp_path, np.zeros((40, 4, 4)), [0, 1] * 20)
        config = small_config(tmp_path)
        config["dataset"] = {"kind": "idx", "train_images": str(images),
                             "train_labels": str(labels)}
        side = 2**32 - 1
        if which == "train_images":
            header = struct.pack(">IIII", 0x803, side, side, side)
        else:
            header = struct.pack(">II", 0x801, side)
        path = Path(config["dataset"][which])
        path.write_bytes(header + path.read_bytes()[len(header):])
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: dataset: truncated IDX file {path} while reading "
            f"{'image' if which == 'train_images' else 'label'} data\n")
        assert not Path(config["output_dir"]).exists()

    def test_readme_minimal_config_builds(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"A minimal config:\s*```json\n(.*?)```", readme, re.S)
        config = json.loads(block.group(1))
        _, _, runs, _ = _build("config", _experiment, config)
        assert [len(topology_runs) for topology_runs in runs] == (
            [len(config["strategies"])] * len(config["topologies"]))
        assert runs[0][0].schedule.integrate_every == config["schedule"]["integrate_every"]


def _ring_file(tmp_path):
    path = tmp_path / "ring.edges"
    path.write_text("0 1\n1 2\n2 3\n3 0\n")
    return str(path)


def _idx_block(tmp_path):
    images, labels = write_idx_pair(tmp_path, np.zeros((40, 4, 4)), [0, 1] * 20)
    return {"kind": "idx", "train_images": str(images), "train_labels": str(labels)}


def _use_idx(config, tmp_path):
    config["dataset"] = _idx_block(tmp_path)


def _use_edge_list(config, tmp_path):
    config["topologies"] = [{"path": _ring_file(tmp_path)}]


def _add_forwarding(config, tmp_path):
    config["forwarding"] = {}


def _drop_idx_images(config, tmp_path):
    config["dataset"] = _idx_block(tmp_path)
    del config["dataset"]["train_images"]


def _generated_after_file(config, tmp_path):
    config["topologies"] = [{"path": _ring_file(tmp_path)}, {"target_avg_degree": 2.0}]


class TestConfigBlocks:
    """One rule for every block: its keys are the parameters of the code it builds."""

    @pytest.mark.parametrize(
        "place, where, builders, derived, selectors",
        [
            (None, "config", ["_experiment"], [], []),
            (None, "dataset", ["synth_classification"], [], ["kind"]),
            (_use_idx, "dataset", ["_idx_dataset"], [], ["kind"]),
            (None, "topologies[0]", ["generate_semi_random", "TopologyConstraints"],
             ["constraints"], []),
            (_use_edge_list, "topologies[0]", ["read_edge_list"], [], []),
            (None, "model", ["ModelConfig"], ["input_dim", "class_count"], []),
            (None, "schedule", ["SimSchedule"], [], []),
            (None, "shards", ["ShardPlan"], ["node_count"], []),
            (None, "lambda_schedule", ["LambdaSchedule"], [], []),
            (_add_forwarding, "forwarding", ["Forwarding"], [], []),
        ],
        ids=["config", "synthetic", "idx", "generated", "edge_list", "model", "schedule",
             "shards", "lambda_schedule", "forwarding"],
    )
    def test_keys_are_the_builder_parameters(self, tmp_path, capsys, place, where, builders,
                                             derived, selectors):
        config = small_config(tmp_path)
        if place is not None:
            place(config, tmp_path)
        blocks = {"config": config, "topologies[0]": config["topologies"][0]}
        blocks.get(where, config.get(where))["zzz"] = 1
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        found = re.fullmatch(r"error: unknown key\(s\) \['zzz'\] in (\S+); allowed: (.*)\n", err)
        assert found and found.group(1) == where
        params = {name for builder in builders
                  for name in inspect.signature(getattr(cli, builder)).parameters}
        assert ast.literal_eval(found.group(2)) == sorted(params - set(derived) | set(selectors))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda config, tmp_path: config.pop("dataset"), "missing ['dataset'] in config"),
            (lambda config, tmp_path: config.pop("topologies"),
             "missing ['topologies'] in config"),
            (lambda config, tmp_path: config.pop("strategies"),
             "missing ['strategies'] in config"),
            (lambda config, tmp_path: config["dataset"].pop("classes"),
             "missing ['classes'] in dataset"),
            (lambda config, tmp_path: config["dataset"].pop("kind"),
             "missing ['kind'] in dataset"),
            (_drop_idx_images, "missing ['train_images'] in dataset"),
            (lambda config, tmp_path: config["topologies"][0].pop("nodes"),
             "missing ['nodes'] in topologies[0]"),
            (_generated_after_file, "missing ['nodes'] in topologies[1]"),
        ],
        ids=["dataset", "topologies", "strategies", "synthetic", "kind", "idx", "generated",
             "after_edge_list"],
    )
    def test_missing_required_key_names_key_and_block(self, tmp_path, capsys, mutate, message):
        config = small_config(tmp_path)
        mutate(config, tmp_path)
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not Path(config["output_dir"]).exists()

    @pytest.mark.parametrize(
        "strategies, message",
        [
            (["delta_sum", "bogus"], "strategies[1]: unknown strategy 'bogus'; "),
            ([3], "strategies[0]: unknown strategy 3; "),
            (["fedavg", None], "strategies[1]: unknown strategy None; "),
            (["fedavg", ["delta_sum"]], "strategies[1]: unknown strategy ['delta_sum']; "),
        ],
        ids=["unknown_name", "number", "null", "list"],
    )
    def test_unknown_strategy_names_its_entry(self, tmp_path, capsys, strategies, message):
        config = small_config(tmp_path, strategies=strategies)
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not Path(config["output_dir"]).exists()


def _second_four_node_topology(config, tmp_path):
    config["topologies"].append({"nodes": 4, "target_avg_degree": 2.0, "seed": 5})


def _strategy_twice(config, tmp_path):
    config["strategies"] = ["delta_sum", "fedavg", "delta_sum"]


def _unshardable_topology(config, tmp_path):
    # 12 samples, 1 held out: 3 nodes get 3 or 4 each, 4 nodes get 2 or 3, and
    # round(0.8 * 2) = 2 leaves a 2-sample shard no local validation sample
    config["dataset"].update(classes=2, per_class=6)
    config["topologies"] = [{"nodes": 3, "target_avg_degree": 2.0, "seed": 3},
                            {"nodes": 4, "target_avg_degree": 2.5, "seed": 3}]


def _test_split_of_another_size(config, tmp_path):
    # 8x8 training images against a 4x4 test split: input_dim comes from the training split
    train = write_idx_pair(tmp_path, np.zeros((40, 8, 8)), [0, 1] * 20, prefix="train_")
    test = write_idx_pair(tmp_path, np.zeros((10, 4, 4)), [0, 1] * 5, prefix="test_")
    config["dataset"] = {"kind": "idx", "train_images": str(train[0]),
                         "train_labels": str(train[1]), "test_images": str(test[0]),
                         "test_labels": str(test[1])}


def _empty_edge_list(config, tmp_path):
    empty = tmp_path / "empty.edges"
    empty.write_text("")
    config["topologies"] = [{"path": str(empty)}]


def _images_of_zero_rows(config, tmp_path):
    images, labels = write_idx_pair(tmp_path, np.zeros((40, 0, 4)), [0, 1] * 20)
    config["dataset"] = {"kind": "idx", "train_images": str(images),
                         "train_labels": str(labels)}


def _non_integer_edge_list(config, tmp_path):
    edges = tmp_path / "letters.edges"
    edges.write_text("0 1\n1 2\na b\n")
    config["topologies"] = [{"path": str(edges)}]


def _one_class_dataset(config, tmp_path):
    images, labels = write_idx_pair(tmp_path, np.full((40, 6, 6), 7), [0] * 40)
    config["dataset"] = {"kind": "idx", "train_images": str(images),
                         "train_labels": str(labels)}


def _test_images_alone(config, tmp_path):
    config["dataset"] = _idx_block(tmp_path)
    config["dataset"]["test_images"] = config["dataset"]["train_images"]


def _descriptor_number_as_path(config, tmp_path):
    config["dataset"] = _idx_block(tmp_path)
    config["dataset"]["train_images"] = 0  # open(0) would read standard input


def _odd_regular_graph(config, tmp_path):
    # no 3-regular graph on 5 nodes exists: its degree sum would be odd
    config["topologies"] = [{"nodes": 5, "min_degree": 3, "max_degree": 3,
                             "target_avg_degree": 3.0}]


class TestSweepInputs:
    """Inputs that would fail or overwrite a run partway through a sweep."""

    @pytest.mark.parametrize(
        "mutate, extra, message",
        [
            (_second_four_node_topology, [], "topologies[1]: 4 nodes, as in topologies[0]; "),
            (_strategy_twice, [], "strategies[2]: 'delta_sum' is listed twice"),
            (None, ["--strategy", "fedavg", "--strategy", "fedavg"],
             "strategies[1]: 'fedavg' is listed twice"),
            (_unshardable_topology, [], "topologies[1]: shard of 2 samples cannot honour"),
            (_test_split_of_another_size, [],
             "topologies[0]: global_val feature dimension 16 does not match input_dim 64"),
            (_empty_edge_list, [], "topologies[0]: edge list "),
            (_images_of_zero_rows, [], "dataset: empty 0x4 images in "),
            (_non_integer_edge_list, [], "topologies[0]: bad edge line 3 in "),
            (_one_class_dataset, [], "dataset: every label is 0, so the labels name one class"),
            (_test_images_alone, [], "dataset: test_images and test_labels go together"),
            (_descriptor_number_as_path, [], "dataset: expected str, bytes or os.PathLike"),
            (_odd_regular_graph, [], "topologies[0]: no 3-regular graph on nodes=5"),
        ],
    )
    def test_rejected_before_the_output_directory_exists(self, tmp_path, capsys, mutate,
                                                         extra, message):
        config = small_config(tmp_path)
        if mutate is not None:
            mutate(config, tmp_path)
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path), *extra]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not Path(config["output_dir"]).exists()

    def test_generation_budget_spent(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(topology, "_attempt", lambda *args: None)  # every attempt stalls
        config = small_config(tmp_path)
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err.startswith("error: topologies[0]: no valid graph for "
                                                  "nodes=4")
        assert not Path(config["output_dir"]).exists()


def _spied_run(tmp_path, monkeypatch, name, config, flags=()):
    """``main(["run", ...])`` on ``config`` written to ``name``: its exit code and
    the runs it built, each as (node count, strategy, model seed)."""
    built = []

    def spy(sim, *args, **kwargs):
        built.append((sim.topology.node_count, sim.strategy.kind, sim.model_config.seed))
        return run_simulation(sim, *args, **kwargs)

    monkeypatch.setattr(cli, "run_simulation", spy)
    config_path = tmp_path / name
    config_path.write_text(json.dumps(config))
    return main(["run", "--config", str(config_path), *flags]), built


class TestFlagsReplaceKeys:
    """run's --seed, --strategy and --out replace the seed, strategies and
    output_dir keys before the config is read, so each means what its key means."""

    @pytest.mark.parametrize("seed, strategy, out", itertools.product([False, True], repeat=3))
    def test_a_flag_means_its_key(self, tmp_path, monkeypatch, capsys, seed, strategy, out):
        config = small_config(tmp_path)
        del config["model"]["seed"]  # the model seed is then the master seed
        out_dir = str(tmp_path / "flag_out")
        given = {"seed": (["--seed", "5"], 5),
                 "strategies": (["--strategy", "fedavg"], ["fedavg"]),
                 "output_dir": (["--out", out_dir], out_dir)}
        chosen = [key for key, on in zip(given, (seed, strategy, out)) if on]
        flags = [text for key in chosen for text in given[key][0]]
        keyed = {**config, **{key: given[key][1] for key in chosen}}

        code, built = _spied_run(tmp_path, monkeypatch, "flags.json", config, flags)
        printed = capsys.readouterr().out
        assert (code, built) == _spied_run(tmp_path, monkeypatch, "keys.json", keyed)
        assert capsys.readouterr().out == printed
        assert code == 0
        assert built == [(4, name, keyed["seed"]) for name in keyed["strategies"]]
        assert printed.endswith(f"wrote {Path(keyed['output_dir']) / 'summary.json'}\n")

    @pytest.mark.parametrize(
        "key, value, flag",
        [("seed", -1, ["--seed", "1"]), ("strategies", "x", ["--strategy", "fedavg"]),
         ("output_dir", 5, ["--out", "rescued"])],
        ids=["seed", "strategies", "output_dir"],
    )
    def test_a_flag_rescues_an_invalid_key(self, tmp_path, monkeypatch, capsys, key, value,
                                           flag):
        monkeypatch.chdir(tmp_path)
        config = {**small_config(tmp_path), key: value}
        assert _spied_run(tmp_path, monkeypatch, "exp.json", config, flag)[0] == 0
        assert capsys.readouterr().err == ""
        out_dir = tmp_path / ("rescued" if key == "output_dir" else "out")
        assert (out_dir / "summary.json").exists()


class TestFileErrors:
    """A path the CLI cannot read or write is one ``error:`` line and exit 1."""

    @staticmethod
    def config_path(tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(small_config(tmp_path)))
        return path

    @pytest.mark.parametrize("out", ["afile/sub", "afile"], ids=["under_a_file", "a_file"])
    def test_output_directory_that_cannot_be_made(self, tmp_path, capsys, out):
        (tmp_path / "afile").write_text("kept\n")
        argv = ["run", "--config", str(self.config_path(tmp_path)), "--out", str(tmp_path / out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out in err
        assert (tmp_path / "afile").read_text() == "kept\n"

    def test_config_that_is_a_directory(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    def test_gen_topology_output_under_a_file(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("kept\n")
        argv = ["gen-topology", "--nodes", "10", "--target-avg-degree", "3.3",
                "--out", str(tmp_path / "afile" / "x")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    def test_csv_that_cannot_be_written(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        (out_dir / "4nodes_delta_sum.csv").mkdir(parents=True)
        assert main(["run", "--config", str(self.config_path(tmp_path))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "4nodes_delta_sum.csv" in err
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "4nodes_delta_sum.csv", "4nodes_standard_averaging.csv"]
        assert not list((out_dir / "4nodes_delta_sum.csv").iterdir())

    def test_summary_that_cannot_be_written(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        (out_dir / "summary.json").mkdir(parents=True)
        assert main(["run", "--config", str(self.config_path(tmp_path))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "4nodes_delta_sum.csv", "4nodes_standard_averaging.csv", "summary.json"]
        assert not list((out_dir / "summary.json").iterdir())


class TestNetmodel:
    def test_default_table_matches_reference_points(self, capsys):
        assert main(["netmodel"]) == 0
        out = capsys.readouterr().out
        assert "1.71700" in out  # expected series at 25 nodes
        assert "2.25357" in out  # expected series at 50 nodes
        assert "0.210" in out  # flat federated series
        assert "~5x" in out  # headline traffic multiple note

    def test_csv_export(self, tmp_path):
        csv_path = tmp_path / "net.csv"
        assert main(["netmodel", "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n,conn,expected,constant_connectivity,connectivity_increase,fedavg"
        assert len(lines) == 4

    def test_csv_directory_is_created(self, tmp_path):
        csv_path = tmp_path / "nodir" / "sub" / "net.csv"
        assert main(["netmodel", "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("n,conn,") and len(lines) == 4

    def test_failed_csv_write_is_an_error_line_and_leaves_no_partial_file(self, tmp_path,
                                                                          capsys):
        taken = tmp_path / "net.csv"
        taken.mkdir()  # the CSV path names a directory: the final rename fails
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")  # a parent that is a file: the mkdir fails
        for csv_path in (taken, blocker / "net.csv"):
            assert main(["netmodel", "--csv", str(csv_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "net.csv"]
        assert not list(taken.iterdir()) and blocker.read_text() == "kept\n"

    def test_single_node_count_single_row(self, capsys):
        assert main(["netmodel", "--nodes", "10", "--conn", "3.3"]) == 0
        out = capsys.readouterr().out
        table_rows = [l for l in out.splitlines() if l.strip().startswith("10")]
        assert len(table_rows) == 1

    def test_mismatched_grid_flags(self, capsys):
        assert main(["netmodel", "--nodes", "10", "--conn", "3.3", "--conn", "4.2"]) == 1
        assert "one --conn per --nodes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--nodes", "5", "--conn", "3.3"], "n must be >= the reference node count 10"),
            (["--fedavg-interval", "0"], "update_interval_s must be positive and finite"),
            (["--baseline", "nan"], "baseline must be positive and finite"),
            (["--ref-conn", "inf"], "ref_conn must be positive and finite"),
            (["--density-exponent", "nan"], "density_exponent must be non-negative"),
        ],
    )
    def test_rejected_value_is_an_error_line(self, tmp_path, capsys, argv, message):
        csv_path = tmp_path / "net.csv"
        assert main(["netmodel", *argv, "--csv", str(csv_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""
        assert not csv_path.exists()


class TestThreads:
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_below_one_is_a_usage_error(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", str(tmp_path / "exp.json"), "--threads", value])
        assert exit_info.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_runs_start_no_child_process(self, tmp_path, monkeypatch):
        def refuse(process):
            raise AssertionError(f"started child process {process.name}")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(small_config(tmp_path)))
        for threads in ("1", "4"):
            assert main(["run", "--config", str(config_path),
                         "--out", str(tmp_path / threads), "--threads", threads]) == 0

    def test_failing_run_raises_the_same_for_any_threads(self, tmp_path, capsys):
        edges = tmp_path / "split.edges"
        edges.write_text("0 1\n2 3\n4 5\n")  # 6 nodes: topologies[0] has 4
        config = small_config(tmp_path, strategies=["standard_averaging"])
        config["topologies"].append({"path": str(edges)})
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        errors = {}
        for threads in ("1", "2"):
            out_dir = tmp_path / threads
            assert main(["run", "--config", str(config_path),
                         "--out", str(out_dir), "--threads", threads]) == 1
            errors[threads] = capsys.readouterr().err
            assert not out_dir.exists()
        assert errors["1"] == errors["2"] == "error: topologies[1]: topology must be connected\n"
