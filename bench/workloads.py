"""The benchmark's four workloads.

Each workload turns a seed into simulator inputs in two steps. ``prepare``
makes what the benchmark itself owns: the IDX files or the config file. It
is not timed. ``setup`` calls the simulator's own builders: dataset
generation or IDX load, and topology generation. Its time is setup_s.
``run`` is one sample: every simulation of the workload, with aggregation
and CSV export. It returns its output and the wall time of each simulation,
or of the whole ``cli.main`` call. ``check`` reads
the outputs back and returns, per simulation, the CSV digest and what is
wrong with it.

Why these four (each one stresses a different layer):
- many_nodes: N=200 on a 99-parameter model. About 96% of the time is
  evaluate and train_epochs calls, so it measures per-call overhead.
- wide_model: 24 nodes, 196-d input, hidden 32. SGD moves real bytes and
  FLOPs. It is the only workload that loads IDX files and shards with a
  designated global validation split.
- gossip_heavy: N=48, degree 6, two-hop flooding, integration every
  epoch, all five strategies. Integration, convergence, packaging and
  dissemination take a large share here and almost none elsewhere.
- cli_sweep: ``deltagossip run`` through ``cli.main`` with demo 03's
  config. It is the user-facing command. It runs one thread: with two, the
  threads contend for the GIL and a 2-core host's scheduler sets the time.
"""

from __future__ import annotations

import contextlib
import io
import json
import struct
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import deltagossip as dg
from deltagossip import cli
from deltagossip.aggregation import STRATEGY_KINDS

from checks import csv_problems, record_problems, sha256
from spans import traced, wrap_run_calls

DEMO_LAMBDA = dg.LambdaSchedule(offset=0.15, slope_divisor=300.0, cap=0.35)
QUICKSTART_SCHEDULE = dg.SimSchedule(
    train_epochs=60, integrate_every=10, convergence_until_round=75, batch_size=16
)


def subseeds(seed: int, count: int) -> list[int]:
    """Independent non-negative seeds for the parts of one workload."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def strategy(kind: str) -> dg.IntegrationStrategy:
    return dg.IntegrationStrategy(kind, DEMO_LAMBDA if kind == "delta_sum" else None)


@dataclass
class Inputs:
    data: dg.DatasetShard | None
    global_val: dg.DatasetShard | None
    sims: list[tuple[str, dg.SimConfig]]  # (CSV name, config), in run order
    config_path: Path | None = None

    @property
    def configs(self) -> list[dg.SimConfig]:
        return [cfg for _, cfg in self.sims]


class LibraryWorkload:
    """Simulations driven through the library API, one CSV each."""

    name = ""
    floor = 0.0  # lowest acceptable final median global accuracy

    def prepare(self, seed: int, workdir: Path):
        return subseeds(seed, 4)

    def setup(self, spec, rec=None) -> Inputs:
        raise NotImplementedError

    def run(self, inputs: Inputs, outdir: Path, rec=None):
        aggregate, export, run_simulation = wrap_run_calls(
            rec, dg.aggregate_across_nodes, dg.export_csv, dg.run_simulation
        )
        results, times = [], {}
        for csv_name, cfg in inputs.sims:
            start = time.perf_counter()
            try:
                records = run_simulation(cfg, inputs.data, global_val=inputs.global_val)
                export(aggregate(records), outdir / csv_name)
            except Exception:  # one failed simulation must not hide the others
                results.append((csv_name, None, traceback.format_exc()))
            else:
                results.append((csv_name, records, None))
            times[csv_name] = time.perf_counter() - start
        return results, times

    def check(self, inputs: Inputs, output, outdir: Path):
        checked = {}
        configs = dict(inputs.sims)
        for csv_name, records, error in output:
            if error is not None:
                checked[csv_name] = (None, [f"raised:\n{error}"])
                continue
            cfg = configs[csv_name]
            rounds = cfg.schedule.convergence_until_round
            data = (outdir / csv_name).read_bytes()
            problems = record_problems(records, cfg.topology.node_count, rounds)
            problems += csv_problems(data.decode(), rounds, self.floor)
            checked[csv_name] = (sha256(data), problems)
        return checked


class ManyNodes(LibraryWorkload):
    """The README quick-start shape scaled to 200 nodes (~40 samples each)."""

    name = "many_nodes"
    floor = 0.6

    def setup(self, spec, rec=None) -> Inputs:
        s_data, s_topo, s_model, s_shard = spec
        data = traced(rec, "dataset.synth", dg.synth_classification)(
            classes=3, dim=8, per_class=3000, seed=s_data, noise_sigma=0.12
        )
        graph = traced(rec, "topology.generate", dg.generate_semi_random)(
            200, dg.TopologyConstraints(target_avg_degree=3.3), seed=s_topo
        )
        config = dg.SimConfig(
            topology=graph,
            strategy=strategy("delta_sum"),
            schedule=QUICKSTART_SCHEDULE,
            model_config=dg.ModelConfig(input_dim=8, class_count=3, hidden_dim=8,
                                        learning_rate=0.1, seed=s_model),
            shard_plan=dg.ShardPlan(node_count=200, train_fraction=0.8, seed=s_shard),
        )
        return Inputs(data, None, [("200nodes_delta_sum.csv", config)])


IDX_FILES = ("train-images.idx3-ubyte", "train-labels.idx1-ubyte",
             "t10k-images.idx3-ubyte", "t10k-labels.idx1-ubyte")


def write_idx(images_path: Path, labels_path: Path, images: np.ndarray,
              labels: np.ndarray) -> None:
    """Write uint8 (n, rows, cols) images and (n,) labels as an IDX file pair."""
    count, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        f.write(images.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, count))
        f.write(labels.astype(np.uint8).tobytes())


def synth_digits(rng, prototypes: np.ndarray, count: int):
    """Balanced 28x28 uint8 images: a class prototype plus pixel noise."""
    classes = prototypes.shape[0]
    labels = rng.permutation(np.repeat(np.arange(classes), count // classes))
    noise = rng.normal(0.0, 60.0, size=(labels.size, 28, 28))
    images = np.clip(prototypes[labels] + noise, 0, 255).astype(np.uint8)
    return images, labels


class WideModel(LibraryWorkload):
    """24 nodes on MNIST-shaped IDX data, hidden 32, variance_corrected."""

    name = "wide_model"
    floor = 0.5

    def prepare(self, seed: int, workdir: Path):
        s_images, *seeds = subseeds(seed, 4)
        rng = np.random.default_rng(s_images)
        prototypes = np.where(rng.random((10, 28, 28)) < 0.25, 220.0, 20.0)
        paths = [workdir / name for name in IDX_FILES]
        write_idx(paths[0], paths[1], *synth_digits(rng, prototypes, 6000))
        write_idx(paths[2], paths[3], *synth_digits(rng, prototypes, 300))
        return paths, seeds

    def setup(self, spec, rec=None) -> Inputs:
        (train_images, train_labels, test_images, test_labels), seeds = spec
        s_topo, s_model, s_shard = seeds
        load_idx = traced(rec, "dataset.idx_load", dg.load_idx)
        data = load_idx(train_images, train_labels, downsample=2)
        test = load_idx(test_images, test_labels, downsample=2)
        global_val = dg.DatasetShard(test.inputs, test.labels, origin="global_val")
        graph = traced(rec, "topology.generate", dg.generate_semi_random)(
            24, dg.TopologyConstraints(target_avg_degree=3.3), seed=s_topo
        )
        config = dg.SimConfig(
            topology=graph,
            strategy=strategy("variance_corrected"),
            schedule=QUICKSTART_SCHEDULE,
            model_config=dg.ModelConfig(input_dim=data.dim, class_count=10, hidden_dim=32,
                                        learning_rate=0.1, seed=s_model),
            shard_plan=dg.ShardPlan(node_count=24, train_fraction=0.8, seed=s_shard),
        )
        return Inputs(data, global_val, [("24nodes_variance_corrected.csv", config)])


class GossipHeavy(LibraryWorkload):
    """48 nodes, two-hop flooding, integration every epoch, all strategies."""

    name = "gossip_heavy"
    floor = 0.45

    def setup(self, spec, rec=None) -> Inputs:
        s_data, s_topo, s_model, s_shard = spec
        data = traced(rec, "dataset.synth", dg.synth_classification)(
            classes=4, dim=8, per_class=240, seed=s_data, noise_sigma=0.12
        )
        graph = traced(rec, "topology.generate", dg.generate_semi_random)(
            48, dg.TopologyConstraints(max_degree=8, target_avg_degree=6.0), seed=s_topo
        )
        sims = []
        for kind in STRATEGY_KINDS:
            config = dg.SimConfig(
                topology=graph,
                strategy=strategy(kind),
                schedule=dg.SimSchedule(train_epochs=40, integrate_every=1,
                                        convergence_until_round=120, batch_size=16),
                model_config=dg.ModelConfig(input_dim=8, class_count=4, hidden_dim=0,
                                            learning_rate=0.2, seed=s_model),
                shard_plan=dg.ShardPlan(node_count=48, train_fraction=0.8, seed=s_shard),
                forwarding=dg.Forwarding(mode="multi_hop", max_hops=2),
            )
            sims.append((f"48nodes_{kind}.csv", config))
        return Inputs(data, None, sims)


class CliSweep:
    """``deltagossip run`` on demo 03's config: 8 and 24 nodes x 3 strategies."""

    name = "cli_sweep"
    floor = 0.3
    threads = 1
    strategies = ("standard_averaging", "variance_corrected", "delta_sum")
    node_counts = (8, 24)

    def prepare(self, seed: int, workdir: Path):
        s_data, s_topo, s_model, s_shard = subseeds(seed, 4)
        config = {
            "dataset": {"kind": "synthetic", "classes": 10, "dim": 16, "per_class": 120,
                        "noise_sigma": 0.12, "seed": s_data},
            "topologies": [{"nodes": n, "target_avg_degree": 3.3, "seed": s_topo + i}
                           for i, n in enumerate(self.node_counts)],
            "strategies": list(self.strategies),
            "lambda_schedule": {"offset": DEMO_LAMBDA.offset,
                                "slope_divisor": DEMO_LAMBDA.slope_divisor,
                                "cap": DEMO_LAMBDA.cap},
            "model": {"hidden_dim": 0, "learning_rate": 0.05, "seed": s_model},
            "schedule": {"train_epochs": 60, "integrate_every": 10,
                         "convergence_until_round": 75, "batch_size": 16},
            "shards": {"train_fraction": 0.8, "seed": s_shard},
        }
        path = workdir / "cli_sweep.json"
        path.write_text(json.dumps(config, indent=2))
        return path, config

    def setup(self, spec, rec=None) -> Inputs:
        """The dataset and topologies the CLI builds before its first simulation.

        ``cli.main`` builds them again inside the timed sample; this copy
        times that work as setup_s and gives the checks the topologies.
        The traced run sees the CLI's own calls, so ``rec`` is unused.
        """
        path, config = spec
        ds, shards, model = config["dataset"], config["shards"], config["model"]
        data = dg.synth_classification(classes=ds["classes"], dim=ds["dim"],
                                       per_class=ds["per_class"], seed=ds["seed"],
                                       noise_sigma=ds["noise_sigma"])
        sims = []
        for topo in config["topologies"]:
            graph = dg.generate_semi_random(
                topo["nodes"], dg.TopologyConstraints(target_avg_degree=topo["target_avg_degree"]),
                seed=topo["seed"],
            )
            for kind in self.strategies:
                sims.append((f"{graph.node_count}nodes_{kind}.csv", dg.SimConfig(
                    topology=graph,
                    strategy=strategy(kind),
                    schedule=dg.SimSchedule(**config["schedule"]),
                    model_config=dg.ModelConfig(
                        input_dim=data.dim, class_count=ds["classes"],
                        hidden_dim=model["hidden_dim"], learning_rate=model["learning_rate"],
                        seed=model["seed"]),
                    shard_plan=dg.ShardPlan(node_count=graph.node_count,
                                            train_fraction=shards["train_fraction"],
                                            seed=shards["seed"]),
                )))
        return Inputs(None, None, sims, config_path=path)

    def run(self, inputs: Inputs, outdir: Path, rec=None):
        main = traced(rec, "cli.main", cli.main)
        argv = ["run", "--config", str(inputs.config_path), "--out", str(outdir),
                "--threads", str(self.threads)]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                output = main(argv), None
        except Exception:  # a crash fails every simulation of the sample
            output = None, traceback.format_exc()
        return output, {"cli.main": time.perf_counter() - start}

    def check(self, inputs: Inputs, output, outdir: Path):
        code, error = output
        if code != 0:
            reason = f"cli.main returned {code}" if error is None else f"raised:\n{error}"
            return {name: (None, [reason]) for name, _ in inputs.sims}
        checked = {}
        for csv_name, cfg in inputs.sims:
            path = outdir / csv_name
            if not path.is_file():
                checked[csv_name] = (None, ["CSV not written"])
                continue
            data = path.read_bytes()
            checked[csv_name] = (sha256(data), csv_problems(
                data.decode(), cfg.schedule.convergence_until_round, self.floor))
        summary_path = outdir / "summary.json"
        runs = json.loads(summary_path.read_text())["runs"] if summary_path.is_file() else []
        if len(runs) != len(inputs.sims):
            for _, problems in checked.values():
                problems.append(f"summary.json lists {len(runs)} runs, expected {len(inputs.sims)}")
        return checked


WORKLOADS = {w.name: w for w in (ManyNodes(), WideModel(), GossipHeavy(), CliSweep())}
