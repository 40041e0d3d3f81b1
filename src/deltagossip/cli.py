"""Command-line entry point for reproducible experiments.

Subcommands: gen-topology (write a constrained random graph), run (full
training/convergence experiment from a JSON config, one metrics CSV per
strategy plus a summary), netmodel (analytical throughput table).
All randomness flows from config seeds, and every run executes serially in
this process, so run's --threads never changes output. A run that raises a
SimulationError is reported on stderr and in the summary, the other runs
go on, and run exits 1. A file that cannot be read or written (an OSError)
stops any command with an ``error:`` line and exit 1.

Each run config block is built by the dataclass or function whose fields it
accepts, with that code's defaults (README: "Config blocks"); an unknown key
or a rejected value is a ConfigError naming the block, and so is a sweep
whose runs could not start (a disconnected topology, a shard split the
dataset cannot meet) or would share a CSV. The CLI supplies only what it
derives: ModelConfig.input_dim/class_count from the dataset,
ShardPlan.node_count from the graph, and omitted seeds from the master seed
(dataset seed+1, topology i seed+2+i, model seed, shards seed+3).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .aggregation import IntegrationStrategy, LambdaSchedule, STRATEGY_KINDS
from .dataset import DatasetShard, ShardPlan, load_idx, shard_equal, synth_classification
from .gossipsim import Forwarding, SimConfig, SimSchedule, SimulationError, run_simulation
from .metrics import accuracy_drop_ratio, aggregate_across_nodes, export_csv, write_atomic
from .model import ModelConfig
from .netmodel import fedavg_rate, scenario_table
from .params import require_ints
from .topology import (
    TopologyConstraints,
    generate_semi_random,
    is_connected,
    read_edge_list,
    stats,
    validate,
    write_descriptor,
    write_edge_list,
)


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


TOP_KEYS = {"seed", "output_dir", "dataset", "topologies", "strategies", "model",
            "schedule", "shards", "lambda_schedule", "forwarding"}
SYNTHETIC_KEYS = {"classes", "dim", "per_class", "seed", "noise_sigma"}
IDX_KEYS = {"train_images", "train_labels", "test_images", "test_labels", "downsample"}


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing {key!r} in {where}")
    return mapping[key]


def _fields(cls, *derived: str) -> set[str]:
    """Config keys of a dataclass block: its fields minus those the CLI derives."""
    return {f.name for f in fields(cls)} - set(derived)


def _check_keys(where: str, block, allowed: set[str]) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def _call(where: str, factory, *args, **kwargs):
    try:
        return factory(*args, **kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from err


def _build(where: str, factory, block, allowed: set[str], **defaults):
    """``factory(**block)`` over the CLI-supplied defaults, keys checked first."""
    _check_keys(where, block, allowed)
    return _call(where, factory, **{**defaults, **block})


def _load_dataset(spec, default_seed: int):
    """Build (dataset, global_val_or_None, class_count) from a config block."""
    if not isinstance(spec, dict):
        raise ConfigError("dataset must be a JSON object")
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind == "synthetic":
        data = _build("dataset", synth_classification, spec, SYNTHETIC_KEYS, seed=default_seed)
        return data, None, int(data.labels.max()) + 1
    if kind == "idx":
        _check_keys("dataset", spec, IDX_KEYS)
        splits = [("train_images", "train_labels")]
        if "test_images" in spec or "test_labels" in spec:
            splits.append(("test_images", "test_labels"))
        options = {key: spec[key] for key in spec.keys() & {"downsample"}}
        shards = []
        for images, labels in splits:
            for key in (images, labels):
                path = _require(spec, key, "dataset")
                if not Path(path).exists():
                    raise ConfigError(f"dataset file not found: {path}")
            shards.append(_call("dataset", load_idx, spec[images], spec[labels], **options))
        global_val = None
        if len(shards) == 2:
            global_val = DatasetShard(shards[1].inputs, shards[1].labels, origin="global_val")
        return shards[0], global_val, max(int(s.labels.max()) for s in shards) + 1
    raise ConfigError(f"dataset 'kind' must be 'synthetic' or 'idx', got {kind!r}")


def _generate_topology(nodes, seed, **constraints):
    require_ints(nodes=nodes, seed=seed)
    return generate_semi_random(nodes, TopologyConstraints(**constraints), seed=seed)


def _load_topology(spec, where: str, default_seed: int):
    """One topology entry: inline generation or an edge-list file."""
    if isinstance(spec, dict) and "path" in spec:
        _check_keys(where, spec, {"path"})
        if not Path(spec["path"]).exists():
            raise ConfigError(f"topology file not found: {spec['path']}")
        graph = _call(where, read_edge_list, spec["path"])
        if not is_connected(graph):
            raise ConfigError(f"{where}: topology must be connected")
        return graph
    allowed = {"nodes", "seed"} | _fields(TopologyConstraints)
    return _build(where, _generate_topology, spec, allowed, seed=default_seed)


def _build_experiment(config: dict, seed_override: int | None):
    _check_keys("config", config, TOP_KEYS)
    seed = config.get("seed", 0) if seed_override is None else seed_override
    _call("config", require_ints, seed=seed)
    output_dir = config.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ConfigError(f"config: output_dir must be a string, got {output_dir!r}")

    dataset, global_val, class_count = _load_dataset(
        _require(config, "dataset", "config"), default_seed=seed + 1
    )

    topo_specs = config.get("topologies")
    if not topo_specs or not isinstance(topo_specs, list):
        raise ConfigError("config needs a non-empty 'topologies' list")
    # Runs write <N>nodes_<strategy>.csv, so node counts and strategies must be unique.
    topologies = []
    for i, spec in enumerate(topo_specs):
        graph = _load_topology(spec, f"topologies[{i}]", default_seed=seed + 2 + i)
        sizes = [earlier.node_count for earlier in topologies]
        if graph.node_count in sizes:
            raise ConfigError(f"topologies[{i}]: {graph.node_count} nodes, as in topologies"
                              f"[{sizes.index(graph.node_count)}]; CSV names need distinct counts")
        topologies.append(graph)

    strategies = config.get("strategies", [])
    if not isinstance(strategies, list):
        raise ConfigError(
            f"config: strategies must be a list of strategy names, got {strategies!r}"
        )
    if not strategies:
        raise ConfigError("config needs a non-empty 'strategies' list")
    for j, name in enumerate(strategies):
        if name not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy {name!r}; choose from {STRATEGY_KINDS}")
        if name in strategies[:j]:
            raise ConfigError(f"strategies[{j}]: {name!r} is listed twice")

    schedule_obj = _build("lambda_schedule", LambdaSchedule, config.get("lambda_schedule", {}),
                          _fields(LambdaSchedule))
    model_config = _build(
        "model", ModelConfig, config.get("model", {}),
        _fields(ModelConfig, "input_dim", "class_count"),
        input_dim=dataset.dim, class_count=class_count, seed=seed,
    )
    sim_schedule = _build("schedule", SimSchedule, config.get("schedule", {}), _fields(SimSchedule))
    forwarding = _build("forwarding", Forwarding, config.get("forwarding", {}), _fields(Forwarding))
    shard_spec = config.get("shards", {})

    runs = []
    for i, graph in enumerate(topologies):
        plan = _build("shards", ShardPlan, shard_spec, _fields(ShardPlan, "node_count"),
                      node_count=graph.node_count, seed=seed + 3)
        _call(f"topologies[{i}]", shard_equal, dataset, plan, global_val=global_val)
        for name in strategies:
            strategy = IntegrationStrategy(
                kind=name,
                schedule=schedule_obj if name == "delta_sum" else None,
            )
            runs.append(
                SimConfig(
                    topology=graph,
                    strategy=strategy,
                    schedule=sim_schedule,
                    model_config=model_config,
                    shard_plan=plan,
                    forwarding=forwarding,
                )
            )
    return dataset, global_val, runs


def _reject_constant(name: str):
    """json.load accepts NaN, Infinity and -Infinity, which strict JSON does not."""
    raise ValueError(f"{name} is not a JSON number")


def cmd_run(args) -> int:
    try:
        with open(args.config) as f:
            config = json.load(f, parse_constant=_reject_constant)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 1
    except ValueError as err:  # a JSONDecodeError or a rejected constant
        print(f"error: config is not valid JSON: {err}", file=sys.stderr)
        return 1

    if args.strategy and isinstance(config, dict):
        config["strategies"] = args.strategy

    try:
        dataset, global_val, runs = _build_experiment(config, args.seed)
    except ValueError as err:  # ConfigError, or a SimConfig cross-check
        print(f"error: {err}", file=sys.stderr)
        return 1

    out_dir = Path(args.out or config.get("output_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = {"runs": [], "drop_ratios": {}}
    final_by_strategy: dict[str, dict[int, float]] = {}
    failed = 0
    for sim in runs:
        n = sim.topology.node_count
        name = sim.strategy.kind
        try:
            records = run_simulation(sim, dataset, global_val=global_val)
        except SimulationError as err:
            failed += 1
            print(f"error: {n} nodes {name}: {err}", file=sys.stderr)
            summary["runs"].append({"nodes": n, "strategy": name, "error": str(err)})
            continue
        rows = aggregate_across_nodes(records)
        csv_path = out_dir / f"{n}nodes_{name}.csv"
        export_csv(rows, csv_path)
        last = rows[-1]
        final_by_strategy.setdefault(name, {})[n] = last.test_acc_median
        summary["runs"].append(
            {
                "nodes": n,
                "strategy": name,
                "csv": str(csv_path),
                "final": {
                    "min": last.test_acc_min,
                    "median": last.test_acc_median,
                    "max": last.test_acc_max,
                },
            }
        )
        print(
            f"{n:>3} nodes  {name:<20} final global acc "
            f"median={last.test_acc_median:.4f} "
            f"range=[{last.test_acc_min:.4f}, {last.test_acc_max:.4f}]"
        )

    sizes = {n for series in final_by_strategy.values() for n in series}
    if len(sizes) >= 2 and "delta_sum" in final_by_strategy:
        for name, series in final_by_strategy.items():
            if name == "delta_sum" or len(series) < 2:
                continue
            try:
                ratio = accuracy_drop_ratio(series, final_by_strategy["delta_sum"])
            except ValueError:
                continue
            summary["drop_ratios"][f"delta_sum_vs_{name}"] = ratio
            print(f"accuracy-drop ratio (delta_sum vs {name}): {ratio:.3f}")

    summary_path = out_dir / "summary.json"
    write_atomic(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {summary_path}")
    return 1 if failed else 0


def cmd_gen_topology(args) -> int:
    try:
        constraints = TopologyConstraints(
            min_degree=args.min_degree,
            max_degree=args.max_degree,
            target_avg_degree=args.target_avg_degree,
        )
        graph = generate_semi_random(args.nodes, constraints, args.seed)
    except (ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    edge_path = Path(str(args.out) + ".edges")
    json_path = Path(str(args.out) + ".json")
    edge_path.parent.mkdir(parents=True, exist_ok=True)
    write_edge_list(graph, edge_path)
    write_descriptor(json_path, graph, args.seed, constraints, str(edge_path))
    info = stats(graph)
    report = validate(graph, constraints)
    print(f"wrote {edge_path} and {json_path}")
    print(
        f"nodes={graph.node_count} edges={graph.edge_count} "
        f"avg_degree={info.avg_degree:.2f} diameter={info.diameter} "
        f"bridges={info.bridge_count} connected={report.connected}"
    )
    return 0


def cmd_netmodel(args) -> int:
    node_counts = args.nodes or [10, 25, 50]
    conns = args.conn or [3.3, 3.2, 4.2]
    if len(node_counts) != len(conns):
        print("error: need one --conn per --nodes value", file=sys.stderr)
        return 1
    try:
        rows = scenario_table(
            baseline=args.baseline, ref_n=args.ref_n, ref_conn=args.ref_conn,
            node_counts=node_counts, conns=conns, density_exponent=args.density_exponent,
            update_interval_s=args.fedavg_interval, sync_every_updates=args.fedavg_sync_every,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    header = f"{'N':>5} {'conn':>6} {'expected':>10} {'const_conn':>10} {'conn_incr':>10} {'fedavg':>8}"
    print(header)
    for row in rows:
        print(
            f"{row['n']:>5} {row['conn']:>6.2f} {row['expected']:>10.5f} "
            f"{row['constant_connectivity']:>10.5f} "
            f"{row['connectivity_increase']:>10.5f} {row['fedavg']:>8.3f}"
        )
    ratio = args.baseline / fedavg_rate(args.fedavg_interval, args.fedavg_sync_every)
    print(
        f"gossip/federated per-node rate at reference point: {ratio:.2f}x "
        "(nominal cluster-wide traffic multiple: ~5x)"
    )
    if args.csv:
        lines = ["n,conn,expected,constant_connectivity,connectivity_increase,fedavg\n"]
        lines += [
            f"{row['n']},{row['conn']:.6f},{row['expected']:.6f},"
            f"{row['constant_connectivity']:.6f},"
            f"{row['connectivity_increase']:.6f},{row['fedavg']:.6f}\n"
            for row in rows
        ]
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        write_atomic(args.csv, "".join(lines))
        print(f"wrote {args.csv}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltagossip",
        description="Deterministic gossip-learning experiments and throughput models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_topo = sub.add_parser("gen-topology", help="generate a constrained random topology")
    p_topo.add_argument("--nodes", type=int, required=True)
    p_topo.add_argument("--target-avg-degree", type=float, required=True)
    p_topo.add_argument("--seed", type=int, default=0)
    p_topo.add_argument("--min-degree", type=int, default=TopologyConstraints.min_degree)
    p_topo.add_argument("--max-degree", type=int, default=TopologyConstraints.max_degree)
    p_topo.add_argument("--out", required=True, help="output prefix (.edges/.json)")
    p_topo.set_defaults(func=cmd_gen_topology)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument(
        "--strategy",
        action="append",
        help="strategy to run (repeatable; overrides config list)",
    )
    p_run.add_argument("--seed", type=int, help="override the master seed")
    p_run.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="accepted for compatibility and must be >= 1; every run executes "
        "serially in this process, so it never changes results",
    )
    p_run.set_defaults(func=cmd_run)

    p_net = sub.add_parser("netmodel", help="print analytical throughput scenarios")
    p_net.add_argument("--baseline", type=float, default=1.77065882205598)
    p_net.add_argument("--ref-n", type=int, default=10)
    p_net.add_argument("--ref-conn", type=float, default=3.3)
    p_net.add_argument("--nodes", action="append", type=int)
    p_net.add_argument("--conn", action="append", type=float)
    p_net.add_argument("--density-exponent", type=float, default=1.0)
    p_net.add_argument("--fedavg-interval", type=float, default=5.0)
    p_net.add_argument("--fedavg-sync-every", type=float, default=20.0)
    p_net.add_argument("--csv", help="also export the grid as CSV")
    p_net.set_defaults(func=cmd_netmodel)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:  # a path that is, or lies under, a file; an unreadable file
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
