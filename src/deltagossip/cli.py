"""Command-line entry point for reproducible experiments.

Subcommands: gen-topology (write a constrained random graph), run (full
training/convergence experiment from a JSON config, one metrics CSV per
strategy plus a summary), netmodel (analytical throughput table).
All randomness flows from config seeds, and every run executes serially in
this process, so run's --threads never changes output. The runs of one
topology differ only in strategy, so they share one gossipsim.start_run:
each after the first goes on from the first's state at epoch
integrate_every, with the same records as a run from epoch 1, and the
start is dropped after the topology's last run. run's --seed,
--strategy and --out each replace the config's seed, strategies and
output_dir before the config is read. A run that raises a SimulationError
is reported on stderr and in the summary, the other runs go on, and run
exits 1. A file that cannot be read or written (an OSError) stops any
command with an ``error:`` line and exit 1.

run reads every config block with _build (README: "Config blocks"): the
block's keys are the parameters of the class or function it builds, minus
those the CLI derives, and a parameter with no default is a required key.
An unknown or missing key, a value the built code rejects and a file that
is not there are a ConfigError naming the block. So is a sweep whose runs
would share a CSV, or whose inputs for a topology fail
gossipsim.prepare_inputs, the input check run_simulation makes. The CLI
derives only ModelConfig.input_dim/class_count from the dataset,
ShardPlan.node_count from the graph, and omitted seeds from the master
seed (dataset seed+1, topology i seed+2+i, model seed, shards seed+3).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

from .aggregation import IntegrationStrategy, LambdaSchedule
from .dataset import DatasetShard, ShardPlan, load_idx, synth_classification
from .gossipsim import (Forwarding, SimConfig, SimSchedule, SimulationError, prepare_inputs,
                        run_simulation, start_run)
from .metrics import accuracy_drop_ratio, aggregate_across_nodes, export_csv, write_atomic
from .model import ModelConfig
from .netmodel import scenario_table
from .params import require_ints
from .topology import (
    GenerationBudgetError,
    TopologyConstraints,
    generate_semi_random,
    read_edge_list,
    stats,
    write_descriptor,
    write_edge_list,
)

_EMPTY = MappingProxyType({})  # a read-only {}: an omitted block, whose keys all take defaults
# scenario_table's defaults, the paper's reference scenario, are the netmodel flags' defaults
_SCENARIO = {name: p.default for name, p in inspect.signature(scenario_table).parameters.items()}


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


def _keys(factory, derived=()) -> dict[str, bool]:
    """``factory``'s parameters minus ``derived``, each mapped to whether it is
    required: True when it has no default."""
    return {name: param.default is param.empty
            for name, param in inspect.signature(factory).parameters.items()
            if name not in derived}


def _call(where: str, factory, *args, **kwargs):
    try:
        return factory(*args, **kwargs)
    except ConfigError:
        raise
    except FileNotFoundError as err:
        raise ConfigError(f"{where}: file not found: {err.filename}") from err
    except (TypeError, ValueError, GenerationBudgetError) as err:
        raise ConfigError(f"{where}: {err}") from err


def _build(where: str, factory, block, derived=_EMPTY, parts=_EMPTY, selectors=(),
           **defaults):
    """``factory(**defaults, **block, **derived)``, the block's keys checked first.

    The block takes the factory's parameters except the ``derived`` ones the
    CLI supplies; one with no default, in the factory or in ``defaults``, is
    required. ``parts`` maps a parameter to the class that builds it, by this
    same rule, from the block's keys that are that class's parameters.
    ``selectors`` are the keys the caller read to choose ``factory`` (the
    dataset's ``kind``): allowed in the block, and not passed on.
    """
    if not isinstance(block, Mapping):
        raise ConfigError(f"{where} must be a JSON object")
    own = _keys(factory, {*derived, *parts})
    part_keys = {name: _keys(cls) for name, cls in parts.items()}
    allowed = set(own).union(*part_keys.values(), selectors)
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")
    missing = [key for key, required in own.items()
               if required and key not in block and key not in defaults]
    if missing:
        raise ConfigError(f"missing {missing} in {where}")
    built = {name: _build(where, cls, {k: v for k, v in block.items() if k in part_keys[name]})
             for name, cls in parts.items()}
    chosen = {key: value for key, value in block.items() if key in own}
    return _call(where, factory, **{**defaults, **chosen, **derived, **built})


def _idx_dataset(train_images, train_labels, test_images=None, test_labels=None,
                 downsample: int = 1):
    """An IDX dataset block: (training set, its test split as global_val or None)."""
    if (test_images is None) != (test_labels is None):
        raise ValueError("test_images and test_labels go together")
    dataset = load_idx(train_images, train_labels, downsample)
    if test_images is None:
        return dataset, None
    test = load_idx(test_images, test_labels, downsample)
    return dataset, DatasetShard(test.inputs, test.labels, origin="global_val")


def _load_dataset(spec, default_seed: int):
    """(dataset, global_val or None, class_count) from the dataset block."""
    if not isinstance(spec, dict):
        raise ConfigError("dataset must be a JSON object")
    if "kind" not in spec:
        raise ConfigError("missing ['kind'] in dataset")
    kind = spec["kind"]
    if kind == "synthetic":
        dataset, global_val = _build("dataset", synth_classification, spec, selectors=["kind"],
                                     seed=default_seed), None
    elif kind == "idx":
        dataset, global_val = _build("dataset", _idx_dataset, spec, selectors=["kind"])
    else:
        raise ConfigError(f"dataset 'kind' must be 'synthetic' or 'idx', got {kind!r}")
    class_count = max(s.top_label for s in (dataset, global_val) if s is not None) + 1
    if class_count < 2:
        raise ConfigError("dataset: every label is 0, so the labels name one class; "
                          "a model needs at least 2")
    return dataset, global_val, class_count


def _load_topology(spec, where: str, default_seed: int):
    """One topology entry: an edge-list file if it names a path, else a generated graph."""
    if isinstance(spec, dict) and "path" in spec:
        return _build(where, read_edge_list, spec)
    return _build(where, generate_semi_random, spec, parts={"constraints": TopologyConstraints},
                  seed=default_seed)


def _experiment(dataset, topologies, strategies, seed=0, output_dir=".", model=_EMPTY,
                schedule=_EMPTY, shards=_EMPTY, lambda_schedule=_EMPTY, forwarding=_EMPTY):
    """The config's top level: (dataset, global_val, runs, out_dir), where runs
    holds one list per topology with one run per strategy."""
    require_ints(0, seed=seed)
    if not isinstance(output_dir, str):
        raise TypeError(f"output_dir must be a string, got {output_dir!r}")
    if not isinstance(topologies, list) or not topologies:
        raise ValueError(f"topologies must be a non-empty list, got {topologies!r}")
    if not isinstance(strategies, list):
        raise TypeError(f"strategies must be a list of strategy names, got {strategies!r}")
    if not strategies:
        raise ValueError("strategies must name at least one strategy")

    data, global_val, class_count = _load_dataset(dataset, default_seed=seed + 1)
    # Runs write <N>nodes_<strategy>.csv, so node counts and strategies must be unique.
    graphs = []
    for i, spec in enumerate(topologies):
        graph = _load_topology(spec, f"topologies[{i}]", default_seed=seed + 2 + i)
        sizes = [earlier.node_count for earlier in graphs]
        if graph.node_count in sizes:
            raise ConfigError(f"topologies[{i}]: {graph.node_count} nodes, as in topologies"
                              f"[{sizes.index(graph.node_count)}]; CSV names need distinct counts")
        graphs.append(graph)
    ramp = _build("lambda_schedule", LambdaSchedule, lambda_schedule)
    integrations = []
    for j, name in enumerate(strategies):
        if name in strategies[:j]:
            raise ConfigError(f"strategies[{j}]: {name!r} is listed twice")
        integrations.append(_call(f"strategies[{j}]", IntegrationStrategy, kind=name,
                                  schedule=ramp if name == "delta_sum" else None))

    model_config = _build("model", ModelConfig, model,
                          {"input_dim": data.dim, "class_count": class_count}, seed=seed)
    sim_schedule = _build("schedule", SimSchedule, schedule)
    forwarding_rule = _build("forwarding", Forwarding, forwarding)
    runs = []
    for i, graph in enumerate(graphs):
        plan = _build("shards", ShardPlan, shards, {"node_count": graph.node_count},
                      seed=seed + 3)
        runs.append([SimConfig(topology=graph, strategy=strategy, schedule=sim_schedule,
                               model_config=model_config, shard_plan=plan,
                               forwarding=forwarding_rule)
                     for strategy in integrations])
        _call(f"topologies[{i}]", prepare_inputs, runs[-1][0], data, global_val=global_val)
    return data, global_val, runs, Path(output_dir)


def _reject_constant(name: str):
    """json.load accepts NaN, Infinity and -Infinity, which strict JSON does not."""
    raise ValueError(f"{name} is not a JSON number")


def _unique_keys(pairs) -> dict:
    """json.load's object hook: the object as a dict, or ValueError naming a key it
    lists twice, whose first value json.load alone would silently drop."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def cmd_run(args) -> int:
    try:
        with open(args.config) as f:
            config = json.load(f, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 1
    except ValueError as err:  # a JSONDecodeError, a rejected constant or a repeated key
        print(f"error: config is not valid JSON: {err}", file=sys.stderr)
        return 1

    flags = {"seed": args.seed, "strategies": args.strategy, "output_dir": args.out}
    if isinstance(config, dict):
        config = {**config, **{key: value for key, value in flags.items() if value is not None}}
    try:
        dataset, global_val, runs, out_dir = _build("config", _experiment, config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = {"runs": [], "drop_ratios": {}}
    final_by_strategy: dict[str, dict[int, float]] = {}
    failed = 0
    for topology_runs in runs:
        # A topology's runs share their epochs before the first integration.
        start = start_run(topology_runs[0], dataset, global_val)
        for sim in topology_runs:
            n = sim.topology.node_count
            name = sim.strategy.kind
            try:
                records = run_simulation(sim, dataset, global_val=global_val, start=start)
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
            final = {"min": last.test_acc_min, "median": last.test_acc_median,
                     "max": last.test_acc_max}
            summary["runs"].append({"nodes": n, "strategy": name, "csv": str(csv_path),
                                    "final": final})
            print(f"{n:>3} nodes  {name:<20} final global acc "
                  f"median={last.test_acc_median:.4f} "
                  f"range=[{last.test_acc_min:.4f}, {last.test_acc_max:.4f}]")
        del start  # the next topology's start is built without this one's inputs

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
    print(f"wrote {edge_path} and {json_path}")
    print(
        f"nodes={graph.node_count} edges={graph.edge_count} "
        f"avg_degree={info.avg_degree:.2f} diameter={info.diameter} "
        f"bridges={info.bridge_count}"
    )
    return 0


def cmd_netmodel(args) -> int:
    node_counts = args.nodes or _SCENARIO["node_counts"]
    conns = args.conn or _SCENARIO["conns"]
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
    ratio = rows[0]["constant_connectivity"] / rows[0]["fedavg"]
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
    p_run.add_argument("--out", help="output directory (replaces output_dir)")
    p_run.add_argument("--strategy", action="append",
                       help="strategy to run (repeatable; replaces strategies)")
    p_run.add_argument("--seed", type=int, help="master seed (replaces seed)")
    p_run.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="accepted for compatibility and must be >= 1; every run executes "
        "serially in this process, so it never changes results",
    )
    p_run.set_defaults(func=cmd_run)

    p_net = sub.add_parser("netmodel", help="print analytical throughput scenarios")
    p_net.add_argument("--baseline", type=float, default=_SCENARIO["baseline"])
    p_net.add_argument("--ref-n", type=int, default=_SCENARIO["ref_n"])
    p_net.add_argument("--ref-conn", type=float, default=_SCENARIO["ref_conn"])
    p_net.add_argument("--nodes", action="append", type=int)
    p_net.add_argument("--conn", action="append", type=float)
    p_net.add_argument("--density-exponent", type=float, default=_SCENARIO["density_exponent"])
    p_net.add_argument("--fedavg-interval", type=float, default=_SCENARIO["update_interval_s"])
    p_net.add_argument("--fedavg-sync-every", type=float, default=_SCENARIO["sync_every_updates"])
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
