"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload many_nodes --seed 0 --seconds 42 --trace 0

Run from anywhere inside a checkout; the simulator is imported from the
checkout's ``src/`` and nowhere else. Inputs come from ``--seed`` only.
Until ``--seconds`` would be exceeded, the run repeats: build the inputs
several times, then run all of the workload's simulations once (a sample)
and check its outputs. setup_s is the median build time; run_s sums each
simulation's median time (see ``checks.run_seconds``). Both are scaled to
a fixed machine speed by a reference kernel timed around every sample
(see ``REFERENCE_S``); the raw wall times are in the detail line.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced samples and reports the per-layer metrics, with
trace.overhead_frac as traced over untraced sample time, minus 1.

stdout carries the environment, a detail line (per-sample times, CSV
digests, problems) and, last, the result object. Outputs and the span log
of the last traced sample go to ``.bench_out/<workload>/``. The exit code
is 0 when every simulation passed its checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import numpy as np

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Before each untraced sample the inputs are built at least SETUP_REPEATS
# times and until SETUP_ROUND_S has passed, so millisecond set-ups get
# enough repeats for a steady median.
SETUP_REPEATS = 3
SETUP_ROUND_S = 0.2
# The shared 2-core host the bounds were set on ran the same code up to 2x
# slower for tens of seconds at a time, with CPU time equal to wall time.
# A fixed loop of small NumPy calls, the simulator's own mix, slows by the
# same share: over 150 s its time ratio to a small simulation stayed within
# about 5% while both swung by 60%. A pure-Python loop did not track it.
# So the end-to-end times are scaled to the speed at which this kernel takes
# REFERENCE_S (its typical time on that host), timed around every sample.
REFERENCE_S = 0.05
REFERENCE_REPEATS = 5


def reference_kernel() -> None:
    """Softmax-regression SGD on fixed 16x16 batches: many small NumPy calls."""
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((16, 16))
    w = rng.standard_normal((16, 10)) * 0.1
    for _ in range(2500):
        z = x @ w
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        w = w - 0.01 * (x.T @ p)
        if not np.isfinite(w).all():
            raise FloatingPointError("reference kernel diverged")


def reference_seconds() -> float:
    """Median time of the reference kernel over a few back-to-back runs."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        begin = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - begin)
    return median(times)


def declared_metrics(kind: str) -> list[dict]:
    """The metrics BENCHMARK.json declares under ``kind``, with their units."""
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)[kind]


def import_simulator() -> None:
    """Put the checkout's ``src/`` first on the path and import from it."""
    package = SRC / "deltagossip"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: simulator sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import deltagossip

    if Path(deltagossip.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: deltagossip imported from {deltagossip.__file__}")


def peak_rss_mb() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return usage / 1024.0  # ru_maxrss is in KiB on Linux


def run_sample(workload, inputs, simdir: Path, rec=None):
    """Run the workload once; wall time per simulation, and checked outputs."""
    shutil.rmtree(simdir, ignore_errors=True)
    simdir.mkdir(parents=True)
    gc.collect()  # every sample starts without the previous one's garbage
    output, times = workload.run(inputs, simdir, rec)
    try:
        results = workload.check(inputs, output, simdir)
    except Exception:  # unreadable output fails the sample, not the run
        error = traceback.format_exc()
        results = {name: (None, [f"check raised:\n{error}"]) for name, _ in inputs.sims}
    return times, results


def measure(workload, spec, simdir, tally, deadline):
    """Input builds and untraced samples, interleaved, until the deadline.

    Interleaving lets setup_s see the same machine state as run_s, instead
    of only the first moments of the process. The reference kernel is timed
    before the first round and after every round; each round's times are
    scaled by the kernel times on either side of it.
    """
    setup_times, samples, wall = [], [], {"setup": [], "samples": [], "reference": []}
    reference_kernel()  # untimed: the process's first calls ran up to 2x slow
    before = reference_seconds()
    wall["reference"].append(before)
    while True:
        start = time.perf_counter()
        builds = []
        while len(builds) < SETUP_REPEATS or time.perf_counter() - start < SETUP_ROUND_S:
            begin = time.perf_counter()
            inputs = workload.setup(spec)
            builds.append(time.perf_counter() - begin)
        times, results = run_sample(workload, inputs, simdir)
        tally.add_sample(results)
        after = reference_seconds()
        factor = checks.speed_factor(before, after, REFERENCE_S)
        setup_times.extend(seconds * factor for seconds in builds)
        samples.append({unit: seconds * factor for unit, seconds in times.items()})
        wall["setup"].append(median(builds))
        wall["samples"].append(times)
        wall["reference"].append(after)
        before = after
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return inputs, setup_times, samples, wall


def measure_traced(workload, spec, simdir, tally, deadline, span_log: Path):
    """Alternate untraced and traced samples; per-layer medians and overhead."""
    inputs = workload.setup(spec)
    plain, traced, layers = [], [], []
    while True:
        start = time.perf_counter()
        times, results = run_sample(workload, inputs, simdir)
        tally.add_sample(results)
        plain.append(times)

        rec = spans.Recorder()
        with spans.instrument(rec):
            traced_inputs = workload.setup(spec, rec)
            times, results = run_sample(workload, traced_inputs, simdir, rec)
        sample = spans.layer_metrics(rec)
        problems = []
        expected = checks.expected_messages(traced_inputs.configs)
        if sample["gossipsim.messages"] != expected:
            problems.append(f"gossipsim.messages={sample['gossipsim.messages']}, "
                            f"expected {expected}")
        changed = [name for name in spans.COUNT_METRICS
                   if layers and sample[name] != layers[0][name]]
        if changed:
            problems.append(f"counts differ between traced samples: {changed}")
        tally.add_sample(results, problems)
        traced.append(times)
        layers.append(sample)
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break

    rec.write_spans(span_log)
    values = spans.median_metrics(layers)
    values["trace.overhead_frac"] = checks.run_seconds(traced) / checks.run_seconds(plain) - 1.0
    return values, {"untraced": plain, "traced": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_simulator()
    import workloads  # imports the simulator, so only after import_simulator()

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    print(json.dumps({"environment": checks.environment(ROOT)}), flush=True)

    outdir = OUT / workload.name
    shutil.rmtree(outdir, ignore_errors=True)
    (outdir / "inputs").mkdir(parents=True)
    golden = None
    if args.seed == checks.DEFAULT_SEED:
        golden = checks.load_golden()["digests"][workload.name]
    tally = checks.Tally(golden)

    spec = workload.prepare(args.seed, outdir / "inputs")
    deadline = time.perf_counter() + args.seconds
    simdir = outdir / "csv"
    if args.trace:
        values, samples = measure_traced(workload, spec, simdir, tally, deadline,
                                         outdir / "spans.csv")
        kind = "per_layer"
    else:
        inputs, setup_times, samples, wall = measure(workload, spec, simdir, tally, deadline)
        run_s = checks.run_seconds(samples)
        values = {
            "run_s": run_s,
            "node_rounds_per_s": checks.node_rounds(inputs.configs) / run_s,
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        kind = "end_to_end"
        samples = {"run_s_by_unit": samples, "setup_count": len(setup_times),
                   "wall_s": wall}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared_metrics(kind)}

    for message in tally.messages:
        print(message, file=sys.stderr)
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "samples": samples,
        "digests": tally.digests,
        "pinned_digests_checked": golden is not None,
        "problems": tally.messages[:20],
    }))
    correct = tally.attempted > 0 and tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
