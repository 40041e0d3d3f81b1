"""Outside-in span recorder for the traced benchmark run.

The benchmark never edits the simulator. For a traced run it replaces the
names the simulator looks up at call time (module globals such as
``gossipsim.evaluate``, and two class attributes) with wrappers that record
a span or bump a counter, and puts the originals back afterwards.

Spans stay in memory, one log per thread. Each span remembers its parent,
the innermost span still open in the same thread, so a span's self time is
its duration minus the durations of its direct children. Work a thread
pool does for a span shows up as root spans in the worker threads; the
submitting span's self time then includes the time it waited on the pool.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from statistics import median

# A span inside a thread log is [name, start, end, parent, child_s]; parent
# indexes the same log and child_s sums the durations of direct children.
_START, _END, _CHILD = 1, 2, 4


class _ThreadLog:
    __slots__ = ("thread", "spans", "stack", "counts")

    def __init__(self, thread: str):
        self.thread = thread
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()


@dataclass(frozen=True)
class SpanTotal:
    calls: int
    total_s: float
    self_s: float


_NO_SPAN = SpanTotal(0, 0.0, 0.0)


class Recorder:
    """Collects spans and counters from every thread that calls a wrapper."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def timed(self, name: str, fn, count=None):
        """Wrap ``fn`` so every call records a span named ``name``.

        ``count(args, kwargs, result)``, when given, returns the counter
        increments for one completed call.
        """
        clock = self._clock

        def wrapper(*args, **kwargs):
            log = self._log()
            parent = log.stack[-1] if log.stack else None
            span = [name, clock(), None, parent, 0.0]
            log.stack.append(len(log.spans))
            log.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                log.stack.pop()
                if parent is not None:
                    log.spans[parent][_CHILD] += span[_END] - span[_START]
            if count is not None:
                log.counts.update(count(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, count):
        """Wrap ``fn`` so every call adds ``count(args, kwargs, result)``."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._log().counts.update(count(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def totals(self) -> dict[str, SpanTotal]:
        """Calls, summed duration and summed self time per span name."""
        acc: dict[str, list] = {}
        for log in self._logs:
            for name, start, end, _, child in log.spans:
                entry = acc.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += end - start
                entry[2] += end - start - child
        return {name: SpanTotal(*entry) for name, entry in acc.items()}

    def counts(self) -> Counter:
        merged: Counter = Counter()
        for log in self._logs:
            merged.update(log.counts)
        return merged

    def write_spans(self, path: Path) -> None:
        """One CSV line per span; parent is an index into the same thread."""
        with open(path, "w", newline="") as f:
            f.write("thread,index,parent,name,start_s,end_s,self_s\n")
            for log in self._logs:
                for i, (name, start, end, parent, child) in enumerate(log.spans):
                    f.write(
                        f"{log.thread},{i},{'' if parent is None else parent},{name},"
                        f"{start:.9f},{end:.9f},{end - start - child:.9f}\n"
                    )


def traced(rec: Recorder | None, name: str, fn, count=None):
    """``fn`` itself when not tracing, else its span-recording wrapper."""
    return fn if rec is None else rec.timed(name, fn, count)


def _contributors(position: int, extra: int = 0):
    def count(args, kwargs, result):
        return {"aggregation.calls": 1, "aggregation.contributors": extra + len(args[position])}

    return count


def _sgd_flop(args, kwargs, result):
    # Matmul FLOPs of one forward+backward pass; elementwise work is ignored.
    model, batch = args
    cfg = model.config
    b, d, h, k = batch.size, cfg.input_dim, cfg.hidden_dim, cfg.class_count
    flop = 4 * b * d * h + 6 * b * h * k if h else 4 * b * d * k
    return {"model.sgd_steps": 1, "model.train_flop": flop}


def _vector_built(args, kwargs, result):
    return {"params.vectors_built": 1, "params.bytes_copied": args[0].values.nbytes}


def _eval_count(args, kwargs, result):
    return {"model.eval_samples": args[1].size}


def _messages(args, kwargs, result):
    return {"gossipsim.messages": len(result)}


def _record(args, kwargs, result):
    return {"metrics.records": 1}


def _csv_bytes(args, kwargs, result):
    return {"metrics.csv_bytes": Path(args[1]).stat().st_size}


STRATEGY_SPANS = {
    "delta_sum_integrate": ("aggregation.delta_sum", _contributors(1, extra=1)),
    "average_full_models": ("aggregation.average", _contributors(0)),
    "variance_corrected_average": ("aggregation.variance_corrected", _contributors(0)),
    "fedavg_integrate": ("aggregation.fedavg", _contributors(1)),
    "sample_weighted_integrate": ("aggregation.sample_weighted", _contributors(1)),
}


def wrap_run_calls(rec: Recorder | None, aggregate, export, run_simulation):
    """The three calls a caller of the engine makes, wrapped for ``rec``."""
    return (
        traced(rec, "metrics.aggregate", aggregate),
        traced(rec, "metrics.export", export, _csv_bytes),
        traced(rec, "gossipsim.run_simulation", run_simulation),
    )


@contextmanager
def instrument(rec: Recorder):
    """Patch the simulator's call sites to report into ``rec``; undo on exit."""
    from deltagossip import cli, gossipsim, model, params

    patches = [
        (gossipsim, "train_epochs", rec.timed("model.train", gossipsim.train_epochs)),
        (gossipsim, "evaluate", rec.timed("model.eval", gossipsim.evaluate, _eval_count)),
        (gossipsim, "shard_equal", rec.timed("dataset.shard", gossipsim.shard_equal)),
        (gossipsim, "init_weights", rec.timed("model.init", gossipsim.init_weights)),
        (gossipsim, "validate_topology",
         rec.timed("topology.validate", gossipsim.validate_topology)),
        (gossipsim, "disseminate",
         rec.timed("gossipsim.disseminate", gossipsim.disseminate, _messages)),
        (gossipsim, "integration_step",
         rec.timed("gossipsim.integration", gossipsim.integration_step)),
        (gossipsim, "convergence_round",
         rec.timed("gossipsim.convergence", gossipsim.convergence_round)),
        (gossipsim, "MetricsRecord",
         rec.timed("metrics.record", gossipsim.MetricsRecord, _record)),
        (gossipsim.NodeState, "package_update",
         rec.timed("gossipsim.package", gossipsim.NodeState.package_update)),
        (model, "sgd_batch_step", rec.counted(model.sgd_batch_step, _sgd_flop)),
        (params.ParameterVector, "__init__",
         rec.counted(params.ParameterVector.__init__, _vector_built)),
        (cli, "synth_classification", rec.timed("dataset.synth", cli.synth_classification)),
        (cli, "load_idx", rec.timed("dataset.idx_load", cli.load_idx)),
        (cli, "generate_semi_random",
         rec.timed("topology.generate", cli.generate_semi_random)),
    ]
    patches += [
        (gossipsim, attr, rec.timed(name, getattr(gossipsim, attr), count))
        for attr, (name, count) in STRATEGY_SPANS.items()
    ]
    aggregate, export, run_simulation = wrap_run_calls(
        rec, cli.aggregate_across_nodes, cli.export_csv, cli.run_simulation
    )
    patches += [
        (cli, "aggregate_across_nodes", aggregate),
        (cli, "export_csv", export),
        (cli, "run_simulation", run_simulation),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield rec
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# Per-layer metrics that count work; they must repeat exactly between samples.
COUNT_METRICS = (
    "params.vectors_built", "params.bytes_copied", "model.sgd_steps", "model.train_flop",
    "model.eval_calls", "model.eval_samples", "aggregation.calls", "aggregation.contributors",
    "gossipsim.messages", "metrics.records", "metrics.csv_bytes",
)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_frac, from one sample."""
    spans = rec.totals()
    counts = rec.counts()

    def total(name):
        return spans.get(name, _NO_SPAN).total_s

    def self_time(name):
        return spans.get(name, _NO_SPAN).self_s

    train_s = total("model.train")
    run_s = total("gossipsim.run_simulation")
    exchange_s = sum(total(name) for name, _ in STRATEGY_SPANS.values()) + sum(
        self_time(name) for name in ("gossipsim.integration", "gossipsim.convergence")
    ) + total("gossipsim.package") + total("gossipsim.disseminate")
    values = {
        "params.vectors_built": counts["params.vectors_built"],
        "params.bytes_copied": counts["params.bytes_copied"],
        "model.train_s": train_s,
        "model.sgd_steps": counts["model.sgd_steps"],
        "model.train_flop": counts["model.train_flop"],
        "model.train_gflop_per_s": counts["model.train_flop"] / train_s / 1e9 if train_s else 0.0,
        "model.eval_s": total("model.eval"),
        "model.eval_calls": spans.get("model.eval", _NO_SPAN).calls,
        "model.eval_samples": counts["model.eval_samples"],
        "aggregation.calls": counts["aggregation.calls"],
        "aggregation.contributors": counts["aggregation.contributors"],
        "gossipsim.run_simulation_s": run_s,
        "gossipsim.engine_self_s": self_time("gossipsim.run_simulation"),
        "gossipsim.integration_self_s": self_time("gossipsim.integration"),
        "gossipsim.convergence_self_s": self_time("gossipsim.convergence"),
        "gossipsim.package_s": total("gossipsim.package"),
        "gossipsim.disseminate_s": total("gossipsim.disseminate"),
        "gossipsim.messages": counts["gossipsim.messages"],
        "gossipsim.exchange_frac": exchange_s / run_s if run_s else 0.0,
        "dataset.synth_s": total("dataset.synth"),
        "dataset.idx_load_s": total("dataset.idx_load"),
        "dataset.shard_s": total("dataset.shard"),
        "topology.generate_s": total("topology.generate"),
        "topology.validate_s": total("topology.validate"),
        "metrics.records": counts["metrics.records"],
        "metrics.aggregate_s": total("metrics.aggregate"),
        "metrics.export_s": total("metrics.export"),
        "metrics.csv_bytes": counts["metrics.csv_bytes"],
        "cli.self_s": self_time("cli.main"),
    }
    for name, _ in STRATEGY_SPANS.values():
        values[name + "_s"] = total(name)
    return values


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Median of each time over the samples; counts, which repeat, as they are."""
    return {name: value if name in COUNT_METRICS else median(s[name] for s in samples)
            for name, value in samples[0].items()}
