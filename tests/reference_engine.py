"""gossipsim.run_simulation written as the plainest per-node loops: the oracle for its wiring.

Nothing here shares the engine's wiring or its training. Each node trains
alone, node after node and epoch after epoch, through the allocating SGD
step that train_epochs first used (``frozen_trained``), one epoch per call,
recomposed as ``before + (after - before)`` as train_epochs recomposes. The
reach sets come from a breadth-first walk of their own, packaging is
``delta = w - base`` and then ``w = base + delta``, the delta strategies add
onto zeros in ascending sender order, averages are
``np.stack(...).mean(axis=0)``, and accuracy is the definition,
``argmax(log_softmax(logits))``. ``run_reference`` returns what the engine
should: its records, and the weight bytes each evaluation sees, in the
engine's evaluation order.

``loss_and_gradient`` is the one way the tests read a loss or gradient of
the library's own kernel, ``model._loss_and_gradient``.
"""

import numpy as np

from deltagossip import model as model_module
from deltagossip.gossipsim import SimulationError
from deltagossip.metrics import MetricsRecord
from deltagossip.model import NON_FINITE_LOSS, NON_FINITE_WEIGHTS, TrainableModel, init_weights


def loss_and_gradient(config, w, batch):
    """(loss, gradient (P,)) of the library's kernel for one model's weights w (P,) on a batch."""
    grad = np.empty(len(w))
    loss = model_module._loss_and_gradient(config, w, batch.inputs, batch.labels, grad)
    return float(loss), grad


def frozen_layers(config, w):
    d, h, k = config.input_dim, config.hidden_dim, config.class_count
    lead = w.shape[:-1]
    out = h * (d + 1)
    w2, b2 = w[..., out:-k].reshape(*lead, -1, k), w[..., None, -k:]
    if h == 0:
        return None, None, w2, b2
    return w[..., : d * h].reshape(*lead, d, h), w[..., None, d * h : out], w2, b2


def frozen_loss_and_gradient(config, w, x, y):
    """The allocating stacked step that train_epochs first used, operation for
    operation (_forward and _log_softmax inlined): fresh temporaries everywhere
    and one np.concatenate of the segments."""
    w1, b1, w2, b2 = frozen_layers(config, w)
    hidden = x if w1 is None else np.tanh(x @ w1 + b1)
    logits = hidden @ w2 + b2
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    pick = (*np.indices(y.shape, sparse=True), y)
    loss = -log_probs[pick].mean(axis=-1)

    d_logits = np.exp(log_probs)
    d_logits[pick] -= 1.0
    d_logits /= y.shape[-1]

    grads = [np.swapaxes(hidden, -1, -2) @ d_logits, d_logits.sum(axis=-2)]
    if config.hidden_dim > 0:
        w2 = frozen_layers(config, w)[2]
        d_hidden = (d_logits @ np.swapaxes(w2, -1, -2)) * (1.0 - hidden**2)
        grads = [np.swapaxes(x, -1, -2) @ d_hidden, d_hidden.sum(axis=-2), *grads]
    lead = w.shape[:-1]
    return loss, np.concatenate([g.reshape(*lead, -1) for g in grads], axis=-1)


def frozen_trained(config, before, inputs, labels, epochs, batch_size, start_epoch):
    """The trained weights (G, P) of the allocating step's training loop over take batches.

    The first non-finite loss, or weights non-finite at the end of an epoch,
    is a FloatingPointError with the text train_epochs gives a lone model.
    """
    w = before.copy()
    size = labels.shape[1]
    for e in range(epochs):
        order = np.random.default_rng([config.seed, start_epoch + e]).permutation(size)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, size, batch_size):
                idx = order[lo : lo + batch_size]
                x, y = inputs.take(idx, axis=1), labels.take(idx, axis=1)
                loss, grad = frozen_loss_and_gradient(config, w, x, y)
                if not np.isfinite(loss).all():
                    raise FloatingPointError(NON_FINITE_LOSS if np.isfinite(w).all()
                                             else NON_FINITE_WEIGHTS)
                w = w - config.learning_rate * grad
        if not np.isfinite(w).all():
            raise FloatingPointError(NON_FINITE_WEIGHTS)
    return w


def log_softmax_argmax(logits):
    """The prediction rule of ``evaluate``: the argmax of the log-softmax of logits (n, k)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return np.argmax(log_probs, axis=1)


def segments(config):
    """Slices of the flat weights: hidden_w, hidden_b, out_w, out_b (out_* alone at hidden 0)."""
    d, h, k = config.input_dim, config.hidden_dim, config.class_count
    bounds = np.cumsum([0] + ([d * h, h, h * k, k] if h else [d * k, k]))
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def accuracy(config, w, shard):
    d, h, k = config.input_dim, config.hidden_dim, config.class_count
    x = shard.inputs
    if h:
        x = np.tanh(x @ w[: d * h].reshape(d, h) + w[d * h : d * h + h])
    logits = x @ w[d * h + h : -k].reshape(-1, k) + w[-k:]
    return float(np.count_nonzero(log_softmax_argmax(logits) == shard.labels) / shard.size)


def reach(adjacency, sender, max_hops):
    """Every node within max_hops of the sender, the sender left out."""
    seen, frontier = {sender}, [sender]
    for _ in range(max_hops):
        nxt = []
        for node in frontier:
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    nxt.append(neighbor)
        frontier = nxt
    return seen - {sender}


def variance_corrected(fulls, config):
    """aggregation.variance_corrected_average, copied, on plain arrays."""
    stacked = np.stack(fulls, axis=0)
    averaged = stacked.mean(axis=0)
    corrected = averaged.copy()
    for sl in segments(config):
        sigma_avg = float(np.std(averaged[sl]))
        if sigma_avg == 0.0:
            continue
        sigma_target = float(np.sqrt(np.mean(np.var(stacked[:, sl], axis=1))))
        seg_mean = float(np.mean(averaged[sl]))
        corrected[sl] = seg_mean + (averaged[sl] - seg_mean) * (sigma_target / sigma_avg)
    return corrected


def integrate(config, t, node, senders, bases, deltas, counts):
    """Merged weights of ``node`` from ``senders``: its contributors, itself included, ascending."""
    kind = config.strategy.kind
    if kind == "delta_sum":
        base_sum, delta_sum = np.zeros(len(bases[node])), np.zeros(len(bases[node]))
        for j in senders:
            base_sum += bases[j]
            delta_sum += deltas[j]
        ramp = config.strategy.schedule
        lam = min(ramp.offset + t / ramp.slope_divisor, ramp.cap)
        return base_sum / len(senders) + lam * delta_sum
    if kind in ("fedavg", "sample_weighted"):
        weighted = np.zeros(len(bases[node]))
        for j in senders:
            weighted += counts[j] * deltas[j]
        total = sum(counts[j] for j in senders)
        return bases[node] + weighted / (total if kind == "fedavg" else total / len(senders))
    fulls = [bases[j] + deltas[j] for j in senders]
    if kind == "standard_averaging":
        return np.stack(fulls, axis=0).mean(axis=0)
    return variance_corrected(fulls, config.model_config)


def run_reference(config, per_node, global_val):
    """(records, evaluated): the run's records and the weight bytes at each evaluation.

    ``per_node`` and ``global_val`` are what ``shard_equal`` returns for the
    run. Each index logs every node's weight bytes for its local-val
    evaluation, in node order, then again for its global-val evaluation.
    The first training failure, in node-after-node, epoch-after-epoch
    order, is a SimulationError naming the node and epoch.
    """
    cfg, schedule, adjacency = config.model_config, config.schedule, config.topology.adjacency
    nodes = range(len(per_node))
    start = init_weights(cfg)
    models = [TrainableModel(cfg, start) for _ in nodes]
    bases = [start.values for _ in nodes]
    reached = [reach(adjacency, s, config.forwarding.max_hops) for s in nodes]
    heard = [[s for s in nodes if i in reached[s] or s == i] for i in nodes]
    counts = [train.size * schedule.integrate_every for train, _ in per_node]
    records, evaluated = [], []

    def set_weights(i, w):
        models[i].weights = models[i].weights.with_values(w)

    def record(index):
        weights = [models[i].weights.values for i in nodes]
        evaluated.extend(2 * [w.tobytes() for w in weights])  # local-val, then global-val
        for i, (_, local_val) in enumerate(per_node):
            records.append(MetricsRecord(i, index, accuracy(cfg, weights[i], local_val),
                                         accuracy(cfg, weights[i], global_val)))

    for epoch in range(1, schedule.train_epochs + 1):
        for i, (train, _) in enumerate(per_node):
            before = models[i].weights.values
            try:
                [after] = frozen_trained(cfg, before[None], train.inputs[None],
                                         train.labels[None], 1, schedule.batch_size, epoch - 1)
            except FloatingPointError as err:
                raise SimulationError(f"node {i} epoch {epoch}: {err}") from err
            with np.errstate(over="ignore"):  # an overflowing delta fails set_weights
                set_weights(i, before + (after - before))
        if epoch % schedule.integrate_every == 0:
            deltas = [models[i].weights.values - bases[i] for i in nodes]
            merged = [integrate(config, epoch, i, heard[i], bases, deltas, counts) for i in nodes]
            for i in nodes:
                set_weights(i, merged[i])
                bases[i] = merged[i]
        record(epoch)

    for rnd in range(schedule.train_epochs + 1, schedule.convergence_until_round + 1):
        snapshot = [models[i].weights.values for i in nodes]
        for i in nodes:
            group = [snapshot[i]] + [snapshot[j] for j in adjacency[i]]
            set_weights(i, np.stack(group, axis=0).mean(axis=0))
        record(rnd)
    return records, evaluated
