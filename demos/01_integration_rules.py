"""Walk through the model-integration rules on tiny hand-made vectors.

Shows the implicit penalty of full-model averaging, the two weighted-delta
variants, and delta-sum integration with its time-ramped damping factor.
"""

import numpy as np

import deltagossip as dg
from deltagossip.params import ParameterVector, make_layout

layout = make_layout([("w", 3)])


def vec(*values):
    return ParameterVector(np.array(values, dtype=float), layout)


w0 = vec(0.0, 0.0, 0.0)
local_delta = vec(0.9, -0.3, 0.6)
remote_delta = vec(0.8, -0.2, 0.5)

print("== full-model averaging divides combined progress ==")
local_model = w0.with_values(w0.values + local_delta.values)
remote_model = w0.with_values(w0.values + remote_delta.values)
averaged = dg.average_full_models([local_model, remote_model])
print("local progress  :", local_delta.values)
print("remote progress :", remote_delta.values)
print("after averaging :", averaged.values, "(each delta effectively halved)")

print("\n== weighted-delta integration ==")
updates = [
    dg.ModelUpdate(0, w0, local_delta, sample_count=300),
    dg.ModelUpdate(1, w0, remote_delta, sample_count=100),
]
fed = dg.fedavg_integrate(w0, updates)
summed = dg.sample_weighted_integrate(w0, updates)
print("fedavg (mean of weighted deltas):", fed.values)
print("sample-weighted (sum, no node count in denominator):", summed.values)

print("\n== delta-sum integration: average bases, sum damped deltas ==")
schedule = dg.LambdaSchedule(offset=0.15, slope_divisor=1000.0, cap=0.35)
for t in (0, 100, 200, 500):
    merged = dg.delta_sum_integrate(updates[0], updates[1:], schedule, t=t)
    print(f"t={t:>3}: factor={dg.lambda_value(schedule, t):.2f} -> {merged.values}")

print("\n== alignment diagnostic between local and remote progress ==")
for name, remote in (
    ("aligned", remote_delta),
    ("opposed", remote_delta.with_values(-1.0 * remote_delta.values)),
):
    score = dg.delta_alignment(local_delta, [remote])
    print(f"{name}: cosine = {score:+.3f}")
