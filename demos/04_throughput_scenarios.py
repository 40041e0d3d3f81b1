"""Analytical per-node network throughput for gossip vs federated setups.

Extrapolates a measured 10-node baseline across topology sizes under three
connectivity assumptions, next to the periodic federated-update rate.
"""

from deltagossip.netmodel import scenario_table

rows = scenario_table()  # the paper's reference scenario

print(f"{'N':>4} {'conn':>5} {'expected':>9} {'constant':>9} {'densify':>9} {'fedavg':>7}")
for row in rows:
    print(
        f"{row['n']:>4} {row['conn']:>5.2f} {row['expected']:>9.4f} "
        f"{row['constant_connectivity']:>9.4f} "
        f"{row['connectivity_increase']:>9.4f} {row['fedavg']:>7.3f}"
    )

# constant connectivity is the baseline rate itself
ratio = rows[0]["constant_connectivity"] / rows[0]["fedavg"]
print(f"\nper-node gossip-to-federated rate ratio at the reference point: {ratio:.1f}x")
print("gossip pays for decentralization with traffic; it scales with connectivity")
