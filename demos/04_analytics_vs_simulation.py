"""Closed-form restless controllability vs the physical simulator.

The moment expansion of the longest-run tail (success-probability moments via
the Poisson generating functional, windowed at the simulation radius) should
agree with the Monte-Carlo sweep at every q, within the `compare` pass rule
|diff| <= max(0.02, 3 * ci95).
"""

from alohactrl import ChannelParams, ExperimentConfig, PppConfig, compare_analytic_empirical
from alohactrl.aloha import Protocol

lam, r0, R = 1e-4, 10.0, 500.0
config = ExperimentConfig(
    PppConfig(lam, R, r0), ChannelParams(1.0, 1.0, 4.0, 0.0, 1.0),
    protocols=(Protocol.BLOCK,), systems=("restless",), q_values=(0.1, 0.3, 0.5, 0.7, 0.9, 1.0),
    T=20, v=4, num_realizations=20_000, seed=40,
)

print(f"restless system, block ALOHA, T={config.T}, v={config.v}, lambda={lam:g}, "
      f"{config.num_realizations} blocks per point\n")
print("   q   | simulated | analytic | |diff|  | passes")
print("-------+-----------+----------+---------+-------")
for row in compare_analytic_empirical(config):
    print(f"  {row.q:.1f}  |  {row.empirical:.4f}   |  {row.analytic:.4f}  | {row.abs_diff:.4f}  |"
          f"  {'yes' if row.passes else 'NO'}")

print("\nThe CLI `compare` subcommand writes this table as compare.csv.")
