"""Closed-form restless controllability vs the physical simulator.

The moment expansion of the longest-run tail (success-probability moments via
the Poisson generating functional, windowed at the simulation radius) should
sit inside the Monte-Carlo confidence band at every q.
"""

import math

import numpy as np

from alohactrl import ChannelParams, PppConfig
from alohactrl.aloha import Protocol
from alohactrl.analytics import prob_block_controllable_restless
from alohactrl.control import longest_runs
from alohactrl.montecarlo import simulate_ack_blocks

lam, r0, R = 1e-4, 10.0, 500.0
params = ChannelParams(1.0, 1.0, 4.0, 0.0, 1.0)
ppp = PppConfig(lam, R, r0)
T, v, n_blocks = 20, 4, 20_000

print(f"restless system, block ALOHA, T={T}, v={v}, lambda={lam:g}, "
      f"{n_blocks} blocks per point\n")
print("   q   | simulated (95% CI)  | analytic | inside CI")
print("-------+---------------------+----------+----------")
for i, q in enumerate([0.1, 0.3, 0.5, 0.7, 0.9, 1.0]):
    acks = simulate_ack_blocks(
        ppp, params, Protocol.BLOCK, q, T, n_blocks, np.random.SeedSequence(40 + i)
    )
    emp = float(np.mean(longest_runs(acks) >= v))
    hw = 1.96 * math.sqrt(emp * (1 - emp) / n_blocks)
    analytic = prob_block_controllable_restless(T, v, q, ppp, params, Protocol.BLOCK)
    ok = "yes" if abs(emp - analytic) <= max(hw, 0.01) else "NO"
    print(f"  {q:.1f}  |  {emp:.4f} +- {hw:.4f}  |  {analytic:.4f}  |   {ok}")

print("\nThe CLI `compare` subcommand writes this table as compare.csv.")
