"""Online selection of the ALOHA parameter by Thompson sampling.

A central decision maker holds a Beta belief per candidate access
probability, broadcasts the sampled-best arm each block, and learns from the
typical pair's per-slot acknowledgments. On a fixed network realization the
pulls concentrate on the arm maximizing the expected block reward
T * q * P(success | q), and the cumulative regret stays under the explicit
sqrt(64 K D log K) + 4 T D envelope.
"""

import numpy as np

from alohactrl import (
    block_owner, block_success_prob, regret_envelope_explicit, run_ts, sample_ppp,
    suppression_factors,
)
from alohactrl.aloha import Protocol
from alohactrl.config import load_config

config = load_config("fig3")
rng = np.random.default_rng(7)
realization = sample_ppp(config.ppp, rng)
print(f"fixed realization with {realization.num_interferers} interferers, "
      f"arms {list(config.arms)}")

trace, history = run_ts(
    [realization], config.arms, Protocol.BLOCK, config.channel,
    config.T, config.K, rng,
)

# expected block reward T q P_cls(q) of each arm, from the realization's
# suppression factors (computed once); the classical kernel draws nothing
r0 = realization.typical_distance_r0
factors = suppression_factors(realization.interferer_distances, r0, config.channel)
owner = block_owner([realization.num_interferers])
noise = config.channel.noise_success_factor(r0)
mu = [config.T * a * block_success_prob(factors, owner, 1, noise, Protocol.CLASSICAL, a, rng)[0]
      for a in config.arms]
print("\narm   q    E[block reward]   pulls")
for d, a in enumerate(config.arms):
    star = " <- oracle" if d == trace.oracle_arm_index[0] else ""
    print(f"{d:3d}  {a:.1f}     {mu[d]:7.3f}       {trace.arm_pull_counts[0, d]:5d}{star}")

modal = int(np.bincount(trace.arm_indices[0, 1000:], minlength=len(config.arms)).argmax())
print(f"\nmodal arm over the final {config.K - 1000} blocks: q={config.arms[modal]}")
for k in (100, 1000, config.K):
    env = regret_envelope_explicit(k, config.T, len(config.arms))
    print(f"cumulative regret at K={k:5d}: {trace.cumulative[0, k - 1]:8.1f} "
          f"(envelope {env:.0f})")
