"""Sample a Poisson network and check the conditional success probabilities.

Walks through the basic objects: a disk-window Poisson realization around the
typical pair and the closed-form success probabilities given the geometry,
read off the success kernel `block_success_prob` (all interferers active vs
per-slot Bernoulli thinning); the first is cross-checked against a quick
Monte Carlo over Rayleigh-faded slots. The kernel takes the interferers'
suppression factors, computed once for the realization.
"""

import numpy as np

from alohactrl import (
    ChannelParams, PppConfig, Protocol, block_owner, block_success_prob, sample_ppp,
    suppression_factors,
)

rng = np.random.default_rng(1)

ppp = PppConfig(intensity_lambda=5e-4, window_radius_R=224.0, typical_distance_r0=10.0)
channel = ChannelParams(
    tx_power_eta=0.25, pathloss_const_rho=5.6e-5, pathloss_exp_alpha=2.0,
    noise_power_N0=8e-13, sinr_threshold_gamma=1.0,
)

real = sample_ppp(ppp, rng)
print(f"sampled {real.num_interferers} interferers in a {ppp.window_radius_R:.0f} m disk "
      f"(expected {ppp.mean_count:.1f})")
print(f"nearest interferer: {real.interferer_distances.min():.1f} m, "
      f"typical link: {real.typical_distance_r0:.0f} m")


# the realization's one block: its factors, their layout and the noise factor
factors = suppression_factors(real.interferer_distances, real.typical_distance_r0, channel)
owner = block_owner([real.num_interferers])
noise = channel.noise_success_factor(real.typical_distance_r0)


def p_success(q):
    """Per-slot success probability given the geometry, each interferer
    transmitting with probability q per slot; classical ALOHA draws nothing."""
    return block_success_prob(factors, owner, 1, noise, Protocol.CLASSICAL, q, rng)[0]


# success probability with every interferer transmitting, fading averaged out
p_blk = p_success(1.0)
print(f"\nP(success | all active)        = {p_blk:.4f}")

# faded slots agree: unit-mean exponential powers, SINR threshold test
n = 50_000
signal = channel.rx_power_coeff(real.typical_distance_r0) * rng.exponential(1.0, n)
gains = channel.rx_power_coeff(real.interferer_distances)
interference = rng.exponential(1.0, (n, real.num_interferers)) @ gains
wins = np.count_nonzero(signal / (channel.noise_power_N0 + interference)
                        > channel.sinr_threshold_gamma)
print(f"empirical over {n} faded slots  = {wins / n:.4f}")

# thinned activity: each interferer transmits with probability q per slot
for q in (0.2, 0.5, 0.9):
    print(f"P(success | Bernoulli({q}) interferers) = {p_success(q):.4f}")
