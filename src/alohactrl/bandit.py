"""Thompson sampling over the ALOHA parameter set, with regret accounting.

A central decision maker keeps one Beta posterior per candidate access
probability, samples each posterior at the start of a block, broadcasts the
argmax arm, observes the typical pair's T per-slot acknowledgments for the
block and batch-updates the pulled arm. The per-block expected reward of arm
q on a fixed network realization is T * q * P_cls(q) (per-slot marginal
success probability, identical under block and classical thinning); one
classical `block_success_prob` call per arm gives it for every realization.

`run_ts` is the one TS loop. It runs R decision makers, one per fixed
realization, in lockstep: the posteriors are (R, D) arrays, and each of the
K steps makes one Beta draw per (realization, arm), takes the argmax along
the arm axis, draws every realization's block reward and updates the pulled
arms by fancy indexing. A single run is the case R = 1.

A block's acknowledgment count is drawn as one Binomial(T, p): given the
realization the slot successes are i.i.d. Bernoulli(p), with p = q P_cls(q)
under classical ALOHA and, under block ALOHA, p = P_blk of the block's drawn
active set when the typical pair transmits (0 when it is idle). The
geometry is fixed, so the interferers' suppression factors, their block
layout and the noise factor are computed once, before the loop; under block
ALOHA one `block_success_prob` call per step on them covers the interferers
of all R realizations, each block with its own pulled arm as q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aloha import Protocol
from .channel import ChannelParams, block_owner, block_success_prob, suppression_factors

__all__ = [
    "RegretTrace",
    "select_arm",
    "run_ts",
    "regret_envelope_explicit",
]


@dataclass
class RegretTrace:
    """Per-block arms, rewards and optimality gaps of R lockstep TS runs.

    Every array has one row per realization: `oracle_arm_index` (R,),
    `arm_pull_counts` (R, D), the others (R, K).
    """

    per_block_gap: np.ndarray
    cumulative: np.ndarray
    oracle_arm_index: np.ndarray
    arm_pull_counts: np.ndarray
    arm_indices: np.ndarray
    block_rewards: np.ndarray


def _sample_beta(a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Beta(a, b) draws, elementwise, realized as G_a / (G_a + G_b) from two
    Gamma draws."""
    ga = rng.standard_gamma(a)
    total = ga + rng.standard_gamma(b)
    # divides into G_a in place; where both Gammas underflow (measure zero),
    # the draw is G_a = 0
    return np.divide(ga, total, out=ga, where=total > 0.0)


def select_arm(a, b, rng: np.random.Generator) -> np.ndarray:
    """Sample every posterior Beta(a, b) and return the argmax along the last
    (arm) axis, the lowest index on ties: one arm per row of (R, D) arrays."""
    return _sample_beta(a, b, rng).argmax(axis=-1)


def _batch_update(a: np.ndarray, b: np.ndarray, arm, successes, T: int) -> None:
    """End-of-block conjugate update, in place: for each row r,
    a[r, arm[r]] += successes[r] and b[r, arm[r]] += T - successes[r]."""
    rows = np.arange(a.shape[0])
    a[rows, arm] += successes
    b[rows, arm] += T - successes


def run_ts(
    realizations,
    arms,
    protocol: Protocol,
    channel: ChannelParams,
    T: int,
    K: int,
    rng: np.random.Generator,
    snapshot_every: int = 100,
) -> tuple[RegretTrace, list[dict]]:
    """Run K blocks of Thompson sampling on each of R fixed realizations, in
    lockstep.

    Each realization has its own posteriors. Every block updates the pulled
    arm with the observed successes over T trials; an idle block contributes
    0 successes over T trials, keeping the posterior consistent with the
    q-weighted reward rate. The realizations must share the typical-link
    length r0. Returns the regret trace (gaps against each realization's
    oracle arm) and posterior snapshots, each an (R, D, 2) array of (a, b).
    """
    if K < 1 or T < 1:
        raise ValueError("K and T must be >= 1")
    protocol = Protocol(protocol)
    realizations = list(realizations)
    if not realizations:
        raise ValueError("at least one realization is required")
    r0 = realizations[0].typical_distance_r0
    if any(r.typical_distance_r0 != r0 for r in realizations):
        raise ValueError("realizations must share the typical-link length r0")
    arms = np.array([float(q) for q in arms])
    if not (arms.size and np.all((arms >= 0.0) & (arms <= 1.0))):
        raise ValueError("arms must be a nonempty list of probabilities in [0, 1]")
    R, D = len(realizations), arms.size
    factors = suppression_factors(
        np.concatenate([r.interferer_distances for r in realizations]), r0, channel)
    owner = block_owner([r.num_interferers for r in realizations])
    noise = channel.noise_success_factor(r0)
    # expected block reward T q P_cls(q); the classical kernel draws nothing
    mu = np.stack([T * q * block_success_prob(factors, owner, R, noise,
                                              Protocol.CLASSICAL, q, rng)
                   for q in arms], axis=1)
    rows = np.arange(R)

    a = np.ones((R, D))
    b = np.ones((R, D))
    chosen = np.empty((K, R), dtype=np.intp)
    rewards = np.empty((K, R))
    history: list[dict] = []

    for k in range(K):
        d = select_arm(a, b, rng)
        if protocol is Protocol.CLASSICAL:
            p = mu[rows, d] / T
        else:
            q = arms[d]
            access = rng.random(R) < q
            p = access * block_success_prob(factors, owner, R, noise, protocol, q, rng)
        succ = rng.binomial(T, p)
        _batch_update(a, b, d, succ, T)
        chosen[k] = d
        rewards[k] = succ
        if snapshot_every and (k + 1) % snapshot_every == 0:
            history.append({"block": k + 1, "posteriors": np.stack([a, b], axis=-1)})

    chosen = chosen.T
    gaps = mu.max(axis=1)[:, None] - np.take_along_axis(mu, chosen, axis=1)
    pulls = np.bincount((chosen + D * rows[:, None]).ravel(), minlength=R * D)
    trace = RegretTrace(
        per_block_gap=gaps,
        cumulative=np.cumsum(gaps, axis=1),
        oracle_arm_index=np.argmax(mu, axis=1),
        arm_pull_counts=pulls.reshape(R, D),
        arm_indices=chosen,
        block_rewards=rewards.T,
    )
    return trace, history


def regret_envelope_explicit(K: int, T: int, D: int) -> float:
    """Explicit bound sqrt(64 K D log K) + 4 T D."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return math.sqrt(64.0 * K * D * math.log(K)) + 4.0 * T * D
