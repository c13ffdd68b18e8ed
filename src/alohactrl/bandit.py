"""Thompson sampling over the ALOHA parameter set, with regret accounting.

A central decision maker keeps one Beta posterior per candidate access
probability, samples each posterior at the start of a block, broadcasts the
argmax arm, observes the typical pair's T per-slot acknowledgments for the
block and batch-updates the pulled arm. The per-block expected reward of arm
q on a fixed network realization is T * q * P_cls(q) (per-slot marginal
success probability, identical under block and classical thinning).

A block's acknowledgment count is drawn as one Binomial(T, p): given the
realization the slot successes are i.i.d. Bernoulli(p), with p = q P_cls(q)
under classical ALOHA and, under block ALOHA, p = P_blk of the block's drawn
active set when the typical pair transmits (0 when it is idle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aloha import Protocol
from .channel import ChannelParams, block_success_prob, cond_success_prob_classical
from .geometry import NetworkRealization

__all__ = [
    "ArmPosterior",
    "RegretTrace",
    "sample_beta",
    "select_arm",
    "batch_update",
    "oracle_arm",
    "run_ts",
    "regret_envelope_explicit",
]


@dataclass(frozen=True)
class ArmPosterior:
    """Beta(a, b) belief over one arm's per-slot success probability.

    Starting from (1, 1), a - 1 counts observed successes and b - 1 observed
    failures for the arm.
    """

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError("Beta parameters must be > 0")

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)


@dataclass
class RegretTrace:
    """Per-block optimality gaps and their running sum for one TS run."""

    per_block_gap: np.ndarray
    cumulative: np.ndarray
    oracle_arm_index: int
    arm_pull_counts: dict[int, int] = field(default_factory=dict)
    arm_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    block_rewards: np.ndarray = field(default_factory=lambda: np.empty(0))


def sample_beta(a: float, b: float, rng: np.random.Generator) -> float:
    """One Beta(a, b) draw realized as G_a / (G_a + G_b) from two Gammas."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("Beta parameters must be > 0")
    ga = rng.gamma(a)
    gb = rng.gamma(b)
    total = ga + gb
    if total == 0.0:  # measure-zero underflow guard
        return 0.5
    return ga / total


def select_arm(posteriors, rng: np.random.Generator) -> int:
    """Sample every posterior, return the argmax index (lowest index on ties)."""
    if not len(posteriors):
        raise ValueError("at least one arm is required")
    draws = [sample_beta(p.a, p.b, rng) for p in posteriors]
    return int(np.argmax(draws))


def batch_update(posterior: ArmPosterior, block_successes: int, T: int) -> ArmPosterior:
    """End-of-block conjugate update: a += successes, b += T - successes."""
    if not 0 <= block_successes <= T:
        raise ValueError("block_successes must lie in [0, T]")
    return ArmPosterior(posterior.a + block_successes, posterior.b + (T - block_successes))


def expected_block_reward(
    realization: NetworkRealization, q: float, channel: ChannelParams, T: int
) -> float:
    """T * q * P_cls(q): expected acknowledgments per block for arm q.

    The per-slot marginal success probability on a fixed realization equals
    q * P_cls(q) under both protocols (Bernoulli(q) thinning per slot or per
    block gives the same one-slot marginal).
    """
    return T * q * cond_success_prob_classical(realization, q, channel)


def oracle_arm(
    realization: NetworkRealization, arms, channel: ChannelParams, protocol: Protocol,
    T: int = 1,
) -> tuple[int, float]:
    """Best arm on this realization and its expected per-block reward."""
    Protocol(protocol)  # validated; the reward rate is protocol-independent
    arms = list(arms)
    if not arms:
        raise ValueError("arms must be nonempty")
    rewards = [expected_block_reward(realization, q, channel, T) for q in arms]
    idx = int(np.argmax(rewards))
    return idx, rewards[idx]


def run_ts(
    realization: NetworkRealization,
    arms,
    protocol: Protocol,
    channel: ChannelParams,
    T: int,
    K: int,
    rng: np.random.Generator,
    snapshot_every: int = 100,
) -> tuple[RegretTrace, list[dict]]:
    """Run K blocks of Thompson sampling on a fixed realization.

    Every block updates the pulled arm with the observed successes over T
    trials; an idle block contributes 0 successes over T trials, keeping the
    posterior consistent with the q-weighted reward rate. Returns the regret
    trace (gaps against the oracle arm) and posterior snapshots.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    protocol = Protocol(protocol)
    arms = [float(a) for a in arms]
    D = len(arms)
    posteriors = [ArmPosterior(1.0, 1.0) for _ in range(D)]
    mu = [expected_block_reward(realization, a, channel, T) for a in arms]
    oracle_idx = int(np.argmax(mu))
    mu_star = mu[oracle_idx]

    gaps = np.empty(K)
    rewards = np.empty(K)
    chosen = np.empty(K, dtype=int)
    pulls: dict[int, int] = {d: 0 for d in range(D)}
    history: list[dict] = []
    counts = [realization.num_interferers]

    for k in range(K):
        d = select_arm(posteriors, rng)
        if protocol is Protocol.CLASSICAL:
            p = mu[d] / T
        elif rng.random() < arms[d]:
            p = block_success_prob(realization.interferer_distances, counts,
                                   realization.typical_distance_r0, channel,
                                   protocol, arms[d], rng)[0]
        else:
            p = 0.0
        succ = int(rng.binomial(T, p))
        posteriors[d] = batch_update(posteriors[d], succ, T)
        pulls[d] += 1
        chosen[k] = d
        rewards[k] = succ
        gaps[k] = mu_star - mu[d]
        if snapshot_every and (k + 1) % snapshot_every == 0:
            history.append({
                "block": k + 1,
                "posteriors": [(p.a, p.b) for p in posteriors],
            })

    trace = RegretTrace(
        per_block_gap=gaps,
        cumulative=np.cumsum(gaps),
        oracle_arm_index=oracle_idx,
        arm_pull_counts=pulls,
        arm_indices=chosen,
        block_rewards=rewards,
    )
    return trace, history


def regret_envelope_explicit(K: int, T: int, D: int) -> float:
    """Explicit bound sqrt(64 K D log K) + 4 T D."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return math.sqrt(64.0 * K * D * math.log(K)) + 4.0 * T * D
