"""Experiment orchestration: controllability sweeps, analytic-vs-empirical
comparison and regret studies.

`analytic_points` is the one list of analytic values that `systems` selects
(restless block controllability, rested meta distribution per beta), and
`compare_analytic_empirical` holds both pass rules against the simulator.

Simulation is acknowledgment-level by default. A sweep makes one pass over
chunks of blocks for all its (protocol, q) points. Per chunk the geometries
are drawn and their interferers' `channel.suppression_factors` computed once
(a fixed geometry's once per run, then repeated), and every point reuses
them: `channel.block_success_prob` gives each block's per-slot success
probability p (drawing the interferers' block activity under block ALOHA)
for that point's protocol and q. Given those draws the slot successes are
i.i.d. Bernoulli(p), gated by the typical pair's own access draws, so no
fading is simulated. The plant state recursion cannot influence the
successes, so restless (consecutive) and rested (total) controllability
flags are computed directly from the sequences. A state-level mode, for
validation, feeds the same acknowledgment stream through the full
controller/actuator loops: one batched slot loop per discipline
(`control.run_block_restless`, `control.run_block_rested`) per point and
chunk of blocks.

Determinism: every fresh-geometry estimate follows one chunk rule,
`_each_chunk`: chunk i draws from child i of one seed sequence (a sweep's
first child of the config seed, shared by all its points; a fixed
realization comes from the second; the state-level loops of a chunk draw
from a child of its stream), and results reduce in chunk order, so outputs
are byte-identical for any worker count. Since the points of a chunk share
its geometry and its stream, one point's estimate depends on the `protocols`
and `q_values` lists it runs with. A regret study samples each realization
(its distance array) from its own child seed and runs Thompson sampling on
all of them as one lockstep loop (`bandit.run_ts`), which uses no worker
threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import numpy.random  # numpy loads it on first use; load it with the package

from . import analytics
from .aloha import Protocol
from .bandit import regret_envelope_explicit, run_ts
from .channel import ChannelParams, block_owner, block_success_prob, suppression_factors
from .control import LtiSystem, longest_runs, run_block_rested, run_block_restless
from .geometry import PppConfig, sample_blocks, sample_ppp

__all__ = [
    "ExperimentConfig",
    "SweepResult",
    "CompareRow",
    "RegretStudyResult",
    "estimate_block_controllability",
    "analytic_points",
    "compare_analytic_empirical",
    "estimate_meta_empirical",
    "run_regret_study",
    "default_system_for",
]

CHUNK_BLOCKS = 4096


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment."""

    ppp: PppConfig
    channel: ChannelParams
    protocols: tuple[Protocol, ...] = (Protocol.BLOCK, Protocol.CLASSICAL)
    systems: tuple[str, ...] = ("restless", "rested")
    q_values: tuple[float, ...] = tuple(round(0.1 * i, 10) for i in range(1, 11))
    arms: tuple[float, ...] = tuple(round(0.1 * i, 10) for i in range(1, 11))
    T: int = 20
    v: int = 4
    K: int = 1
    num_realizations: int = 10000
    seed: int = 0
    process_noise_std: float = 0.0
    state_level: bool = False
    fixed_geometry: bool = False
    beta_values: tuple[float, ...] = ()
    threads: int = 1
    plant: Optional[LtiSystem] = None

    def __post_init__(self):
        # Each message begins with the rejected field, which is its config key.
        object.__setattr__(self, "protocols", tuple(Protocol(p) for p in self.protocols))
        object.__setattr__(self, "systems", tuple(self.systems))
        object.__setattr__(self, "q_values", tuple(float(q) for q in self.q_values))
        object.__setattr__(self, "arms", tuple(float(a) for a in self.arms))
        object.__setattr__(self, "beta_values", tuple(float(b) for b in self.beta_values))
        for name in ("T", "v", "K", "num_realizations", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("seed", "process_noise_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.v > self.T:
            raise ValueError("v must not exceed T")
        for name in ("q_values", "arms"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
            for q in getattr(self, name):
                if not 0.0 < q <= 1.0:
                    raise ValueError(f"{name} value {q} outside (0, 1]")
        for s in self.systems:
            if s not in ("restless", "rested"):
                raise ValueError(f"systems entry {s!r} is not restless or rested")
        for b in self.beta_values:
            if not 0.0 < b < 1.0:
                raise ValueError(f"beta_values value {b} outside (0, 1)")


@dataclass
class SweepResult:
    protocol: Protocol
    system: str
    q: float
    estimate: float
    half_width_95: float


@dataclass
class CompareRow:
    protocol: Protocol
    system: str
    q: float
    empirical: float
    analytic: float
    abs_diff: float
    passes: bool
    beta: Optional[float]


@dataclass
class RegretStudyResult:
    mean_cumulative: np.ndarray
    envelope: np.ndarray


def _chunk_geometry(ppp: PppConfig, channel: ChannelParams, n_blocks: int,
                    rng: np.random.Generator,
                    fixed_factors: Optional[np.ndarray] = None) -> tuple:
    """`block_success_prob`'s geometry arguments (factors, owner, n_blocks,
    noise) for n_blocks fresh `sample_blocks` geometries, whose factors are
    computed once (their distances freed before the kernel), or for one
    realization's `fixed_factors` repeated, which draws nothing from rng."""
    if fixed_factors is None:
        counts, distances = sample_blocks(ppp, n_blocks, rng)
        factors = suppression_factors(distances, ppp.typical_distance_r0, channel)
        del distances
    else:
        counts = np.full(n_blocks, fixed_factors.size)
        factors = np.tile(fixed_factors, n_blocks)
    return (factors, block_owner(counts), n_blocks,
            channel.noise_success_factor(ppp.typical_distance_r0))


def _chunk_acks(geometry: tuple, protocol: Protocol, q: float, T: int,
                rng: np.random.Generator) -> np.ndarray:
    """Success sequences (n_blocks, T) on one chunk's `_chunk_geometry`:
    success probability, then the typical pair's access, then the Bernoulli
    slots, all from rng."""
    p = block_success_prob(*geometry, protocol, q, rng)
    access = rng.random((p.size, 1 if protocol is Protocol.BLOCK else T)) < q
    return (rng.random((p.size, T)) < access * p[:, None]).astype(np.uint8)


def _each_chunk(n_blocks: int, seed_seq: np.random.SeedSequence, threads: int, work) -> list:
    """[work(size, rng) per chunk] in chunk order: chunk i holds blocks
    [CHUNK_BLOCKS * i, ...) and draws from a Generator on child i of
    seed_seq, so the results do not depend on `threads`."""
    firsts = range(0, n_blocks, CHUNK_BLOCKS)
    seeds = seed_seq.spawn(len(firsts))

    def one(first, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        return work(min(CHUNK_BLOCKS, n_blocks - first), rng)

    if threads > 1 and len(firsts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, firsts, seeds))
    return list(map(one, firsts, seeds))


def estimate_block_controllability(config: ExperimentConfig) -> list[SweepResult]:
    """Empirical block-controllability probability per (protocol, system, q).

    Simulates num_realizations single blocks, redrawing the geometry each
    block (set fixed_geometry for a conditional study on one realization).
    One chunk stream serves every point: each chunk's geometry is drawn and
    factored once, then every (protocol, q) in config order draws its
    interferer activity, access and slots on it. So a point's estimate
    depends on the `protocols` and `q_values` it runs with. Idle typical
    blocks count in the denominator. Restless (run-based) and rested
    (total-based) flags are evaluated on the same simulated sequences and
    counted per chunk; with state_level the loops flag them, from start
    states x_des + N(0, I) drawn, like the loops' noise, from a child of the
    chunk's stream.
    """
    chunk_seq, fixed_seq = np.random.SeedSequence(config.seed).spawn(2)
    fixed = None
    if config.fixed_geometry:
        real = sample_ppp(config.ppp, np.random.Generator(np.random.PCG64(fixed_seq)))
        fixed = suppression_factors(real, config.ppp.typical_distance_r0, config.channel)
    plant = (config.plant or default_system_for(config.v, config.process_noise_std)
             if config.state_level else None)
    runners = {"restless": run_block_restless, "rested": run_block_rested}
    points = [(protocol, q) for protocol in config.protocols for q in config.q_values]
    n, v = config.num_realizations, config.v

    def chunk_hits(size, rng):
        """Controllable blocks of one chunk, per point, then per system. The
        loops draw from their own child stream, so every point's acks, and
        so the state-level flags, equal the ack-level ones."""
        geometry = _chunk_geometry(config.ppp, config.channel, size, rng, fixed)
        loop_rng = rng.spawn(1)[0] if plant is not None else None
        hits = []
        for protocol, q in points:
            acks = _chunk_acks(geometry, protocol, q, config.T, rng)
            if plant is None:
                flags = {"restless": longest_runs(acks) >= v, "rested": acks.sum(axis=1) >= v}
            else:
                x0 = plant.x_des + loop_rng.normal(0.0, 1.0, (size, plant.n))
                flags = {s: runners[s](plant, acks, x0, loop_rng).block_controllable
                         for s in config.systems}
            hits.extend(int(np.count_nonzero(flags[system])) for system in config.systems)
        return hits

    totals = map(sum, zip(*_each_chunk(n, chunk_seq, config.threads, chunk_hits)))
    results: list[SweepResult] = []
    for protocol, q in points:
        for system in config.systems:
            p_hat = next(totals) / n
            results.append(SweepResult(protocol, system, q, p_hat,
                                       1.96 * math.sqrt(max(p_hat * (1 - p_hat), 0.0) / n)))
    return results


def default_system_for(v: int, process_noise_std: float = 0.0) -> LtiSystem:
    """A v-dimensional plant whose minimal polynomial has degree exactly v:
    a single Jordan block at 0.9 with full-rank actuation."""
    A = 0.9 * np.eye(v) + np.diag(np.ones(v - 1), 1) if v > 1 else np.array([[0.9]])
    B = np.eye(v)
    x_des = np.ones(v)
    return LtiSystem(A, B, x_des, v=v, process_noise_std=process_noise_std)


def analytic_points(config: ExperimentConfig):
    """Yield (protocol, system, q, beta, value) per protocol: the restless
    value at each q (beta None) if "restless" is in `systems`, then the meta
    distribution at each (beta, q) if "rested" is."""
    for protocol in config.protocols:
        if "restless" in config.systems:
            for q in config.q_values:
                yield protocol, "restless", q, None, analytics.prob_block_controllable_restless(
                    config.T, config.v, q, config.ppp, config.channel, protocol)
        if "rested" in config.systems:
            for beta in config.beta_values:
                for q in config.q_values:
                    query = analytics.MetaQuery(config.v, beta, config.T, q, config.channel)
                    yield protocol, "rested", q, beta, analytics.meta_distribution_rested(
                        query, config.ppp, protocol)


def compare_analytic_empirical(config: ExperimentConfig) -> list[CompareRow]:
    """Each of the `analytic_points` against the simulator. Restless rows take
    one restless-only `estimate_block_controllability` sweep and pass iff
    |diff| <= max(0.02, 3 * half-width); rested row i (protocol x beta x q
    order) takes `estimate_meta_empirical` on seed child i, passes iff |diff| <= 0.02."""
    sweep = iter(estimate_block_controllability(replace(config, systems=("restless",)))
                 if "restless" in config.systems else ())
    seeds = iter(np.random.SeedSequence(config.seed).spawn(
        len(config.protocols) * len(config.beta_values) * len(config.q_values)))
    rows = []
    for protocol, system, q, beta, analytic in analytic_points(config):
        if beta is None:
            res = next(sweep)
            empirical, tolerance = res.estimate, max(0.02, 3.0 * res.half_width_95)
        else:
            empirical, tolerance = estimate_meta_empirical(
                config, protocol, q, beta, seed_seq=next(seeds)), 0.02
        diff = abs(empirical - analytic)
        rows.append(CompareRow(protocol, system, q, empirical, analytic, diff,
                               diff <= tolerance, beta))
    return rows


def estimate_meta_empirical(
    config: ExperimentConfig, protocol: Protocol, q: float, beta: float,
    seed_seq: Optional[np.random.SeedSequence] = None,
) -> float:
    """Fraction of realizations whose per-realization success tail reaches beta.

    Block ALOHA draws the per-block active subset along with the geometry;
    classical needs the geometry only.
    """
    protocol = Protocol(protocol)
    pstar = analytics.inverse_tail_threshold(config.T, config.v, q, beta, protocol)
    if pstar is None:
        return 0.0

    def chunk_hits(size, rng):
        p = block_success_prob(*_chunk_geometry(config.ppp, config.channel, size, rng),
                               protocol, q, rng)
        return int(np.count_nonzero(p >= pstar))

    n = config.num_realizations
    return sum(_each_chunk(n, seed_seq or np.random.SeedSequence(config.seed),
                           config.threads, chunk_hits)) / n


def run_regret_study(config: ExperimentConfig) -> RegretStudyResult:
    """Mean cumulative TS regret over independent realizations, with the
    explicit envelope.

    Realization i is sampled from child i of the seed; all of them then run
    as one lockstep `run_ts` call on a stream from one further child, so the
    result does not depend on `threads`. Runs the first of `protocols`.
    """
    D = len(config.arms)
    K = config.K
    root = np.random.SeedSequence(config.seed)
    realizations = [sample_ppp(config.ppp, np.random.Generator(np.random.PCG64(s)))
                    for s in root.spawn(config.num_realizations)]
    rng = np.random.Generator(np.random.PCG64(root.spawn(1)[0]))
    trace, _ = run_ts(realizations, config.arms, config.protocols[0], config.channel,
                      config.T, K, rng, snapshot_every=0, r0=config.ppp.typical_distance_r0)
    envelope = np.array([regret_envelope_explicit(k, config.T, D) for k in range(1, K + 1)])
    return RegretStudyResult(trace.cumulative.mean(axis=0), envelope)
