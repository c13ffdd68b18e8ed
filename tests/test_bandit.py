import math

import numpy as np
import pytest
from scipy import stats

from alohactrl.aloha import Protocol
from alohactrl.bandit import (
    ArmPosterior,
    batch_update,
    expected_block_reward,
    oracle_arm,
    regret_envelope_explicit,
    run_ts,
    sample_beta,
    select_arm,
)
from alohactrl.channel import ChannelParams
from alohactrl.geometry import NetworkRealization, PppConfig, sample_ppp


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def unit_params(alpha=2.0, gamma=1.0, N0=0.0):
    return ChannelParams(1.0, 1.0, alpha, N0, gamma)


class TestSampleBeta:
    def test_uniform_special_case(self):
        g = rng(1)
        draws = np.array([sample_beta(1.0, 1.0, g) for _ in range(200_000)])
        assert stats.kstest(draws, "uniform").pvalue > 0.01

    def test_mean_three_sigma(self):
        g = rng(2)
        n = 1_000_000
        draws = np.array([sample_beta(3.0, 7.0, g) for _ in range(n)])
        sigma = math.sqrt(0.3 * 0.7 / 11.0)
        assert abs(draws.mean() - 0.3) < 3 * sigma / math.sqrt(n)

    def test_concentration_near_one(self):
        g = rng(3)
        draws = [sample_beta(1000.0, 1.0, g) for _ in range(1000)]
        assert min(draws) > 0.98

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_beta(0.0, 1.0, rng(4))


class TestSelectArm:
    def test_single_arm(self):
        assert select_arm([ArmPosterior(1.0, 1.0)], rng(5)) == 0

    def test_stochastic_dominance(self):
        g = rng(6)
        arms = [ArmPosterior(1000.0, 1.0), ArmPosterior(1.0, 1000.0)]
        wins = sum(select_arm(arms, g) == 0 for _ in range(1000))
        assert wins >= 999

    def test_exchangeable_arms_uniform(self):
        g = rng(7)
        D, n = 4, 100_000
        arms = [ArmPosterior(2.0, 2.0) for _ in range(D)]
        picks = np.array([select_arm(arms, g) for _ in range(n)])
        sigma = math.sqrt((1 / D) * (1 - 1 / D) / n)
        for d in range(D):
            assert abs(np.mean(picks == d) - 1 / D) < 3 * sigma

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_arm([], rng(8))


class TestBatchUpdate:
    def test_all_successes(self):
        assert batch_update(ArmPosterior(1.0, 1.0), 20, 20) == ArmPosterior(21.0, 1.0)

    def test_all_failures(self):
        assert batch_update(ArmPosterior(1.0, 1.0), 0, 20) == ArmPosterior(1.0, 21.0)

    def test_sequential_equals_batch(self):
        g = rng(9)
        acks = (g.random(20) < 0.4).astype(int)
        seq = ArmPosterior(1.0, 1.0)
        for s in acks:
            seq = batch_update(seq, int(s), 1)
        batched = batch_update(ArmPosterior(1.0, 1.0), int(acks.sum()), 20)
        assert seq == batched

    def test_range_check(self):
        with pytest.raises(ValueError):
            batch_update(ArmPosterior(1.0, 1.0), 21, 20)


class TestOracleArm:
    def test_no_interferers_prefers_largest_q(self):
        params = ChannelParams(1.0, 1.0, 2.0, 1e-4, 1.0)
        real = NetworkRealization(np.empty(0), 10.0)
        arms = [0.2, 0.5, 1.0]
        idx, mu = oracle_arm(real, arms, params, Protocol.BLOCK, T=20)
        assert arms[idx] == 1.0
        assert mu == pytest.approx(20 * 1.0 * params.noise_success_factor(10.0))

    def test_dense_dummy_scalar_calculus(self):
        # single interferer at r0 with gamma=1: mu(q) = T q (q/2 + 1 - q),
        # increasing on [0,1] so the largest arm wins
        params = unit_params()
        real = NetworkRealization(np.array([10.0]), 10.0)
        arms = [round(0.1 * i, 10) for i in range(1, 11)]
        idx, mu = oracle_arm(real, arms, params, Protocol.CLASSICAL, T=20)
        assert arms[idx] == 1.0
        for q in arms:
            want = 20 * q * (q * 0.5 + 1 - q)
            assert expected_block_reward(real, q, params, 20) == pytest.approx(want)

    def test_reward_matches_simulator_both_protocols(self):
        # validates the per-slot marginal equivalence of block and classical
        # thinning on a fixed realization: a one-arm TS run's block rewards
        params = unit_params()
        g = rng(10)
        real = sample_ppp(PppConfig(5e-4, 150.0, 10.0), g)
        T, n_blocks = 20, 20_000
        for protocol in (Protocol.BLOCK, Protocol.CLASSICAL):
            for q in (0.3, 0.8):
                want = expected_block_reward(real, q, params, T)
                trace, _ = run_ts(real, [q], protocol, params, T, n_blocks, g,
                                  snapshot_every=0)
                rewards = trace.block_rewards
                se = rewards.std(ddof=1) / math.sqrt(n_blocks)
                assert abs(rewards.mean() - want) < 2.5 * se, (protocol, q)


class TestRunTs:
    def test_single_arm_zero_regret(self):
        params = unit_params()
        real = NetworkRealization(np.array([25.0]), 10.0)
        trace, _ = run_ts(real, [0.5], Protocol.BLOCK, params, 10, 50, rng(11))
        assert np.all(trace.per_block_gap == 0.0)
        assert np.all(trace.cumulative == 0.0)

    def test_gaps_nonnegative_cumulative_prefix(self):
        params = unit_params()
        real = sample_ppp(PppConfig(5e-4, 150.0, 10.0), rng(12))
        arms = [0.2, 0.5, 0.9]
        trace, _ = run_ts(real, arms, Protocol.BLOCK, params, 20, 300, rng(13))
        assert np.all(trace.per_block_gap >= 0.0)
        assert np.allclose(trace.cumulative, np.cumsum(trace.per_block_gap))

    def test_posterior_bookkeeping_identity(self):
        # a_d - 1 + b_d - 1 == T * (blocks the arm was pulled), every slot
        # accounted exactly once including idle blocks
        params = unit_params()
        real = sample_ppp(PppConfig(5e-4, 150.0, 10.0), rng(14))
        T, K = 20, 400
        arms = [0.3, 0.6, 1.0]
        trace, history = run_ts(real, arms, Protocol.BLOCK, params, T, K, rng(15),
                                snapshot_every=K)
        posteriors = history[-1]["posteriors"]
        for d in range(3):
            a, b = posteriors[d]
            assert a - 1 + b - 1 == T * trace.arm_pull_counts[d]
            assert a - 1 == trace.block_rewards[trace.arm_indices == d].sum()

    def test_inferior_arm_pulls_sublinear(self):
        # large reward gap: inferior-arm pulls grow slower than linearly
        params = unit_params()
        real = NetworkRealization(np.empty(0), 10.0)  # mu(q) = T q, gap 0.6T
        arms = [0.3, 0.9]
        trace, _ = run_ts(real, arms, Protocol.BLOCK, params, 20, 5000, rng(16))
        pulls_half = int(np.sum(trace.arm_indices[:2500] == 0))
        pulls_full = int(np.sum(trace.arm_indices == 0))
        assert pulls_full < 2 * max(pulls_half, 1)
        assert pulls_full < 250

    def test_snapshots_every_100(self):
        params = unit_params()
        real = NetworkRealization(np.empty(0), 10.0)
        _, history = run_ts(real, [0.4, 0.8], Protocol.BLOCK, params, 5, 250, rng(17))
        assert [h["block"] for h in history] == [100, 200]
        assert all(len(h["posteriors"]) == 2 for h in history)


class TestEnvelopes:
    def test_explicit_envelope_value(self):
        want = math.sqrt(64 * 5000 * 10 * math.log(5000)) + 4 * 20 * 10
        assert regret_envelope_explicit(5000, 20, 10) == pytest.approx(want)

    def test_monotone(self):
        base = regret_envelope_explicit(100, 10, 5)
        assert regret_envelope_explicit(200, 10, 5) > base
        assert regret_envelope_explicit(100, 20, 5) > base
        assert regret_envelope_explicit(100, 10, 10) > base
