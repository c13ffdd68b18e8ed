import math

import numpy as np
import pytest
from scipy import stats

from alohactrl.aloha import Protocol
from alohactrl.bandit import (
    _batch_update as batch_update,
    _sample_beta as sample_beta,
    regret_envelope_explicit,
    run_ts,
    select_arm,
)
from alohactrl.channel import ChannelParams, block_owner, block_success_prob, suppression_factors
from alohactrl.geometry import NetworkRealization, PppConfig, sample_ppp


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def unit_params(alpha=2.0, gamma=1.0, N0=0.0):
    return ChannelParams(1.0, 1.0, alpha, N0, gamma)


def block_reward(real, q, params, T):
    """Expected block reward T q P_cls(q) of arm q, from the success kernel."""
    r0 = real.typical_distance_r0
    return T * q * block_success_prob(suppression_factors(real.interferer_distances, r0, params),
                                      block_owner([real.num_interferers]), 1,
                                      params.noise_success_factor(r0), Protocol.CLASSICAL,
                                      q, rng())[0]


class TestSampleBeta:
    def test_uniform_special_case(self):
        draws = sample_beta(np.ones(200_000), np.ones(200_000), rng(1))
        assert stats.kstest(draws, "uniform").pvalue > 0.01

    def test_mean_three_sigma(self):
        n = 1_000_000
        draws = sample_beta(np.full(n, 3.0), np.full(n, 7.0), rng(2))
        sigma = math.sqrt(0.3 * 0.7 / 11.0)
        assert abs(draws.mean() - 0.3) < 3 * sigma / math.sqrt(n)

    def test_concentration_near_one(self):
        draws = sample_beta(np.full(1000, 1000.0), np.ones(1000), rng(3))
        assert draws.min() > 0.98


class TestSelectArm:
    def test_single_arm(self):
        assert select_arm(np.ones((1, 1)), np.ones((1, 1)), rng(5)).tolist() == [0]

    def test_stochastic_dominance(self):
        # one row per trial; arm 0 dominates in every row
        a = np.tile([1000.0, 1.0], (1000, 1))
        picks = select_arm(a, a[:, ::-1], rng(6))
        assert picks.shape == (1000,)
        assert np.count_nonzero(picks == 0) >= 999

    def test_exchangeable_arms_uniform(self):
        D, n = 4, 100_000
        picks = select_arm(np.full((n, D), 2.0), np.full((n, D), 2.0), rng(7))
        sigma = math.sqrt((1 / D) * (1 - 1 / D) / n)
        for d in range(D):
            assert abs(np.mean(picks == d) - 1 / D) < 3 * sigma

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_arm(np.ones((1, 0)), np.ones((1, 0)), rng(8))

    def test_rows_select_independently(self):
        # row r's dominant arm is r, so each row returns its own index
        a = np.ones((3, 3)) + 999.0 * np.eye(3)
        assert select_arm(a, 1001.0 - a, rng(18)).tolist() == [0, 1, 2]


def fresh(R, D):
    return np.ones((R, D)), np.ones((R, D))


class TestBatchUpdate:
    def test_all_successes(self):
        a, b = fresh(1, 1)
        batch_update(a, b, [0], np.array([20]), 20)
        assert (a[0, 0], b[0, 0]) == (21.0, 1.0)

    def test_all_failures(self):
        a, b = fresh(1, 1)
        batch_update(a, b, [0], np.array([0]), 20)
        assert (a[0, 0], b[0, 0]) == (1.0, 21.0)

    def test_sequential_equals_batch(self):
        g = rng(9)
        acks = (g.random(20) < 0.4).astype(int)
        seq_a, seq_b = fresh(1, 1)
        for s in acks:
            batch_update(seq_a, seq_b, [0], np.array([s]), 1)
        a, b = fresh(1, 1)
        batch_update(a, b, [0], np.array([acks.sum()]), 20)
        assert np.array_equal(seq_a, a) and np.array_equal(seq_b, b)

    def test_each_row_updates_its_pulled_arm(self):
        a, b = fresh(3, 4)
        batch_update(a, b, [2, 0, 2], np.array([5, 1, 0]), 10)
        want_a, want_b = fresh(3, 4)
        want_a[0, 2], want_b[0, 2] = 6.0, 6.0
        want_a[1, 0], want_b[1, 0] = 2.0, 10.0
        want_b[2, 2] = 11.0
        assert np.array_equal(a, want_a) and np.array_equal(b, want_b)


class TestOracleArm:
    """`RegretTrace.oracle_arm_index` and the reward table behind the gaps."""

    def test_no_interferers_prefers_largest_q(self):
        params = ChannelParams(1.0, 1.0, 2.0, 1e-4, 1.0)
        real = NetworkRealization(np.empty(0), 10.0)
        arms = [0.2, 0.5, 1.0]
        trace, _ = run_ts([real], arms, Protocol.BLOCK, params, 20, 50, rng(22))
        assert trace.oracle_arm_index.tolist() == [2]
        mu = 20 * np.array(arms) * params.noise_success_factor(10.0)
        gaps = mu[2] - mu[trace.arm_indices[0]]
        assert np.allclose(trace.per_block_gap[0], gaps, rtol=1e-12, atol=0.0)

    def test_dense_dummy_scalar_calculus(self):
        # single interferer at r0 with gamma=1: mu(q) = T q (q/2 + 1 - q),
        # increasing on [0,1] so the largest arm wins
        params = unit_params()
        real = NetworkRealization(np.array([10.0]), 10.0)
        arms = [round(0.1 * i, 10) for i in range(1, 11)]
        trace, _ = run_ts([real], arms, Protocol.CLASSICAL, params, 20, 50, rng(23))
        assert trace.oracle_arm_index.tolist() == [9]
        for q in arms:
            want = 20 * q * (q * 0.5 + 1 - q)
            assert block_reward(real, q, params, 20) == pytest.approx(want)

    def test_reward_matches_simulator_both_protocols(self):
        # validates the per-slot marginal equivalence of block and classical
        # thinning on a fixed realization: a one-arm TS run's block rewards
        params = unit_params()
        g = rng(10)
        real = sample_ppp(PppConfig(5e-4, 150.0, 10.0), g)
        T, n_blocks = 20, 20_000
        for protocol in (Protocol.BLOCK, Protocol.CLASSICAL):
            for q in (0.3, 0.8):
                want = block_reward(real, q, params, T)
                trace, _ = run_ts([real], [q], protocol, params, T, n_blocks, g,
                                  snapshot_every=0)
                rewards = trace.block_rewards[0]
                se = rewards.std(ddof=1) / math.sqrt(n_blocks)
                assert abs(rewards.mean() - want) < 2.5 * se, (protocol, q)


def realizations(n, seed):
    g = rng(seed)
    return [sample_ppp(PppConfig(5e-4, 150.0, 10.0), g) for _ in range(n)]


class TestRunTs:
    def test_single_arm_zero_regret(self):
        params = unit_params()
        reals = [NetworkRealization(np.array([25.0]), 10.0), *realizations(3, 11)]
        trace, _ = run_ts(reals, [0.5], Protocol.BLOCK, params, 10, 50, rng(11))
        assert trace.per_block_gap.shape == (4, 50)
        assert np.all(trace.per_block_gap == 0.0)
        assert np.all(trace.cumulative == 0.0)

    def test_gaps_nonnegative_cumulative_prefix(self):
        params = unit_params()
        reals = realizations(3, 12)
        arms = [0.2, 0.5, 0.9]
        trace, _ = run_ts(reals, arms, Protocol.BLOCK, params, 20, 300, rng(13))
        assert np.all(trace.per_block_gap >= 0.0)
        assert np.allclose(trace.cumulative, np.cumsum(trace.per_block_gap, axis=1))
        for r, real in enumerate(reals):
            # one kernel call: the realization once per arm, each with its arm as q
            mu = 20 * np.array(arms) * block_success_prob(
                np.tile(suppression_factors(real.interferer_distances, 10.0, params), len(arms)),
                block_owner([real.num_interferers] * len(arms)), len(arms),
                params.noise_success_factor(10.0), Protocol.CLASSICAL, arms, rng())
            assert trace.oracle_arm_index[r] == np.argmax(mu)
            assert np.array_equal(trace.per_block_gap[r], mu.max() - mu[trace.arm_indices[r]])

    def test_posterior_bookkeeping_identity(self):
        # per realization row and arm: a - 1 is the rewards summed over the
        # arm's pulls and a - 1 + b - 1 == T * pulls, every slot accounted
        # exactly once including idle blocks
        params = unit_params()
        reals = realizations(5, 14)
        T, K = 20, 400
        arms = [0.3, 0.6, 1.0]
        for protocol in Protocol:
            trace, history = run_ts(reals, arms, protocol, params, T, K, rng(15),
                                    snapshot_every=K)
            posteriors = history[-1]["posteriors"]
            assert posteriors.shape == (5, 3, 2)
            for r in range(5):
                for d in range(3):
                    a, b = posteriors[r, d]
                    pulled = trace.arm_indices[r] == d
                    assert trace.arm_pull_counts[r, d] == np.count_nonzero(pulled)
                    assert a - 1 + b - 1 == T * trace.arm_pull_counts[r, d]
                    assert a - 1 == trace.block_rewards[r, pulled].sum(), (protocol, r, d)

    def test_lockstep_rewards_match_each_realization(self):
        # each row's block rewards follow its own realization's law, and
        # rows draw independently of each other
        params = unit_params()
        reals = realizations(3, 19)
        T, K, q = 20, 20_000, 0.6
        for protocol in Protocol:
            trace, _ = run_ts(reals, [q], protocol, params, T, K, rng(20), snapshot_every=0)
            for r, real in enumerate(reals):
                rewards = trace.block_rewards[r]
                se = rewards.std(ddof=1) / math.sqrt(K)
                want = block_reward(real, q, params, T)
                assert abs(rewards.mean() - want) < 4 * se, (protocol, r)
            corr = np.corrcoef(trace.block_rewards)[np.triu_indices(3, 1)]
            assert np.all(np.abs(corr) < 4 / math.sqrt(K)), (protocol, corr)

    def test_inferior_arm_pulls_sublinear(self):
        # large reward gap: inferior-arm pulls grow slower than linearly
        params = unit_params()
        real = NetworkRealization(np.empty(0), 10.0)  # mu(q) = T q, gap 0.6T
        arms = [0.3, 0.9]
        trace, _ = run_ts([real], arms, Protocol.BLOCK, params, 20, 5000, rng(16))
        pulls_half = int(np.sum(trace.arm_indices[0, :2500] == 0))
        pulls_full = int(np.sum(trace.arm_indices[0] == 0))
        assert pulls_full < 2 * max(pulls_half, 1)
        assert pulls_full < 250

    def test_snapshots_every_100(self):
        params = unit_params()
        reals = [NetworkRealization(np.empty(0), 10.0)] * 3
        _, history = run_ts(reals, [0.4, 0.8], Protocol.BLOCK, params, 5, 250, rng(17))
        assert [h["block"] for h in history] == [100, 200]
        assert all(h["posteriors"].shape == (3, 2, 2) for h in history)

    def test_matches_per_step_reference_loop(self):
        # run_ts computes the factors once per call; a plain loop that
        # recomputes them from the distances at every step, with scalar
        # posterior updates, gives the same arms, rewards, snapshots and
        # generator state on the same seed (the last realization is empty)
        params = ChannelParams(1.0, 1.0, 2.0, 2e-3, 1.5)
        reals = [*realizations(2, 25), NetworkRealization(np.empty(0), 10.0)]
        arms = np.array([0.2, 0.5, 0.8, 1.0])
        R, D, T, K = 3, arms.size, 20, 300
        distances = np.concatenate([r.interferer_distances for r in reals])
        owner = block_owner([r.num_interferers for r in reals])
        noise = params.noise_success_factor(10.0)
        for protocol in Protocol:
            g = rng(26)
            a, b = np.ones((R, D)), np.ones((R, D))
            arm_indices, rewards, snapshots = np.empty((R, K), int), np.empty((R, K)), []
            for k in range(K):
                d = select_arm(a, b, g)
                q = arms[d]
                factors = suppression_factors(distances, 10.0, params)
                if protocol is Protocol.CLASSICAL:
                    p = T * q * block_success_prob(factors, owner, R, noise, protocol, q, g) / T
                else:
                    access = g.random(R) < q
                    p = access * block_success_prob(factors, owner, R, noise, protocol, q, g)
                succ = g.binomial(T, p)
                for r in range(R):
                    a[r, d[r]] += succ[r]
                    b[r, d[r]] += T - succ[r]
                arm_indices[:, k], rewards[:, k] = d, succ
                if (k + 1) % 100 == 0:
                    snapshots.append(np.stack([a, b], axis=-1))

            g_ts = rng(26)
            trace, history = run_ts(reals, arms, protocol, params, T, K, g_ts)
            assert np.array_equal(trace.arm_indices, arm_indices), protocol
            assert np.array_equal(trace.block_rewards, rewards), protocol
            assert [h["block"] for h in history] == [100, 200, 300]
            for h, want in zip(history, snapshots):
                assert np.array_equal(h["posteriors"], want), (protocol, h["block"])
            assert g_ts.bit_generator.state == g.bit_generator.state, protocol

    def test_empty_arm_list_rejected(self):
        with pytest.raises(ValueError):
            run_ts(realizations(2, 24), [], Protocol.BLOCK, unit_params(), 5, 10, rng(24))

    def test_realizations_must_share_r0(self):
        reals = [NetworkRealization(np.empty(0), 10.0), NetworkRealization(np.empty(0), 12.0)]
        with pytest.raises(ValueError):
            run_ts(reals, [0.5], Protocol.BLOCK, unit_params(), 5, 10, rng(21))


class TestEnvelopes:
    def test_monotone(self):
        base = regret_envelope_explicit(100, 10, 5)
        assert regret_envelope_explicit(200, 10, 5) > base
        assert regret_envelope_explicit(100, 20, 5) > base
        assert regret_envelope_explicit(100, 10, 10) > base
