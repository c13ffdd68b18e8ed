import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from alohactrl import control, montecarlo
from alohactrl.aloha import Protocol
from alohactrl.bandit import run_ts
from alohactrl.cli import main as cli_main
from alohactrl.config import load_config
from alohactrl.channel import (
    ChannelParams, block_owner, block_success_prob, default_channel, suppression_factors,
)
from alohactrl.geometry import PppConfig, sample_blocks, sample_ppp
from alohactrl.montecarlo import (
    ExperimentConfig,
    compare_analytic_empirical,
    default_system_for,
    estimate_block_controllability,
    estimate_meta_empirical,
    run_regret_study,
    _chunk_acks,
    _chunk_success_prob,
)
from alohactrl.control import longest_runs


def unit_params(alpha=4.0, gamma=1.0, N0=0.0):
    return ChannelParams(1.0, 1.0, alpha, N0, gamma)


def small_config(**kw):
    base = dict(
        ppp=PppConfig(5e-4, 150.0, 10.0),
        channel=unit_params(alpha=2.0),
        T=10,
        v=2,
        num_realizations=4000,
        seed=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            small_config(q_values=(0.5, 1.2))

    def test_rejects_v_above_T(self):
        with pytest.raises(ValueError):
            small_config(v=11)

    def test_rejects_unknown_system(self):
        with pytest.raises(ValueError):
            small_config(systems=("restless", "sleepy"))


class TestSimulateAckBlocks:
    def test_q_zero_all_idle(self):
        acks = _chunk_acks(
            PppConfig(5e-4, 150.0, 10.0), unit_params(), Protocol.BLOCK,
            0.0, 10, 2000, np.random.default_rng(1),
        )
        assert not acks.any()

    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("fixed", [False, True])
    def test_q_zero_no_acks(self, protocol, fixed):
        # an idle typical pair never succeeds, whatever the kernel's value
        ppp = PppConfig(5e-4, 150.0, 10.0)
        factors = (suppression_factors(sample_ppp(ppp, np.random.default_rng(2)), 10.0,
                                       default_channel()) if fixed else None)
        acks = _chunk_acks(ppp, default_channel(), protocol, 0.0, 10, 5000,
                           np.random.default_rng(3), factors)
        assert acks.shape == (5000, 10) and not acks.any()

    @pytest.mark.parametrize("distances", [
        np.array([1.0, -2.0]), np.array([0.0]), np.ones((1, 1)),
    ])
    def test_rejects_nonpositive_distance(self, distances):
        # run_ts is the one entry that takes fixed distances from a caller
        with pytest.raises(ValueError):
            run_ts([distances], [0.5], Protocol.BLOCK, default_channel(), 10, 1,
                   np.random.default_rng(3), r0=10.0)

    def test_fixed_geometry_blocks_repeat_the_realization(self):
        # the realization's factors, repeated as 4 blocks of 3, equal the
        # kernel on the tiled distances, activity draws included
        ppp = PppConfig(5e-4, 150.0, 10.0)
        params = unit_params(alpha=2.0)
        real = np.array([12.0, 30.0, 55.0])
        fixed = suppression_factors(real, 10.0, params)
        tiled = suppression_factors(np.tile(real, 4), 10.0, params)
        for protocol in Protocol:
            once, per_block = np.random.default_rng(0), np.random.default_rng(0)
            got = _chunk_success_prob(ppp, params, protocol, 0.5, 4, once, fixed)
            want = block_success_prob(tiled, block_owner([3, 3, 3, 3]), 4,
                                      params.noise_success_factor(10.0), protocol, 0.5,
                                      per_block)
            assert np.array_equal(got, want), protocol
            assert once.bit_generator.state == per_block.bit_generator.state

    def test_fresh_blocks_draw_through_sample_blocks(self):
        # fresh geometries come from the one PPP sampler, then the kernel
        ppp = PppConfig(5e-4, 150.0, 10.0)
        params = unit_params(alpha=2.0)
        for protocol in Protocol:
            chunk, direct = np.random.default_rng(4), np.random.default_rng(4)
            got = _chunk_success_prob(ppp, params, protocol, 0.5, 50, chunk)
            counts, distances = sample_blocks(ppp, 50, direct)
            want = block_success_prob(suppression_factors(distances, 10.0, params),
                                      block_owner(counts), 50,
                                      params.noise_success_factor(10.0), protocol, 0.5, direct)
            assert np.array_equal(got, want), protocol
            assert chunk.bit_generator.state == direct.bit_generator.state

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_fixed_geometry_success_rate(self, protocol):
        # per-slot marginal on a fixed realization is q * P_cls(q) under both
        # protocols; slots are i.i.d. given the geometry for classical ALOHA,
        # and blocks are independent, so block totals give the standard error
        params = unit_params(alpha=2.0)
        real = np.array([11.0, 16.0, 35.0, 60.0])
        q, T, n_blocks = 0.7, 10, 40_000
        acks = _chunk_acks(PppConfig(5e-4, 150.0, 10.0), params, protocol, q, T, n_blocks,
                           np.random.default_rng(8), suppression_factors(real, 10.0, params))
        totals = acks.sum(axis=1)
        want = T * q * block_success_prob(
            suppression_factors(real, 10.0, params),
            block_owner([real.size]), 1, params.noise_success_factor(10.0),
            Protocol.CLASSICAL, q, np.random.default_rng(0))[0]
        se = totals.std(ddof=1) / math.sqrt(n_blocks)
        assert abs(totals.mean() - want) < 3 * se

    def test_reproducible_across_threads(self):
        # 9,000 blocks are three chunks, which threads = 4 runs in the pool
        config = small_config(ppp=PppConfig(5e-3, 100.0, 10.0), channel=default_channel(),
                              protocols=(Protocol.CLASSICAL,), q_values=(0.6,), T=12,
                              num_realizations=9000, seed=5)
        a = estimate_block_controllability(config)
        b = estimate_block_controllability(replace(config, threads=4))
        assert a == b

    def test_longest_run_helper(self):
        acks = np.array([[1, 1, 0, 1], [0, 0, 0, 0], [1, 1, 1, 1]], dtype=np.uint8)
        assert list(longest_runs(acks)) == [2, 0, 4]

    def test_success_rate_matches_conditional_marginal(self):
        # per-slot marginal success probability is q * E[P_cls]
        from alohactrl.analytics import moment_zeta

        ppp = PppConfig(5e-4, 150.0, 10.0)
        params = unit_params(alpha=2.0)
        q = 0.5
        acks = _chunk_acks(
            ppp, params, Protocol.CLASSICAL, q, 10, 40_000, np.random.default_rng(9)
        )
        emp = float(acks.mean())
        want = moment_zeta(1, q, ppp, params, Protocol.CLASSICAL)
        n = acks.size
        assert abs(emp - want) < 3 * math.sqrt(want * (1 - want) / n)


class TestEstimateBlockControllability:
    def test_rested_dominates_restless(self):
        results = estimate_block_controllability(small_config())
        by_key = {(r.protocol, r.system, r.q): r.estimate for r in results}
        for protocol in (Protocol.BLOCK, Protocol.CLASSICAL):
            for q in small_config().q_values:
                assert by_key[(protocol, "rested", q)] >= by_key[(protocol, "restless", q)]

    def test_ci_shrinks_with_n(self):
        r1 = estimate_block_controllability(
            small_config(num_realizations=2000, q_values=(0.5,))
        )[0]
        r2 = estimate_block_controllability(
            small_config(num_realizations=8000, q_values=(0.5,))
        )[0]
        # quadrupling n halves the CI width (within estimate noise)
        assert r2.half_width_95 < 0.65 * r1.half_width_95

    def test_fixed_geometry_mode(self):
        results = estimate_block_controllability(
            small_config(fixed_geometry=True, q_values=(0.4,), num_realizations=2000)
        )
        assert all(0.0 <= r.estimate <= 1.0 for r in results)

    def test_state_level_agrees_with_ack_level(self):
        cfg = small_config(
            q_values=(0.6,), num_realizations=2500,
            protocols=(Protocol.BLOCK,),
        )
        ack = {r.system: r for r in estimate_block_controllability(cfg)}
        state = {
            r.system: r
            for r in estimate_block_controllability(
                ExperimentConfig(**{**cfg.__dict__, "state_level": True})
            )
        }
        # the state-level loops run on the ack-level stream of the same seed
        for system in ("restless", "rested"):
            assert state[system].estimate == ack[system].estimate


class TestStateLevel:
    """The controller/actuator loops on a fig2-shaped point."""

    @staticmethod
    def fig2_point(**kw):
        cfg = load_config("fig2", ["q_values=[0.5]", "protocol=block"])
        return replace(cfg, state_level=True, **{"num_realizations": 600, **kw})

    @staticmethod
    def traced_run(monkeypatch, cfg):
        """Run one state-level sweep, keeping every trace the loops return."""
        traces = {"restless": [], "rested": []}
        for system, run in (("restless", control.run_block_restless),
                            ("rested", control.run_block_rested)):
            def spy(*args, run=run, kept=traces[system], **kwargs):
                trace = run(*args, **kwargs)
                kept.append(trace)
                return trace
            monkeypatch.setattr(montecarlo, f"run_block_{system}", spy)
        results = estimate_block_controllability(cfg)
        monkeypatch.undo()
        return results, traces

    def test_flagged_blocks_end_at_target(self, monkeypatch):
        cfg = self.fig2_point()
        _, traces = self.traced_run(monkeypatch, cfg)
        target = default_system_for(cfg.v).x_des
        for system in ("restless", "rested"):
            (trace,) = traces[system]
            flagged = trace.block_controllable
            assert 0 < np.count_nonzero(flagged) < cfg.num_realizations
            miss = np.abs(trace.states_x[:, -1] - target).max(axis=1)
            assert np.all(miss[flagged] <= 1e-9)
            assert np.all(miss[~flagged] > 1e-9)

    def test_process_noise_moves_states_not_flags(self, monkeypatch):
        quiet, quiet_traces = self.traced_run(monkeypatch, self.fig2_point())
        noisy, noisy_traces = self.traced_run(
            monkeypatch, self.fig2_point(process_noise_std=0.1))
        assert [r.estimate for r in noisy] == [r.estimate for r in quiet]
        for system in ("restless", "rested"):
            (a,), (b,) = quiet_traces[system], noisy_traces[system]
            assert np.array_equal(a.block_controllable, b.block_controllable)
            assert np.array_equal(a.states_x[:, 0], b.states_x[:, 0])
            # a noisy state differs from the noiseless one by O(0.1)
            assert np.abs(a.states_x[:, 1:] - b.states_x[:, 1:]).min() > 0.0
            assert np.abs(a.states_x[:, -1] - b.states_x[:, -1]).mean() > 0.01

    def test_csv_identical_across_threads(self, tmp_path):
        common = ["simulate", "--config", "fig2", "--set", "state_level=true",
                  "--set", "num_realizations=300"]
        cli_main([*common, "--out", str(tmp_path / "t1"), "--threads", "1"])
        cli_main([*common, "--out", str(tmp_path / "t2"), "--threads", "2"])
        assert (tmp_path / "t1" / "sweep.csv").read_bytes() == \
            (tmp_path / "t2" / "sweep.csv").read_bytes()

    def test_memory_bounded_by_chunks(self):
        # 20,000 blocks in chunks of CHUNK_BLOCKS peak at about 20 MB, the
        # ack kernel's own chunk peak; the traces of all 20,000 blocks at
        # once would peak at about 47 MB
        cfg = self.fig2_point(num_realizations=20_000)
        tracemalloc.start()
        try:
            estimate_block_controllability(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestCompare:
    def test_zero_intensity_exact_agreement(self):
        cfg = small_config(
            ppp=PppConfig(0.0, 150.0, 10.0),
            channel=ChannelParams(1.0, 1.0, 2.0, 2e-3, 1.0),
            q_values=(0.3, 0.8),
            num_realizations=30_000,
        )
        rows = compare_analytic_empirical(cfg)
        assert rows and all(r.passes for r in rows)

    def test_moderate_density_passes(self):
        cfg = small_config(q_values=(0.4, 0.9), num_realizations=30_000)
        rows = compare_analytic_empirical(cfg)
        assert rows and all(r.passes for r in rows)

    def test_both_systems_keep_restless_rows_and_meta_child_seeds(self):
        cfg = small_config(q_values=(0.4, 0.9), beta_values=(0.3, 0.6), num_realizations=2000)
        rows = compare_analytic_empirical(cfg)
        assert [r for r in rows if r.beta is None] == compare_analytic_empirical(
            replace(cfg, systems=("restless",)))
        rested = [r for r in rows if r.beta is not None]
        assert [(r.protocol, r.beta, r.q) for r in rested] == [
            (p, b, q) for p in cfg.protocols for b in cfg.beta_values for q in cfg.q_values]
        seeds = np.random.SeedSequence(cfg.seed).spawn(len(rested))
        for r, seed in zip(rested, seeds):
            assert r.system == "rested"
            assert r.empirical == estimate_meta_empirical(cfg, r.protocol, r.q, r.beta,
                                                          seed_seq=seed)


class TestMetaEmpirical:
    def test_block_unreachable_beta_zero(self):
        cfg = small_config(T=20, v=4)
        assert estimate_meta_empirical(cfg, Protocol.BLOCK, 0.5, 0.9) == 0.0

    def test_fraction_in_unit_interval(self):
        cfg = small_config(T=20, v=4, num_realizations=500)
        frac = estimate_meta_empirical(cfg, Protocol.CLASSICAL, 0.7, 0.7)
        assert 0.0 <= frac <= 1.0
        # 9,000 realizations are 3 chunks, the same for any thread count
        cfg = replace(cfg, num_realizations=9000)
        fracs = [estimate_meta_empirical(replace(cfg, threads=t), Protocol.CLASSICAL, 0.7, 0.7)
                 for t in (1, 3)]
        assert fracs[0] == fracs[1] and 0.0 < fracs[0] < 1.0


class TestRegretStudy:
    def test_single_arm_flat_zero(self):
        cfg = small_config(
            arms=(0.5,), K=50, num_realizations=3,
            channel=default_channel(),
        )
        study = run_regret_study(cfg)
        assert np.all(study.mean_cumulative == 0.0)

    def test_curve_below_envelope_and_monotone(self):
        cfg = small_config(
            arms=(0.2, 0.5, 0.9), K=300, num_realizations=6, channel=default_channel(),
        )
        study = run_regret_study(cfg)
        assert np.all(np.diff(study.mean_cumulative) >= -1e-12)
        assert np.all(study.mean_cumulative <= study.envelope)

    def test_geometry_from_spawned_children(self):
        # realization i comes from child i of the seed, as before the
        # lockstep loop; TS runs on one further child
        cfg = small_config(
            arms=(0.2, 0.5, 0.9), K=100, num_realizations=5, channel=default_channel(),
        )
        root = np.random.SeedSequence(cfg.seed)
        reals = [sample_ppp(cfg.ppp, np.random.Generator(np.random.PCG64(s)))
                 for s in root.spawn(5)]
        trace, _ = run_ts(reals, cfg.arms, cfg.protocols[0], cfg.channel, cfg.T, cfg.K,
                          np.random.Generator(np.random.PCG64(root.spawn(1)[0])),
                          r0=cfg.ppp.typical_distance_r0)
        study = run_regret_study(cfg)
        assert np.array_equal(study.mean_cumulative, trace.cumulative.mean(axis=0))

    def test_default_system_shape(self):
        sys = default_system_for(4)
        assert sys.v == 4 and sys.n == 4
