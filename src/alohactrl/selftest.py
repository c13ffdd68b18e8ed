"""Built-in oracle checks runnable without the test suite installed.

Each check recomputes its expected value from an independent route
(enumeration, direct summation, hand arithmetic, or a seeded Monte-Carlo law)
and compares the library against it. `alohactrl selftest` runs every check
and exits nonzero if any fails.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import product

import numpy as np

from . import analytics, bandit, channel, control, geometry, montecarlo
from .aloha import Protocol

CHECKS = []


def check(fn):
    CHECKS.append(fn)
    return fn


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def _enumerate_run_tail(T, v, p):
    total = 0
    for bits in product((0, 1), repeat=T):
        run = best = 0
        for b in bits:
            run = run + 1 if b else 0
            best = max(best, run)
        if best >= v:
            ones = sum(bits)
            total += p**ones * (1 - p) ** (T - ones)
    return total


@check
def demoivre_hand_case():
    assert abs(analytics.run_ccdf_demoivre(3, 2, 0.5) - 0.375) < 1e-15


@check
def demoivre_vs_enumeration():
    for T in (4, 6, 8):
        for v in (1, 2, 3):
            for p in (0.2, 0.5, 0.8):
                got = analytics.run_ccdf_demoivre(T, v, p)
                want = _enumerate_run_tail(T, v, p)
                assert abs(got - want) < 1e-12, (T, v, p, got, want)


@check
def demoivre_single_run():
    for T, p in ((5, 0.3), (9, 0.7)):
        assert abs(analytics.run_ccdf_demoivre(T, 1, p) - (1 - (1 - p) ** T)) < 1e-12


@check
def binomial_tail_direct():
    T, v, p = 20, 4, 0.3
    direct = sum(math.comb(T, l) * p**l * (1 - p) ** (T - l) for l in range(v, T + 1))
    assert abs(analytics.binomial_tail(T, v, p) - direct) < 1e-12
    assert analytics.binomial_tail(T, 0, p) == 1.0
    assert analytics.binomial_tail(T, 3, 0.0) == 0.0


@check
def success_prob_hand_case():
    # one interferer at 20 m, r0 = 10, alpha = 2, gamma = 1, N0 = 0:
    # p = 1 / (1 + (20/10)^-2) = 0.8 under block (all active) and classical q = 1
    params = channel.ChannelParams(1.0, 1.0, 2.0, 0.0, 1.0)
    x = channel.suppression_factors([20.0], 10.0, params)
    for protocol in Protocol:
        p = channel.block_success_prob(x, channel.block_owner([1]), 1,
                                       params.noise_success_factor(10.0), protocol, 1.0,
                                       _rng(0))
        assert abs(p[0] - 0.8) < 1e-12, (protocol, p)


@check
def conditional_success_hand_cases():
    # noiseless: no interferer gives 1, one at the typical distance 1/2, both
    # with it active (block) and with classical q = 1
    params = channel.ChannelParams(1.0, 1.0, 2.0, 0.0, 1.0)
    x = channel.suppression_factors([10.0], 10.0, params)
    for protocol in Protocol:
        p = channel.block_success_prob(x, channel.block_owner([0, 1]), 2,
                                       params.noise_success_factor(10.0), protocol, 1.0,
                                       _rng(0))
        assert p[0] == 1.0 and abs(p[1] - 0.5) < 1e-12, (protocol, p)


@check
def minimal_poly_cases():
    assert control.minimal_poly_degree(np.eye(3)) == 1
    assert control.minimal_poly_degree(np.diag([1.0, 2.0])) == 2
    J = 0.5 * np.eye(3) + np.diag([1.0, 1.0], 1)
    assert control.minimal_poly_degree(J) == 3


@check
def design_inputs_two_step():
    # double integrator: fine for input design, no holding/feedback input
    sys = control.LtiSystem([[1, 1], [0, 1]], [[0], [1]], [1.0, 0.0], v=2,
                            require_range=False)
    plan = control.design_inputs(sys, np.zeros(2))
    reached = sys.A @ (sys.B @ plan[0]) + sys.B @ plan[1]
    assert np.allclose(reached, [1.0, 0.0], atol=1e-9)


@check
def holding_and_feedback_hand_cases():
    sys = control.LtiSystem(0.5 * np.eye(2), np.eye(2), [2.0, 2.0])
    u_bar = control.holding_input(sys)
    assert np.allclose(u_bar, [1.0, 1.0], atol=1e-12)
    assert np.allclose(sys.A @ sys.x_des + sys.B @ u_bar, sys.x_des, atol=1e-12)
    scalar = control.LtiSystem([[0.9]], [[2.0]], [0.0])
    u = control.feedback_input(scalar, [10.0])
    assert abs(u[0] - 0.5) < 1e-12
    assert abs(0.9 * 10.0 + 2.0 * u[0] - 10.0) < 1e-12


@check
def restless_full_success_reaches_target():
    sys = montecarlo.default_system_for(3)
    trace = control.run_block_restless(sys, np.ones(8, dtype=int), np.zeros(3))
    assert trace.block_controllable[0]
    assert np.allclose(trace.states_x[0, -1], sys.x_des, atol=1e-9)
    assert np.allclose(trace.states_x, trace.estimates_xhat, atol=1e-9)


@check
def rested_scattered_success_reaches_target():
    sys = montecarlo.default_system_for(3)
    pattern = [0, 1, 0, 1, 0, 0, 1, 0]
    trace = control.run_block_rested(sys, pattern, np.zeros(3))
    assert trace.block_controllable[0]
    assert np.allclose(trace.states_x[0, -1], sys.x_des, atol=1e-9)


@check
def run_detectors_vs_scan():
    rng = _rng(7)
    for _ in range(300):
        acks = (rng.random(20) < 0.4).astype(int)
        v = int(rng.integers(1, 6))
        run = best = 0
        for s in acks:
            run = run + 1 if s else 0
            best = max(best, run)
        assert control.longest_runs(acks)[0] == best
        restless = control.longest_runs(acks)[0] >= v
        rested = np.count_nonzero(acks) >= v
        assert restless == (best >= v)
        assert rested == (acks.sum() >= v)
        if restless:
            assert rested


@check
def ppp_trivial_cases():
    cfg = geometry.PppConfig(0.0, 100.0, 10.0)
    assert geometry.sample_ppp(cfg, _rng(1)).size == 0
    cfg = geometry.PppConfig(5e-3, 100.0, 10.0)
    real = geometry.sample_ppp(cfg, _rng(2))
    assert 0.0 < real.min() <= real.max() <= 100.0


@check
def no_acks_at_q_zero():
    ppp = geometry.PppConfig(5e-3, 100.0, 10.0)
    for protocol in Protocol:
        rng = _rng(3)
        chunk = montecarlo._chunk_geometry(ppp, channel.default_channel(), 500, rng)
        acks = montecarlo._chunk_acks(chunk, protocol, 0.0, 10, rng)
        assert not acks.any(), protocol


@check
def posterior_bookkeeping():
    # a - 1 sums the arm's block rewards, and (a - 1) + (b - 1) is T per pull
    params = channel.ChannelParams(1.0, 1.0, 2.0, 0.0, 1.0)
    T, K = 20, 200
    trace, history = bandit.run_ts([np.array([15.0, 40.0])], [0.3, 1.0], Protocol.BLOCK,
                                   params, T, K, _rng(5), snapshot_every=K, r0=10.0)
    a, b = history[-1]["posteriors"][0].T
    for d in range(2):
        pulled = trace.arm_indices[0] == d
        assert a[d] - 1 == trace.block_rewards[0, pulled].sum()
        assert a[d] + b[d] - 2 == T * np.count_nonzero(pulled)


@check
def arm_selection_dominance():
    # noiseless and alone, arm q earns T q a block: q = 1 dominates q = 0.1
    params = channel.ChannelParams(1.0, 1.0, 2.0, 0.0, 1.0)
    trace, _ = bandit.run_ts([np.empty(0)], [0.1, 1.0], Protocol.CLASSICAL, params, 20, 1000,
                             _rng(11), snapshot_every=0, r0=10.0)
    assert np.count_nonzero(trace.arm_indices[0] == 0) <= 20


@check
def oracle_arm_dense_dummy():
    # one interferer at r0: arm q earns T q (1 - q/2), largest at q = 1
    params = channel.ChannelParams(1.0, 1.0, 2.0, 0.0, 1.0)
    arms = [round(0.1 * i, 10) for i in range(1, 11)]
    trace, _ = bandit.run_ts([np.array([10.0])], arms, Protocol.BLOCK, params, 20, 50, _rng(0),
                             snapshot_every=0, r0=10.0)
    assert trace.oracle_arm_index[0] == 9
    mu = np.array([20 * q * (1 - q / 2) for q in arms])
    assert np.allclose(trace.per_block_gap[0], mu[9] - mu[trace.arm_indices[0]],
                       rtol=0, atol=1e-12)


@check
def envelope_arithmetic():
    want = math.sqrt(64 * 5000 * 10 * math.log(5000)) + 4 * 20 * 10
    assert abs(bandit.regret_envelope_explicit(5000, 20, 10) - want) < 1e-9


@check
def threshold_inversion():
    assert analytics.inverse_tail_threshold(20, 4, 0.5, 0.9, Protocol.BLOCK) is None
    p = analytics.inverse_tail_threshold(20, 4, 1.0, 0.9, Protocol.BLOCK)
    assert analytics.binomial_tail(20, 4, p) >= 0.9
    assert analytics.binomial_tail(20, 4, p - 1e-9) < 0.9


@check
def meta_point_mass():
    params = channel.ChannelParams(1.0, 1.0, 4.0, 0.0, 1.0)
    empty = geometry.PppConfig(0.0, 500.0, 10.0)
    query = analytics.MetaQuery(4, 0.9, 20, 1.0, params)
    # noiseless, no interferers: success probability is exactly 1
    assert analytics.meta_distribution_rested(query, empty, Protocol.BLOCK) == 1.0
    low_q = analytics.MetaQuery(4, 0.9, 20, 0.5, params)
    assert analytics.meta_distribution_rested(low_q, empty, Protocol.BLOCK) == 0.0


@check
def chunked_simulation_reproducible():
    # 9,000 blocks are three chunks, so threads = 3 runs them in the pool
    config = montecarlo.ExperimentConfig(geometry.PppConfig(5e-3, 100.0, 10.0),
                                         channel.default_channel(), q_values=(0.5,), T=10,
                                         num_realizations=9000, seed=42)
    sweep = montecarlo.estimate_block_controllability
    assert sweep(config) == sweep(replace(config, threads=3))


def run_selftest() -> int:
    failures = 0
    for fn in CHECKS:
        name = fn.__name__
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 1 if failures else 0
