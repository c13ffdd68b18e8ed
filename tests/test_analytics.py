import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as scipy_fft
from scipy import integrate, special

from alohactrl import analytics
from alohactrl.aloha import Protocol
from alohactrl.analytics import (
    MetaQuery,
    QuadratureError,
    _base_loss,
    _jump_cdf,
    _log_success_law,
    _next_5_smooth,
    _quad_checked,
    _run_tail_coefficients,
    binomial_tail,
    interference_log_integral,
    inverse_tail_threshold,
    meta_distribution_rested,
    moment_zeta,
    prob_block_controllable_restless,
    run_ccdf_demoivre,
)
from alohactrl.channel import ChannelParams, block_owner, block_success_prob, suppression_factors
from alohactrl.config import load_config
from alohactrl.geometry import PppConfig, sample_ppp
from alohactrl.montecarlo import estimate_meta_empirical
from alohactrl.selftest import _enumerate_run_tail as enumerate_run_tail


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def kernel_real(real, r0, params, protocol, q, g):
    """The success kernel on one realization, from its suppression factors."""
    return block_success_prob(suppression_factors(real, r0, params),
                              block_owner([real.size]), 1,
                              params.noise_success_factor(r0), protocol, q, g)[0]


def unit_params(alpha=4.0, gamma=1.0, N0=0.0):
    return ChannelParams(1.0, 1.0, alpha, N0, gamma)


# a sparse network in a 500 m window, the meta tests' default
SPARSE = PppConfig(1e-4, 500.0, 10.0)


class TestRunCcdfDemoivre:
    def test_single_run_length(self):
        for T, p in ((7, 0.25), (15, 0.6)):
            assert run_ccdf_demoivre(T, 1, p) == pytest.approx(1 - (1 - p) ** T, abs=1e-12)

    def test_certain_success(self):
        for v in (1, 3, 7):
            assert run_ccdf_demoivre(7, v, 1.0) == pytest.approx(1.0)

    def test_enumeration_medium(self):
        for T in (6, 9):
            for v in range(1, T + 1):
                for p in (0.1, 0.5, 0.9):
                    want = enumerate_run_tail(T, v, p)
                    assert run_ccdf_demoivre(T, v, p) == pytest.approx(want, abs=1e-12)

    def test_extended_precision_path(self):
        # T/(v+1) > 6 forces the exact rational path; compare to enumeration
        T, v = 13, 1
        for p in (0.3, 0.7):
            assert run_ccdf_demoivre(T, v, p) == pytest.approx(
                enumerate_run_tail(T, v, p), abs=1e-12
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            run_ccdf_demoivre(5, 6, 0.5)
        with pytest.raises(ValueError):
            run_ccdf_demoivre(5, 0, 0.5)
        with pytest.raises(ValueError):
            run_ccdf_demoivre(5, 2, 1.5)

    def test_rejects_p_before_building_coefficients(self):
        # at T = 1100, v = 1 the coefficients alone take over a second
        misses = _run_tail_coefficients.cache_info().misses
        with pytest.raises(ValueError):
            run_ccdf_demoivre(1100, 1, 2.0)
        assert _run_tail_coefficients.cache_info().misses == misses

    @settings(max_examples=200, deadline=None)
    @given(
        T=st.integers(1, 25),
        v=st.integers(1, 25),
        p=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_run_tail_below_binomial_tail(self, T, v, p):
        if v > T:
            v = T
        assert run_ccdf_demoivre(T, v, p) <= binomial_tail(T, v, p) + 1e-12


class TestRunTailCoefficients:
    def test_integer_polynomial_of_degree_at_most_T(self):
        for T in range(1, 31):
            for v in range(1, T + 1):
                coeffs = _run_tail_coefficients(T, v)
                assert all(type(ck) is int for ck in coeffs)
                assert len(coeffs) <= T + 1
                assert not any(coeffs[:v])
                assert sum(coeffs) == 1  # the tail at p = 1

    def test_exact_against_enumeration(self):
        for T in range(1, 11):
            for v in range(1, T + 1):
                coeffs = _run_tail_coefficients(T, v)
                for p in (0.1, 0.37, 0.5, 0.93):
                    pf = Fraction(p)
                    got = sum(ck * pf**k for k, ck in enumerate(coeffs))
                    assert got == enumerate_run_tail(T, v, pf), (T, v, p)


class TestBinomialTail:
    def test_trivial_cases(self):
        assert binomial_tail(20, 0, 0.3) == 1.0
        assert binomial_tail(20, 4, 0.0) == 0.0
        assert binomial_tail(20, 20, 1.0) == pytest.approx(1.0)

    def test_direct_sum(self):
        T, v, p = 20, 4, 0.3
        direct = math.fsum(
            math.comb(T, l) * p**l * (1 - p) ** (T - l) for l in range(v, T + 1)
        )
        assert binomial_tail(T, v, p) == pytest.approx(direct, abs=1e-13)

    def test_monte_carlo_frequency(self):
        T, v, p = 20, 4, 0.3
        draws = rng(1).binomial(T, p, 1_000_000)
        emp = float(np.mean(draws >= v))
        want = binomial_tail(T, v, p)
        assert abs(emp - want) < 3 * math.sqrt(want * (1 - want) / 1_000_000)

    def test_matches_regularized_incomplete_beta(self):
        # P(X >= v) = I_p(v, T - v + 1); every v of T = 1..200 in steps of 7
        # and T = 200, on a grid with both ends and points near them
        ps = np.concatenate(([0.0, 1e-300, 1e-12, 1e-5], np.linspace(0.0, 1.0, 21)[1:-1],
                             [0.999, 1.0 - 1e-9, 1.0 - 1e-15, 1.0]))
        for T in [*range(1, 200, 7), 200]:
            for v in range(1, T + 1):
                for p in ps:
                    want = float(special.betainc(v, T - v + 1, p))
                    assert abs(binomial_tail(T, v, p) - want) < 1e-13, (T, v, p)

    def test_large_T_does_not_overflow(self):
        # C(10^6, 5 10^5) overflows any float; the median tail is 1/2 + pmf/2
        T = 10**6
        want = float(special.betainc(T // 2, T // 2 + 1, 0.5))
        assert binomial_tail(T, T // 2, 0.5) == pytest.approx(want, abs=1e-13)


class TestInterferenceLogIntegral:
    def test_zero_intensity(self):
        out = interference_log_integral(
            3, 0.5, PppConfig(0.0, 500.0, 10.0), unit_params(), Protocol.BLOCK
        )
        assert out == 0.0

    def test_order_zero(self):
        out = interference_log_integral(
            0, 0.5, PppConfig(1e-4, 500.0, 10.0), unit_params(), Protocol.BLOCK
        )
        assert out == 0.0

    def test_pgfl_monte_carlo_oracle(self):
        # exp(exponent) vs the sampled mean of prod r0^-4/(r0^-4 + r^-4)
        # over PPP realizations in the disk of radius 500
        lam, r0, R, q = 1e-4, 10.0, 500.0, 1.0
        params = unit_params()
        expnt = interference_log_integral(1, q, PppConfig(lam, R, r0), params, Protocol.BLOCK)
        g = rng(3)
        n = 100_000
        counts = g.poisson(lam * math.pi * R * R, n)
        tot = int(counts.sum())
        radii = R * np.sqrt(g.random(tot))
        lnx = np.log(1.0 / (1.0 + (radii / r0) ** -4.0))
        starts = np.concatenate(([0], np.cumsum(counts)))
        cs = np.concatenate(([0.0], np.cumsum(lnx)))
        mc = float(np.mean(np.exp(cs[starts[1:]] - cs[starts[:-1]])))
        assert abs(math.exp(expnt) - mc) / mc < 0.02

    @pytest.mark.parametrize("alpha, window", [
        (alpha, window) for alpha in (2.0, 3.0, 4.0, 6.0) for window in (500.0, 5000.0, "fig2")
    ])
    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_matches_quadpack(self, protocol, alpha, window):
        # scipy.integrate.quad (QUADPACK qags) on the same integrand,
        # 1 - base^n = -expm1(n log(1 - c)), c = q_c / (1 + (z/r0)^a / gamma);
        # at alpha = 6, c rounds to 1 near z = 0, where the limit is 1
        fig2 = load_config("fig2")
        L = fig2.ppp.window_radius_R if window == "fig2" else window
        params = ChannelParams(fig2.channel.tx_power_eta, fig2.channel.pathloss_const_rho,
                               alpha, fig2.channel.noise_power_N0,
                               fig2.channel.sinr_threshold_gamma)
        lam, r0 = 5e-3, 10.0
        ppp = PppConfig(lam, L, r0)
        for q in (0.3, 1.0):
            q_c = q if protocol is Protocol.CLASSICAL else 1.0
            lam_eff = q * lam if protocol is Protocol.BLOCK else lam
            for order in range(1, 31):
                def f(z):
                    c = q_c / (1.0 + (z / r0) ** alpha / params.sinr_threshold_gamma)
                    return -math.expm1(order * math.log1p(-c)) * z if c < 1.0 else z

                want = -2.0 * math.pi * lam_eff * integrate.quad(
                    f, 0.0, L, epsabs=analytics._ABS_TOL, epsrel=analytics._REL_TOL,
                    limit=analytics._MAX_INTERVALS)[0]
                got = interference_log_integral(order, q, ppp, params, protocol)
                assert got == pytest.approx(want, rel=1e-9), (q, order)

    def test_windowed_converges_to_infinite_plane(self):
        # on the whole plane, alpha = 4 gives -lam pi r0^2 sqrt(gamma) Gamma(3/2) Gamma(1/2)
        lam, r0, gamma = 1e-4, 10.0, 1.0
        params = unit_params(alpha=4.0, gamma=gamma)
        inf_val = -lam * math.pi * r0**2 * math.sqrt(gamma) * math.pi / 2.0
        win_val = interference_log_integral(
            1, 1.0, PppConfig(lam, 5000.0, r0), params, Protocol.BLOCK
        )
        assert inf_val == pytest.approx(win_val, rel=1e-3)


class TestMomentZeta:
    def test_zero_intensity_noise_only(self):
        params = unit_params(N0=1e-3)
        ppp = PppConfig(0.0, 500.0, 10.0)
        for l in (1, 3):
            want = params.noise_success_factor(10.0, power=l)
            got = moment_zeta(l, 0.5, ppp, params, Protocol.BLOCK)
            assert got == pytest.approx(want, rel=1e-12)

    def test_moment_sequence_properties(self):
        params = unit_params()
        ppp = PppConfig(5e-4, 500.0, 10.0)
        zs = [
            moment_zeta(l, 0.7, ppp, params, Protocol.BLOCK)
            for l in range(1, 7)
        ]
        assert all(0.0 <= z <= 1.0 for z in zs)
        assert all(a >= b - 1e-12 for a, b in zip(zs, zs[1:]))
        # log-convexity of a Hausdorff moment sequence
        for a, b, c in zip(zs, zs[1:], zs[2:]):
            assert a * c >= b * b - 1e-9

    def test_first_moment_monte_carlo(self):
        # zeta(1) vs the sampled mean of the conditional success probability
        # with Bernoulli(q)-thinned interferers
        lam, q, r0 = 5e-4, 0.7, 10.0
        R = math.sqrt(25.0 / lam)
        params = unit_params()
        cfg = PppConfig(lam, R, r0)
        want = moment_zeta(1, q, cfg, params, Protocol.BLOCK)
        g = rng(5)
        n = 30_000
        vals = np.empty(n)
        for i in range(n):
            real = sample_ppp(cfg, g)
            vals[i] = kernel_real(real, r0, params, Protocol.BLOCK, q, g)
        assert abs(vals.mean() - want) / want < 0.02


class TestRestlessProbability:
    def test_q_zero(self):
        assert prob_block_controllable_restless(
            20, 4, 0.0, PppConfig(1e-4, 500.0, 10.0), unit_params(), Protocol.BLOCK
        ) == 0.0

    def test_zero_intensity_reduces_to_demoivre(self):
        params = unit_params(N0=2e-3)
        empty = PppConfig(0.0, 500.0, 10.0)
        p0 = params.noise_success_factor(10.0)
        for q in (0.4, 1.0):
            want = q * run_ccdf_demoivre(20, 4, p0)
            got = prob_block_controllable_restless(20, 4, q, empty, params, Protocol.BLOCK)
            assert got == pytest.approx(want, rel=1e-9)

    def test_zero_intensity_classical(self):
        params = unit_params(N0=2e-3)
        q = 0.6
        p0 = params.noise_success_factor(10.0)
        want = run_ccdf_demoivre(20, 4, q * p0)
        got = prob_block_controllable_restless(
            20, 4, q, PppConfig(0.0, 500.0, 10.0), params, Protocol.CLASSICAL
        )
        assert got == pytest.approx(want, rel=1e-9)

    def test_v_one_moment_expansion_identity(self):
        # at v=1 the block value equals q(1 - E[(1-P)^T]) expanded in moments
        params = unit_params()
        T, q = 6, 0.5
        ppp = PppConfig(2e-4, 500.0, 10.0)
        got = prob_block_controllable_restless(T, 1, q, ppp, params, Protocol.BLOCK)
        zs = {
            l: moment_zeta(l, q, ppp, params, Protocol.BLOCK)
            for l in range(1, T + 1)
        }
        expansion = math.fsum(
            math.comb(T, l) * (-1.0) ** (l + 1) * zs[l] for l in range(1, T + 1)
        )
        assert got == pytest.approx(q * expansion, rel=1e-8)

    def test_bounded_by_q(self):
        params = unit_params()
        ppp = PppConfig(5e-4, 500.0, 10.0)
        for q in (0.2, 0.7):
            val = prob_block_controllable_restless(20, 4, q, ppp, params, Protocol.BLOCK)
            assert 0.0 <= val <= q + 1e-12


def restless_term_expansion(T, v, q, ppp, channel, protocol):
    """The restless value as the de Moivre sum expanded term by term in
    (l, e), each term carrying its own moment, with q up front for block."""
    zeta = functools.lru_cache(None)(
        lambda order: moment_zeta(order, q, ppp, channel, protocol))
    terms = []
    for l in range(1, (T + 1) // (v + 1) + 1):
        sign = -1.0 if l % 2 == 0 else 1.0
        outer = math.comb(T - l * v, l - 1)
        for e in range(l):
            terms.append(sign * outer * math.comb(l - 1, e) * (-1.0) ** e
                         * zeta(l * v + 1 + e))
        coef = (T - l * v + 1) / l
        for e in range(l + 1):
            terms.append(sign * outer * coef * math.comb(l, e) * (-1.0) ** e
                         * zeta(l * v + e))
    return (q if protocol is Protocol.BLOCK else 1.0) * math.fsum(terms)


class TestRestlessAgainstTermExpansion:
    @pytest.mark.parametrize("preset", ["fig2", "fig4"])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_preset_points(self, preset, protocol):
        c = load_config(preset)
        for q in c.q_values:
            got = prob_block_controllable_restless(c.T, c.v, q, c.ppp, c.channel, protocol)
            want = restless_term_expansion(c.T, c.v, q, c.ppp, c.channel, protocol)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), (preset, protocol, q)

    def test_fig2_long_block_still_cancels(self):
        c = load_config("fig2")
        with pytest.raises(QuadratureError, match="alternating-sum cancellation"):
            prob_block_controllable_restless(200, 5, 0.5, c.ppp, c.channel, Protocol.BLOCK)


class TestNumericalFailureContract:
    def test_quadrature_error_carries_estimate(self, monkeypatch):
        # starve the adaptive quadrature so it cannot meet the tolerance
        monkeypatch.setattr(analytics, "_REL_TOL", 1e-13)
        monkeypatch.setattr(analytics, "_ABS_TOL", 1e-16)
        monkeypatch.setattr(analytics, "_MAX_INTERVALS", 1)
        with pytest.raises(QuadratureError, match="did not converge") as info:
            interference_log_integral(
                1, 1.0, PppConfig(1e-4, 5000.0, 10.0), unit_params(), Protocol.BLOCK
            )
        assert math.isfinite(info.value.error_estimate)
        assert info.value.error_estimate > 0.0

    def test_cancellation_warning(self):
        # long blocks with v=1 produce huge alternating binomial terms; the
        # precision-loss monitor must fail rather than return a clamped value
        params = unit_params(N0=0.0)
        with pytest.raises(QuadratureError, match="cancellation") as info:
            prob_block_controllable_restless(
                64, 1, 0.9, PppConfig(5e-4, 500.0, 10.0), params, Protocol.BLOCK
            )
        assert info.value.error_estimate > 0.0


class TestInverseTailThreshold:
    def test_block_unreachable_beta(self):
        assert inverse_tail_threshold(20, 4, 0.5, 0.9, Protocol.BLOCK) is None

    def test_small_beta_small_threshold(self):
        p = inverse_tail_threshold(20, 4, 1.0, 1e-9, Protocol.BLOCK)
        assert p is not None and p < 0.02

    def test_bracketing(self):
        p = inverse_tail_threshold(20, 4, 1.0, 0.9, Protocol.BLOCK)
        assert binomial_tail(20, 4, p) >= 0.9
        assert binomial_tail(20, 4, p) <= 0.9 + 1e-9
        assert binomial_tail(20, 4, p - 1e-9) < 0.9

    def test_classical_uses_qp(self):
        q = 0.8
        p = inverse_tail_threshold(20, 4, q, 0.7, Protocol.CLASSICAL)
        assert binomial_tail(20, 4, q * p) >= 0.7
        assert binomial_tail(20, 4, q * (p - 1e-9)) < 0.7


def test_fft_length_is_scipys_next_fast_len():
    got = [_next_5_smooth(n) for n in range(1, 20_000)]
    assert got == [scipy_fft.next_fast_len(n, real=True) for n in range(1, 20_000)]


class TestMetaDistribution:
    def test_point_mass_cases(self):
        params = unit_params(N0=0.0)
        empty = PppConfig(0.0, 500.0, 10.0)
        q1 = MetaQuery(4, 0.9, 20, 1.0, params)
        assert meta_distribution_rested(q1, empty, Protocol.BLOCK) == 1.0
        q2 = MetaQuery(4, 0.95, 20, 0.9, params)
        assert meta_distribution_rested(q2, empty, Protocol.BLOCK) == 0.0

    def test_block_q_below_beta_zero(self):
        query = MetaQuery(4, 0.9, 20, 0.5, unit_params())
        assert meta_distribution_rested(query, SPARSE, Protocol.BLOCK) == 0.0

    def test_monotone_in_beta_and_range(self):
        params = unit_params()
        vals = []
        for beta in (0.5, 0.7, 0.9):
            query = MetaQuery(4, beta, 20, 0.7, params)
            m = meta_distribution_rested(query, SPARSE, Protocol.CLASSICAL)
            assert 0.0 <= m <= 1.0
            vals.append(m)
        assert vals[0] >= vals[1] >= vals[2]

    def test_monotone_in_v(self):
        params = unit_params()
        ms = [
            meta_distribution_rested(
                MetaQuery(v, 0.7, 20, 0.7, params), SPARSE, Protocol.CLASSICAL
            )
            for v in (4, 6, 8)
        ]
        assert ms[0] >= ms[1] - 5e-3 >= ms[2] - 1e-2

    def test_empirical_ccdf_oracle_classical(self):
        # fraction of realizations with P_cls >= p* over sampled geometries
        lam, q, beta, r0, R = 1e-4, 0.7, 0.7, 10.0, 500.0
        params = unit_params()
        cfg = PppConfig(lam, R, r0)
        query = MetaQuery(4, beta, 20, q, params)
        analytic = meta_distribution_rested(query, cfg, Protocol.CLASSICAL)
        pstar = inverse_tail_threshold(20, 4, q, beta, Protocol.CLASSICAL)
        g = rng(11)
        n = 20_000
        hits = 0
        for _ in range(n):
            real = sample_ppp(cfg, g)
            hits += kernel_real(real, r0, params, Protocol.CLASSICAL, q, g) >= pstar
        emp = hits / n
        assert abs(analytic - emp) < 0.015

    def test_block_protocol_alpha_two_windowed(self):
        # vanishing-base grid at the slowest-decay exponent still inverts
        # and agrees with the empirical tail fraction
        lam, q, beta, r0, R = 5e-4, 0.8, 0.6, 10.0, 224.0
        params = unit_params(alpha=2.0)
        cfg = PppConfig(lam, R, r0)
        query = MetaQuery(4, beta, 20, q, params)
        analytic = meta_distribution_rested(query, cfg, Protocol.BLOCK)
        pstar = inverse_tail_threshold(20, 4, q, beta, Protocol.BLOCK)
        g = rng(13)
        n = 8000
        hits = 0
        for _ in range(n):
            real = sample_ppp(cfg, g)
            hits += kernel_real(real, r0, params, Protocol.BLOCK, q, g) >= pstar
        assert abs(analytic - hits / n) < 0.02


def fig4_point(q, beta=0.9):
    config = load_config("fig4")
    return MetaQuery(config.v, beta, config.T, q, config.channel), config.ppp


class TestLawOfP:
    """The compound-Poisson FFT law of S = -ln(P/p0) behind the meta distribution."""

    @pytest.mark.parametrize("point", ["fig4 q=0.7", "fig4 q=0.95", "alpha=4 q=0.7"])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_moments_match_moment_zeta(self, protocol, point):
        # E[P^l] = p0^l E[e^{-l S}] from the law on [0, 20] at dt = 1e-4; the
        # law's mass beyond 20 weighs at most e^-20. At alpha = 4 most jumps
        # lie below one step, so the first cell's mean split matters.
        if point.startswith("fig4"):
            query, ppp = fig4_point(float(point[-3:]))
        else:
            query, ppp = MetaQuery(4, 0.7, 20, 0.7, unit_params()), SPARSE
        q = query.q
        s_max, cells = 20.0, 200_000
        law = _log_success_law(s_max, cells, q, ppp, query.channel, protocol)
        s = s_max / cells * np.arange(cells + 1)
        p0 = query.channel.noise_success_factor(ppp.typical_distance_r0)
        access = q if protocol is Protocol.CLASSICAL else 1.0
        for l in (1, 2, 4):
            got = (access * p0) ** l * float(law @ np.exp(-l * s))
            want = moment_zeta(l, q, ppp, query.channel, protocol)
            assert abs(got - want) < 1e-3, (l, got, want)

    @pytest.mark.parametrize("point", ["fig4 q=0.7", "fig4 q=0.95", "alpha=4 q=0.7"])
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_head_cell_matches_quadpack(self, protocol, point):
        # E[J; J <= dt] of the law of P: Int_{u0}^1 -ln base(L sqrt u) du with
        # u0 = 1 - P(J <= dt), against scipy.integrate.quad at the same tolerances
        if point.startswith("fig4"):
            query, ppp = fig4_point(float(point[-3:]))
        else:
            query, ppp = MetaQuery(4, 0.7, 20, 0.7, unit_params()), SPARSE
        q, params = query.q, query.channel
        r0, L = ppp.typical_distance_r0, ppp.window_radius_R
        q_c = q if protocol is Protocol.CLASSICAL else 1.0
        alpha, gamma = params.pathloss_exp_alpha, params.sinr_threshold_gamma

        def head(u):
            return -math.log1p(-q_c / (1.0 + (L * math.sqrt(u) / r0) ** alpha / gamma))

        for dt in (1e-4, 5e-5, 1e-2):
            u0 = 1.0 - float(_jump_cdf(dt, q, params, ppp, protocol))
            want = integrate.quad(head, u0, 1.0, epsabs=analytics._ABS_TOL,
                                  epsrel=analytics._REL_TOL, limit=analytics._MAX_INTERVALS)[0]
            got = _quad_checked(
                lambda u: -np.log1p(-_base_loss(L * np.sqrt(u), q, params, r0, protocol)),
                u0, 1.0)
            assert got == pytest.approx(want, rel=1e-9), dt

    def test_classical_q_one_equals_block(self):
        for beta in (0.5, 0.9):
            query, ppp = fig4_point(1.0, beta)
            block = meta_distribution_rested(query, ppp, Protocol.BLOCK)
            classical = meta_distribution_rested(query, ppp, Protocol.CLASSICAL)
            assert 0.5 < block < 1.0
            assert classical == pytest.approx(block, abs=1e-12)

    @pytest.mark.parametrize("protocol, q, previous", [
        (Protocol.BLOCK, 0.7, 0.0),
        (Protocol.BLOCK, 0.95, 0.977360),
        (Protocol.CLASSICAL, 0.7, 0.985656),
        (Protocol.CLASSICAL, 0.95, 0.981068),
    ])
    def test_fig4_values_match_characteristic_function_inversion(self, protocol, q, previous):
        # the values the Gil-Pelaez inversion gave at the fig4 compare points
        query, ppp = fig4_point(q)
        assert abs(meta_distribution_rested(query, ppp, protocol) - previous) < 2e-3

    def test_dense_block_point_conditional_monte_carlo(self):
        # about 157 interferers per realization put most of S past s* and
        # beyond the FFT length; the wrapped mass must not reach the value.
        # Oracle: the fraction of sampled windows whose conditional success
        # probability prod 1/(1 + (r0/z)^2) reaches p*
        lam, r0, L, beta = 5e-3, 10.0, 100.0, 0.05
        query = MetaQuery(2, beta, 20, 1.0, unit_params(alpha=2.0))
        analytic = meta_distribution_rested(query, PppConfig(lam, L, r0), Protocol.BLOCK)
        pstar = inverse_tail_threshold(20, 2, 1.0, beta, Protocol.BLOCK)
        g = rng(17)
        n, hits = 200_000, 0
        for _ in range(10):
            counts = g.poisson(lam * math.pi * L * L, n // 10)
            z = L * np.sqrt(g.random(int(counts.sum())))
            owner = np.repeat(np.arange(counts.size), counts)
            log_p = np.bincount(owner, np.log1p(-1.0 / (1.0 + (z / r0) ** 2)),
                                minlength=counts.size)
            hits += int(np.count_nonzero(log_p >= math.log(pstar)))
        se = math.sqrt(analytic * (1.0 - analytic) / n)
        assert 1e-4 < analytic < 1e-3
        assert abs(analytic - hits / n) < 4.0 * se, (analytic, hits / n, se)

    def test_fig4_block_beta_equal_to_q_is_zero(self):
        # q = beta = 0.9: q * tail(p) = q only at p* = 1, while every
        # realization has P <= p0 < 1, so both the analytic and the empirical
        # fraction are 0 (a float tail already rounds to 1 near p = 0.93)
        assert inverse_tail_threshold(20, 4, 0.9, 0.9, Protocol.BLOCK) == 1.0
        query, ppp = fig4_point(0.9)
        assert meta_distribution_rested(query, ppp, Protocol.BLOCK) == 0.0
        config = load_config("fig4", ["num_realizations = 2000"])
        assert estimate_meta_empirical(config, Protocol.BLOCK, 0.9, 0.9) == 0.0

    def test_starved_tolerance_raises_with_estimate(self, monkeypatch):
        query, ppp = fig4_point(0.95)
        monkeypatch.setattr(analytics, "_META_TOL", 1e-12)
        with pytest.raises(QuadratureError) as info:
            meta_distribution_rested(query, ppp, Protocol.BLOCK)
        assert 0.0 < info.value.error_estimate < 2e-3

    def test_memory_bounded_at_tiny_threshold(self):
        # v = 1 and beta = 1e-12 give p* ~ 1e-12, so s* ~ 28 would need 2.8e5
        # cells at the default step; the capped grid keeps the point in MB
        query = MetaQuery(1, 1e-12, 20, 0.7, unit_params())
        assert inverse_tail_threshold(20, 1, 0.7, 1e-12, Protocol.CLASSICAL) < 1e-11
        tracemalloc.start()
        try:
            value = meta_distribution_rested(query, SPARSE, Protocol.CLASSICAL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(1.0, abs=1e-6)
        assert peak < 32 * 2**20, peak
