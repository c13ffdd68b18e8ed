import math
import warnings

import numpy as np
import pytest

from alohactrl.aloha import Protocol
from alohactrl.channel import (
    ChannelParams,
    block_owner,
    block_success_prob,
    dbm_to_watts,
    default_channel,
    freespace_pathloss_const,
    suppression_factors,
    thermal_noise_watts,
)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def unit_params(alpha=2.0, gamma=1.0, N0=0.0):
    return ChannelParams(1.0, 1.0, alpha, N0, gamma)


def kernel(distances, counts, params, protocol, q, g, r0=10.0):
    """The kernel on the factors of `distances`, blocks of `counts[b]`
    interferers each, with typical-link length r0."""
    return block_success_prob(suppression_factors(distances, r0, params), block_owner(counts),
                              len(counts), params.noise_success_factor(r0), protocol, q, g)


def kernel_one(distances, q, params, protocol=Protocol.CLASSICAL):
    """The kernel on one realization with r0 = 10; classical ALOHA at q = 1
    has every interferer active."""
    return kernel(distances, [len(distances)], params, protocol, q, rng())[0]


def direct_success(distances, q, params, r0=10.0):
    """noise * prod (q / (1 + gamma (z/r0)^-alpha) + 1 - q), written out
    independently of the kernel: each interferer is active with probability q."""
    gamma, alpha = params.sinr_threshold_gamma, params.pathloss_exp_alpha
    noise = math.exp(-gamma * params.noise_power_N0 * r0**alpha
                     / (params.tx_power_eta * params.pathloss_const_rho))
    x = 1.0 / (1.0 + gamma * (np.asarray(distances, dtype=float) / r0) ** -alpha)
    return noise * float(np.prod(q * x + 1.0 - q))


class TestUnits:
    def test_dbm_conversion(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(24.0) == pytest.approx(10 ** (-0.6))

    def test_thermal_noise(self):
        # -174 dBm/Hz over 200 MHz ~ -90.99 dBm
        n0 = thermal_noise_watts(200e6)
        assert 10 * math.log10(n0) + 30 == pytest.approx(-90.9897, abs=1e-3)

    def test_freespace_rho(self):
        rho = freespace_pathloss_const(3.2e9)
        assert rho == pytest.approx((299792458.0 / (4 * math.pi * 3.2e9)) ** 2)

    def test_defaults_compose(self):
        ch = default_channel()
        assert ch.pathloss_exp_alpha == 2.0
        assert ch.sinr_threshold_gamma == 1.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(1.0, 1.0, 1.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            ChannelParams(0.0, 1.0, 2.0, 0.0, 1.0)


class TestSinr:
    """The SINR law as the success probability P(SINR > gamma) it implies."""

    def test_no_interference_definition(self):
        # no interferers: P(eta rho r0^-a h > gamma N0) = exp(-gamma N0 / (eta rho r0^-a))
        params = ChannelParams(1.0, 1.0, 2.0, 1.0 * 1.0 * 10.0 ** -2.0, 1.0)
        p = kernel([], [0], params, Protocol.BLOCK, 1.0, rng())
        assert p[0] == pytest.approx(math.exp(-1.0))

    def test_symmetry(self):
        # interferer at the typical distance, no noise: P(h0 > h1) = 1/2
        p = kernel([10.0], [1], unit_params(), Protocol.BLOCK, 1.0, rng())
        assert p[0] == pytest.approx(0.5)


class TestConditionalSuccessBlock:
    """The kernel with every interferer active."""

    def test_empty_product(self):
        assert kernel_one([], 1.0, unit_params()) == 1.0

    def test_equal_pathloss_halves(self):
        assert kernel_one([10.0], 1.0, unit_params()) == pytest.approx(0.5)

    def test_matches_fading_monte_carlo(self):
        # fixed realization {r0=10, r1=15, r2=40}, alpha=2, gamma=1, N0=0
        params = unit_params()
        distances = np.array([15.0, 40.0])
        want = kernel_one(distances, 1.0, params)
        g = rng(5)
        n = 1_000_000
        h0 = g.exponential(1.0, n)
        h = g.exponential(1.0, (n, 2))
        coeffs = params.rx_power_coeff(distances)
        sig = params.rx_power_coeff(10.0) * h0
        interference = h @ coeffs
        emp = float(np.mean(sig / interference > 1.0))
        se = math.sqrt(want * (1 - want) / n)
        assert abs(emp - want) < 3 * se

    def test_monotone_in_interferers_and_gamma(self):
        distances = [12.0, 25.0, 60.0]
        p0, p01, p012 = (kernel_one(distances[:n], 1.0, unit_params()) for n in (1, 2, 3))
        assert 1.0 >= p0 >= p01 >= p012 >= 0.0
        harder = kernel_one(distances, 1.0, unit_params(gamma=2.0))
        assert harder <= p012


class TestConditionalSuccessClassical:
    """The kernel under per-slot Bernoulli(q) interferer activity."""

    def test_q_zero_noise_only(self):
        params = ChannelParams(1.0, 1.0, 2.0, 1e-3, 1.0)
        want = params.noise_success_factor(10.0)
        assert kernel_one([15.0], 0.0, params) == pytest.approx(want)

    def test_q_one_is_block_all_active(self):
        params = unit_params()
        assert kernel_one([15.0, 40.0], 1.0, params) == pytest.approx(
            kernel_one([15.0, 40.0], 1.0, params, Protocol.BLOCK)
        )

    def test_matches_thinning_monte_carlo(self):
        # block ALOHA draws one Bernoulli(q) activity per interferer, so n
        # blocks of the same realization sample the thinned active set n times
        params = unit_params()
        distances = np.array([13.0, 22.0, 45.0, 80.0])
        q = 0.6
        want = kernel_one(distances, q, params)
        g = rng(9)
        n = 100_000
        vals = kernel(np.tile(distances, n), np.full(n, 4), params, Protocol.BLOCK, q, g)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - want) < 3 * se

    def test_monotone_in_q(self):
        params = unit_params()
        values = [kernel_one([15.0, 30.0], q, params) for q in np.linspace(0, 1, 11)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def segmented_geometry(g, n_blocks=400):
    """Random per-block interferer counts (every seventh block empty) and
    distances between 3 and 200 m, concatenated block by block."""
    counts = g.poisson(5.0, n_blocks)
    counts[::7] = 0
    distances = 3.0 + 197.0 * g.random(int(counts.sum()))
    return distances, counts


def segments(distances, counts):
    starts = np.concatenate(([0], np.cumsum(counts)))
    return [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]


class TestBlockSuccessProb:
    # noisy, so a kernel that drops the noise factor is caught
    params = ChannelParams(1.0, 1.0, 2.0, 2e-3, 1.5)

    def check_block(self, distances, counts, q, seed):
        p = kernel(distances, counts, self.params, Protocol.BLOCK, q, rng(seed))
        # replay the kernel's activity draw: one uniform per interferer, in order
        active = rng(seed).random(distances.size) < q
        assert p.shape == (len(counts),)
        for b, seg in enumerate(segments(distances, counts)):
            want = direct_success(distances[seg][active[seg]], 1.0, self.params)
            assert abs(p[b] - want) <= 1e-12, (b, p[b], want)

    def check_classical(self, distances, counts, q):
        p = kernel(distances, counts, self.params, Protocol.CLASSICAL, q, rng())
        assert p.shape == (len(counts),)
        for b, seg in enumerate(segments(distances, counts)):
            want = direct_success(distances[seg], q, self.params)
            assert abs(p[b] - want) <= 1e-12, (b, p[b], want)

    def test_tiny_distances_give_zero_factors_without_warning(self):
        # (z/r0)^-alpha overflows below about r0 * 1e-154; the sampler lifts
        # an exact-zero draw to the smallest positive float
        distances = np.array([np.finfo(float).tiny, 1e-160])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factors = suppression_factors(distances, 10.0, self.params)
            assert factors.tolist() == [0.0, 0.0]
            for protocol in Protocol:
                p = block_success_prob(factors, block_owner([2]), 1,
                                       self.params.noise_success_factor(10.0), protocol, 1.0,
                                       rng())
                assert p.tolist() == [0.0], protocol

    def test_block_matches_direct_product(self):
        distances, counts = segmented_geometry(rng(31))
        for q in (0.0, 0.4, 1.0):
            self.check_block(distances, counts, q, seed=32)

    def test_classical_matches_direct_product(self):
        distances, counts = segmented_geometry(rng(33))
        for q in (0.0, 0.3, 1.0):
            self.check_classical(distances, counts, q)

    def test_fixed_geometry_segments(self):
        # one realization repeated as segments, as the fixed-geometry simulator
        # feeds it; an empty realization gives the noise factor alone
        distances = np.array([12.0, 30.0, 55.0, 140.0])
        n_blocks = 50
        tiled = np.tile(distances, n_blocks)
        counts = np.full(n_blocks, distances.size)
        self.check_block(tiled, counts, 0.5, seed=34)
        self.check_classical(tiled, counts, 0.5)
        for protocol in Protocol:
            p = kernel([], np.zeros(3, int), self.params, protocol, 0.5, rng())
            assert np.all(p == self.params.noise_success_factor(10.0))

    def test_per_block_q_matches_scalar_calls(self):
        # an array q equals one scalar call per block, in block order, on a
        # generator replaying the same uniforms (empty blocks draw none)
        distances, counts = segmented_geometry(rng(35), n_blocks=120)
        q = rng(36).random(counts.size)
        for protocol in Protocol:
            p = kernel(distances, counts, self.params, protocol, q, rng(37))
            replay = rng(37)
            for b, seg in enumerate(segments(distances, counts)):
                want = kernel(distances[seg], [counts[b]], self.params, protocol, float(q[b]),
                              replay)[0]
                assert abs(p[b] - want) <= 1e-12, (protocol, b, p[b], want)

    def test_scalar_q_equals_broadcast_array(self):
        distances, counts = segmented_geometry(rng(38))
        for protocol in Protocol:
            scalar = kernel(distances, counts, self.params, protocol, 0.4, rng(39))
            array = kernel(distances, counts, self.params, protocol, np.full(counts.size, 0.4),
                           rng(39))
            assert np.array_equal(scalar, array), protocol

    def test_factors_once_serve_repeated_calls(self):
        # factors computed once per geometry, as the simulators and run_ts
        # hold them, serve call after call on one generator: every call
        # matches the product written out from the distances, block ALOHA
        # with its own fresh activity draw (one uniform per interferer, in
        # order) and classical drawing nothing
        distances, counts = segmented_geometry(rng(41))
        factors = suppression_factors(distances, 10.0, self.params)
        owner = block_owner(counts)
        noise = self.params.noise_success_factor(10.0)
        for q in (0.3, rng(42).random(counts.size)):
            q_b = np.broadcast_to(q, counts.shape)
            for protocol in Protocol:
                g, replay = rng(43), rng(43)
                for _ in range(3):
                    p = block_success_prob(factors, owner, counts.size, noise, protocol, q, g)
                    if protocol is Protocol.BLOCK:
                        active = replay.random(distances.size) < np.repeat(q_b, counts)
                    for b, seg in enumerate(segments(distances, counts)):
                        if protocol is Protocol.BLOCK:
                            want = direct_success(distances[seg][active[seg]], 1.0, self.params)
                        else:
                            want = direct_success(distances[seg], q_b[b], self.params)
                        assert abs(p[b] - want) <= 1e-12, (protocol, b, p[b], want)
                assert g.bit_generator.state == replay.bit_generator.state, protocol

    def test_protocol_given_as_string(self):
        # the protocol's value selects the same branch, draws included, and an
        # unknown one is refused
        distances, counts = segmented_geometry(rng(44))
        for protocol in Protocol:
            g_enum, g_str = rng(45), rng(45)
            want = kernel(distances, counts, self.params, protocol, 0.4, g_enum)
            got = kernel(distances, counts, self.params, protocol.value, 0.4, g_str)
            assert np.array_equal(got, want), protocol
            assert g_str.bit_generator.state == g_enum.bit_generator.state, protocol
        with pytest.raises(ValueError):
            kernel(distances, counts, self.params, "blok", 0.4, rng())

    def test_per_block_q_must_align_with_counts(self):
        distances, counts = segmented_geometry(rng(40), n_blocks=10)
        with pytest.raises(ValueError):
            kernel(distances, counts, self.params, Protocol.BLOCK, np.full(9, 0.5), rng())
