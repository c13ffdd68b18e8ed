import math

import numpy as np
import pytest
from scipy import stats

from alohactrl.geometry import (
    PppConfig,
    check_distances,
    default_window_radius,
    sample_blocks,
    sample_ppp,
)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestConfigValidation:
    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            PppConfig(-1.0, 100.0, 10.0)

    @pytest.mark.parametrize("field, value", [
        ("window_radius_R", math.inf), ("window_radius_R", math.nan), ("window_radius_R", 0.0),
        ("intensity_lambda", math.nan), ("intensity_lambda", math.inf),
    ])
    def test_finite_system_required(self, field, value):
        # the analytics integrate over the window the simulator samples, so
        # every value it holds must be finite
        settings = {"intensity_lambda": 5e-3, "window_radius_R": 100.0,
                    "typical_distance_r0": 10.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            PppConfig(**settings)

    def test_rejects_pair_outside_window(self):
        with pytest.raises(ValueError):
            PppConfig(1e-3, 5.0, 10.0)

    def test_default_window(self):
        assert default_window_radius(5e-3, 10.0) == 100.0
        assert default_window_radius(1e-4, 10.0) == 500.0
        assert default_window_radius(0.0, 10.0) == 100.0


class TestSamplePpp:
    def test_zero_intensity_empty(self):
        real = sample_ppp(PppConfig(0.0, 100.0, 10.0), rng(1))
        assert real.shape == (0,) and real.dtype == float

    def test_disk_support(self):
        cfg = PppConfig(5e-3, 100.0, 10.0)
        for seed in range(5):
            real = sample_ppp(cfg, rng(seed))
            if real.size:
                assert real.max() <= cfg.window_radius_R
                assert real.min() > 0.0

    def test_mean_count_three_sigma(self):
        # sample mean of Poisson counts vs lambda*pi*R^2 over 1e4 seeds
        cfg = PppConfig(5e-3, 100.0, 10.0)
        g = rng(7)
        counts = [sample_ppp(cfg, g).size for _ in range(10_000)]
        mean = np.mean(counts)
        sigma = math.sqrt(cfg.mean_count / 10_000)
        assert abs(mean - cfg.mean_count) < 3 * sigma

    def test_poisson_count_chi_square(self):
        cfg = PppConfig(1e-3, 50.0, 10.0)  # mean ~7.85
        g = rng(11)
        counts = np.array([sample_ppp(cfg, g).size for _ in range(10_000)])
        mu = cfg.mean_count
        # bin counts with expected >= 5, pooling the tails
        lo, hi = 2, 15
        edges = list(range(lo, hi + 1))
        observed = [np.sum(counts <= lo)] + [np.sum(counts == k) for k in range(lo + 1, hi)] \
            + [np.sum(counts >= hi)]
        pmf = stats.poisson(mu)
        expected = [pmf.cdf(lo)] + [pmf.pmf(k) for k in range(lo + 1, hi)] \
            + [1 - pmf.cdf(hi - 1)]
        expected = np.array(expected) * counts.size
        chi2 = float(np.sum((np.array(observed) - expected) ** 2 / expected))
        crit = stats.chi2(df=len(expected) - 1).ppf(0.99)
        assert chi2 < crit

    def test_distance_density_ks(self):
        cfg = PppConfig(2e-3, 80.0, 10.0)
        g = rng(13)
        dists = np.concatenate(
            [sample_ppp(cfg, g) for _ in range(500)]
        )
        # CDF of the radial law 2z/R^2 is (z/R)^2
        stat = stats.kstest(dists, lambda z: (z / cfg.window_radius_R) ** 2)
        assert stat.pvalue > 0.01

    def test_deterministic_for_fixed_seed(self):
        cfg = PppConfig(5e-3, 100.0, 10.0)
        a = sample_ppp(cfg, rng(42))
        b = sample_ppp(cfg, rng(42))
        assert np.array_equal(a, b)
        # one realization is the one-block case of the block sampler
        counts, distances = sample_blocks(cfg, 1, rng(42))
        assert list(counts) == [a.size]
        assert np.array_equal(distances, a)

    def test_zero_uniform_lifted_off_the_origin(self):
        class ZeroUniforms:
            def poisson(self, lam, size):
                return np.array([2, 0, 1])[:size]

            def random(self, size):
                return np.zeros(size)

        counts, distances = sample_blocks(PppConfig(5e-3, 100.0, 10.0), 3, ZeroUniforms())
        assert list(counts) == [2, 0, 1]
        assert np.array_equal(distances, np.full(3, np.finfo(float).tiny))


class TestSerialization:
    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            check_distances(np.array([1.0, -2.0]), 10.0)
