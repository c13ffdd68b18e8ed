"""Channel access as the simulator draws it.

With no interferers and no noise every transmission succeeds, so the
simulated acknowledgments are exactly the typical pair's access pattern.
Interferer activity is drawn by `channel.block_success_prob`.
"""

import math

import numpy as np

from alohactrl.aloha import Protocol
from alohactrl.channel import ChannelParams, block_owner, block_success_prob
from alohactrl.geometry import PppConfig, sample_ppp
from alohactrl.montecarlo import _chunk_acks, _chunk_geometry


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def access(protocol, q, n_blocks, T, seed):
    """Per-slot access of the typical pair over n_blocks blocks, shape (n_blocks, T)."""
    gen = rng(seed)
    geometry = _chunk_geometry(PppConfig(0.0, 100.0, 10.0),
                               ChannelParams(1.0, 1.0, 2.0, 0.0, 1.0), n_blocks, gen)
    return _chunk_acks(geometry, protocol, q, T, gen)


class TestPolicy:
    def test_string_protocol_coerced(self):
        assert Protocol("classical") is Protocol.CLASSICAL


class TestBlockAccess:
    def test_extremes(self):
        assert not access(Protocol.BLOCK, 0.0, 100, 10, 1).any()
        assert access(Protocol.BLOCK, 1.0, 100, 10, 1).all()

    def test_binomial_ci(self):
        q, n = 0.3, 100_000
        frac = access(Protocol.BLOCK, q, n, 1, 2).mean()
        assert abs(frac - q) < 3 * math.sqrt(q * (1 - q) / n)


class TestClassicalAccess:
    def test_extremes(self):
        assert not access(Protocol.CLASSICAL, 0.0, 20, 10, 3).any()
        assert access(Protocol.CLASSICAL, 1.0, 20, 10, 3).all()

    def test_shape(self):
        out = access(Protocol.CLASSICAL, 0.5, 7, 13, 4)
        assert out.shape == (7, 13)

    def test_slots_uncorrelated(self):
        # adjacent-slot correlation of the access indicators over many blocks
        # indistinguishable from zero at the 0.01 level
        reps = 10_000
        slots = access(Protocol.CLASSICAL, 0.4, reps, 8, 5)
        corr = np.corrcoef(slots[:, 0], slots[:, 1])[0, 1]
        # under independence, corr ~ N(0, 1/sqrt(reps)); 0.01 level two-sided
        assert abs(corr) < 2.576 / math.sqrt(reps)

    def test_block_constant_classical_varies(self):
        block = access(Protocol.BLOCK, 0.5, 200, 20, 6)
        cls = access(Protocol.CLASSICAL, 0.5, 200, 20, 6)
        assert np.all(block.min(axis=1) == block.max(axis=1))
        assert np.any(cls.min(axis=1) != cls.max(axis=1))


class TestThinningConsistency:
    def test_active_counts_poisson(self):
        # active interferers under block ALOHA form a Poisson(q * mean) count.
        # Every interferer sits at the typical distance with no noise, so each
        # active one halves the kernel's value (factor 1/2): count = -log2(p).
        from scipy import stats

        cfg = PppConfig(2e-3, 50.0, 10.0)  # mean ~15.7
        q = 0.4
        g = rng(7)
        counts = np.array([sample_ppp(cfg, g).size for _ in range(10_000)])
        p = block_success_prob(np.full(counts.sum(), 0.5), block_owner(counts), counts.size,
                               1.0, Protocol.BLOCK, q, g)
        active = np.rint(-np.log2(p)).astype(int)
        mu = q * cfg.mean_count
        lo, hi = 2, 13
        observed = [np.sum(active <= lo)] + [np.sum(active == k) for k in range(lo + 1, hi)] \
            + [np.sum(active >= hi)]
        pmf = stats.poisson(mu)
        expected = np.array(
            [pmf.cdf(lo)] + [pmf.pmf(k) for k in range(lo + 1, hi)] + [1 - pmf.cdf(hi - 1)]
        ) * active.size
        chi2 = float(np.sum((np.array(observed) - expected) ** 2 / expected))
        assert chi2 < stats.chi2(df=len(expected) - 1).ppf(0.99)
