"""Closed-form controllability statistics.

Implements, for the typical pair of a Poisson bipolar network:

* the longest-run tail P(run of >= v ones in T Bernoulli trials) via the
  alternating de Moivre sum;
* moments of the conditional success probability through the Poisson
  probability generating functional (radial integral over the same finite
  window the simulator uses; the planar Jacobian z dz is included);
* the averaged restless block-controllability probability (moment expansion
  of the run tail);
* binomial tails, their inverse thresholds, and the rested-system meta
  distribution by numerical inversion of complex moments (Gil-Pelaez).

All quadratures are windowed at `QuadratureSpec.outer_limit`; an infinite
window (`math.inf`) is accepted only for path-loss exponents > 2, where the
improper integrals converge.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy import integrate, special

from .aloha import Protocol
from .channel import ChannelParams, suppression_factors

__all__ = [
    "QuadratureSpec",
    "MetaQuery",
    "QuadratureError",
    "run_ccdf_demoivre",
    "interference_log_integral",
    "moment_zeta",
    "prob_block_controllable_restless",
    "binomial_tail",
    "inverse_tail_threshold",
    "meta_distribution_rested",
]


class QuadratureError(RuntimeError):
    """Numerical integration failed to reach its tolerance."""

    def __init__(self, message: str, error_estimate: float = math.nan):
        super().__init__(message)
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Window and tolerance control for the radial and inversion integrals."""

    outer_limit: float
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        if not self.outer_limit > 0.0:
            raise ValueError("outer_limit must be > 0 (math.inf for the infinite plane)")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class MetaQuery:
    """Inputs of one meta-distribution evaluation."""

    v: int
    beta: float
    T: int
    q: float
    intensity_lambda: float
    channel: ChannelParams
    r0: float

    def __post_init__(self):
        if self.v < 1:
            raise ValueError("v must be >= 1")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.T < self.v:
            raise ValueError("T must be >= v")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        if self.intensity_lambda < 0.0:
            raise ValueError("intensity_lambda must be >= 0")
        if self.r0 <= 0.0:
            raise ValueError("r0 must be > 0")


# ---------------------------------------------------------------------------
# Longest-run tail (de Moivre)
# ---------------------------------------------------------------------------

def run_ccdf_demoivre(T: int, v: int, p: float) -> float:
    """P(longest run of ones >= v) in T i.i.d. Bernoulli(p) trials.

    Alternating sum with l up to floor((T+1)/(v+1)); evaluated in exact
    rational arithmetic when many terms make float cancellation a risk.
    """
    if not 1 <= v <= T:
        raise ValueError("need 1 <= v <= T")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    lmax = (T + 1) // (v + 1)
    if T / (v + 1) > 6:
        return _run_ccdf_exact(T, v, p, lmax)
    terms = []
    for l in range(1, lmax + 1):
        sign = -1.0 if l % 2 == 0 else 1.0
        bracket = p + (T - l * v + 1) / l * (1.0 - p)
        terms.append(
            sign * bracket * math.comb(T - l * v, l - 1) * p ** (l * v) * (1.0 - p) ** (l - 1)
        )
    return min(1.0, max(0.0, math.fsum(terms)))


def _run_ccdf_exact(T: int, v: int, p: float, lmax: int) -> float:
    pf = Fraction(p)
    total = Fraction(0)
    for l in range(1, lmax + 1):
        sign = -1 if l % 2 == 0 else 1
        bracket = pf + Fraction(T - l * v + 1, l) * (1 - pf)
        total += sign * bracket * math.comb(T - l * v, l - 1) * pf ** (l * v) * (1 - pf) ** (l - 1)
    return min(1.0, max(0.0, float(total)))


# ---------------------------------------------------------------------------
# PGFL radial integrals and success-probability moments
# ---------------------------------------------------------------------------

def _base_factor(z, q: float, channel: ChannelParams, r0: float, protocol: Protocol):
    """Per-interferer product base at radius z.

    Block: x(z) = `suppression_factors` (1 / (1 + gamma (z/r0)^(-a)));
    classical: q x(z) + 1 - q.
    """
    x = suppression_factors(z, r0, channel)
    if protocol is Protocol.BLOCK:
        return x
    return q * x + 1.0 - q


def _check_window(quad: QuadratureSpec, channel: ChannelParams):
    if math.isinf(quad.outer_limit) and channel.pathloss_exp_alpha <= 2.0:
        raise ValueError(
            "infinite-plane integration requires pathloss_exp_alpha > 2; "
            "use a finite outer_limit for alpha <= 2"
        )


def _quad_checked(func, lo, hi, quad: QuadratureSpec) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, abserr = integrate.quad(
                func, lo, hi,
                epsabs=quad.abs_tol, epsrel=quad.rel_tol, limit=quad.max_subdivisions,
            )
        except integrate.IntegrationWarning as exc:
            raise QuadratureError(f"radial quadrature did not converge: {exc}") from exc
    if abserr > 100.0 * max(quad.abs_tol, quad.rel_tol * abs(val)) + 1e-300:
        raise QuadratureError(
            f"radial quadrature error estimate {abserr:.3e} above tolerance", abserr
        )
    return val


def interference_log_integral(
    order, q: float, lam: float, channel: ChannelParams,
    quad: QuadratureSpec, protocol: Protocol, *, r0: float,
):
    """log of the PGFL interference factor for the given moment order.

    Returns -2 pi lam_eff * Int_0^L (1 - base(z)^order) z dz, where the
    thinned intensity lam_eff is q*lam for block ALOHA (only active
    interferers enter the product) and lam for classical ALOHA (the
    per-slot thinning sits inside the base). Real for integer orders,
    complex for imaginary orders js.
    """
    protocol = Protocol(protocol)
    _check_window(quad, channel)
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    lam_eff = q * lam if protocol is Protocol.BLOCK else lam
    is_complex = isinstance(order, complex)
    if lam_eff == 0.0 or order == 0:
        return 0j if is_complex else 0.0

    if is_complex:
        def make(part):
            def f(z):
                b = float(_base_factor(z, q, channel, r0, protocol))
                lnb = math.log(b) if b > 0.0 else -745.0
                w = order * lnb
                val = 1.0 - complex(math.exp(w.real) * math.cos(w.imag),
                                    math.exp(w.real) * math.sin(w.imag))
                return part(val) * z
            return f

        real = _quad_checked(make(lambda c: c.real), 0.0, quad.outer_limit, quad)
        imag = _quad_checked(make(lambda c: c.imag), 0.0, quad.outer_limit, quad)
        return -2.0 * math.pi * lam_eff * complex(real, imag)

    def f(z):
        return (1.0 - float(_base_factor(z, q, channel, r0, protocol)) ** order) * z

    integral = _quad_checked(f, 0.0, quad.outer_limit, quad)
    return -2.0 * math.pi * lam_eff * integral


def moment_zeta(
    l: int, q: float, lam: float, channel: ChannelParams,
    quad: QuadratureSpec, protocol: Protocol, *, r0: float,
) -> float:
    """l-th moment of the conditional success probability.

    Block: E[P_blk^l]; classical: E[(q P_cls)^l] (the typical pair's own
    access probability is kept inside the moment).
    """
    protocol = Protocol(protocol)
    if l < 1:
        raise ValueError("l must be a positive integer")
    noise = channel.noise_success_factor(r0, power=float(l))
    exponent = interference_log_integral(l, q, lam, channel, quad, protocol, r0=r0)
    value = noise * math.exp(exponent)
    if protocol is Protocol.CLASSICAL:
        value *= q ** l
    return value


def prob_block_controllable_restless(
    T: int, v: int, q: float, lam: float, channel: ChannelParams,
    quad: QuadratureSpec, protocol: Protocol, *, r0: float,
) -> float:
    """Network-averaged probability of a length-v success run in a block.

    Expectation of the de Moivre tail over the success-probability
    distribution, expanded into moments; the block-ALOHA value carries the
    typical pair's access factor q up front, the classical value keeps q
    inside the moments.
    """
    protocol = Protocol(protocol)
    if not 1 <= v <= T:
        raise ValueError("need 1 <= v <= T")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    if q == 0.0:
        return 0.0

    cache: dict[int, float] = {}

    def zeta(order: int) -> float:
        if order not in cache:
            cache[order] = moment_zeta(order, q, lam, channel, quad, protocol, r0=r0)
        return cache[order]

    lmax = (T + 1) // (v + 1)
    terms = []
    for l in range(1, lmax + 1):
        sign = -1.0 if l % 2 == 0 else 1.0
        outer = math.comb(T - l * v, l - 1)
        for e in range(l):
            terms.append(
                sign * outer * math.comb(l - 1, e) * (-1.0) ** e * zeta(l * v + 1 + e)
            )
        coef = (T - l * v + 1) / l
        for e in range(l + 1):
            terms.append(
                sign * outer * coef * math.comb(l, e) * (-1.0) ** e * zeta(l * v + e)
            )
    total = math.fsum(terms)
    largest = max(abs(t) for t in terms)
    if total != 0.0 and largest / abs(total) > 1e6:
        warnings.warn(
            f"alternating-sum cancellation {largest / abs(total):.2e}x the result; "
            "precision loss likely",
            RuntimeWarning,
        )
    if protocol is Protocol.BLOCK:
        total *= q
    return min(1.0, max(0.0, total))


# ---------------------------------------------------------------------------
# Binomial tails and their inversion
# ---------------------------------------------------------------------------

def binomial_tail(T: int, v: int, p: float) -> float:
    """P(X >= v) for X ~ Binomial(T, p), via the regularized incomplete beta."""
    if not 0 <= v <= T:
        raise ValueError("need 0 <= v <= T")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if v == 0:
        return 1.0
    return float(special.betainc(v, T - v + 1, p))


def inverse_tail_threshold(
    T: int, v: int, q: float, beta: float, protocol: Protocol
) -> Optional[float]:
    """Smallest p in [0, 1] whose (access-weighted) binomial tail reaches beta.

    Block weights the tail by q; classical evaluates the tail at success
    probability q*p. Returns None when even p = 1 cannot reach beta.
    """
    protocol = Protocol(protocol)
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")

    if protocol is Protocol.BLOCK:
        meets = lambda p: q * binomial_tail(T, v, p) >= beta
    else:
        meets = lambda p: binomial_tail(T, v, q * p) >= beta

    if not meets(1.0):
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Meta distribution via Gil-Pelaez inversion
# ---------------------------------------------------------------------------

# (s, node) pairs per row chunk in `_RadialGrid.exponent`; the chunk's one
# complex buffer is 16 MB whatever the batch size.
_EXPONENT_CHUNK_ELEMS = 1 << 20


@functools.lru_cache(maxsize=128)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1].

    Golub-Welsch via `scipy.special.roots_legendre`, O(n^2) where numpy's
    `leggauss` is O(n^3); cached because grids repeat panel sizes.
    """
    x, w = special.roots_legendre(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _oscillation(s: np.ndarray, lnb: np.ndarray, wz: np.ndarray) -> np.ndarray:
    """sum_i wz_i e^{j s ln b_i} for each s, in row chunks of bounded size."""
    out = np.empty(s.size, dtype=complex)
    rows = max(1, _EXPONENT_CHUNK_ELEMS // max(lnb.size, 1))
    buffer = np.empty((min(rows, s.size), lnb.size), dtype=complex)
    jlnb = 1j * lnb
    for i in range(0, s.size, rows):
        phase = buffer[:min(rows, s.size - i)]
        np.multiply.outer(s[i:i + rows], jlnb, out=phase)
        out[i:i + rows] = np.exp(phase, out=phase) @ wz
    return out


class _RadialGrid:
    """Fixed composite Gauss-Legendre grid for the complex-order PGFL exponent.

    Precomputes nodes z_i, weights w_i z_i and log base values so that the
    exponent X(s) = -2 pi lam_eff Int (1 - base^(js)) z dz can be evaluated
    for whole arrays of s at once. For a base vanishing at z = 0 (block
    ALOHA, or classical with q = 1) the log-singular inner region is resolved
    up to `s_inner` and replaced by its stationary-phase limit beyond.

    The window L must be finite. `exponent` works through the s batch in
    row chunks of at most `_EXPONENT_CHUNK_ELEMS` (s, node) pairs in one
    reused complex buffer, so a call needs about 16 MB of working memory
    beyond its O(len(s) + nodes) inputs and outputs, however large the batch.
    """

    def __init__(self, q, lam_eff, channel, r0, L, protocol, s_cap=4000.0):
        if math.isinf(L):
            raise ValueError("meta-distribution inversion requires a finite window")
        self.lam_eff = float(lam_eff)
        self.s_cap = float(s_cap)
        a = channel.pathloss_exp_alpha
        g = channel.sinr_threshold_gamma
        base0 = 1.0 - q if (protocol is Protocol.CLASSICAL and q < 1.0) else 0.0
        vanishing = base0 == 0.0
        knee = 2.0 * r0 * max(1.0, g) ** (1.0 / a)
        knee = min(knee, L / 2.0) if L < math.inf else knee

        if vanishing:
            z_lo = math.sqrt(1e-9 / max(2.0 * math.pi * self.lam_eff, 1e-300))
            z_lo = min(z_lo, knee / 4.0)
            # phase-rate bound alpha/z: keep the dropped oscillation below 1e-4
            self.s_inner = max(
                100.0,
                2.0 * (2.0 * math.pi * self.lam_eff) * 2.0 * knee**2 / (a * 1e-4),
            )
        else:
            z_lo = 0.0
            self.s_inner = self.s_cap
        self.s_inner = min(self.s_inner, self.s_cap)
        self._head_mass = 0.5 * z_lo**2  # exact Int_0^{z_lo} z dz

        fn = lambda z: _base_factor(z, q, channel, r0, protocol)

        def panel_nodes(a_, b_, s_res):
            lna = math.log(max(float(fn(max(a_, 1e-300))), 1e-300))
            lnb_ = math.log(max(float(fn(b_)), 1e-300))
            cycles = abs(lnb_ - lna) * s_res / (2.0 * math.pi)
            return int(max(12, min(4000, math.ceil(4.0 * cycles + 8))))

        def build(panels, s_res):
            zs, ws = [], []
            for a_, b_ in panels:
                n = panel_nodes(a_, b_, s_res)
                x, w = _gauss_legendre(n)
                zs.append(0.5 * (b_ - a_) * x + 0.5 * (a_ + b_))
                ws.append(0.5 * (b_ - a_) * w)
            return np.concatenate(zs), np.concatenate(ws)

        def geom_panels(a_, b_, ratio):
            edges = [a_]
            while edges[-1] * ratio < b_:
                edges.append(edges[-1] * ratio)
            edges.append(b_)
            return list(zip(edges[:-1], edges[1:]))

        inner_panels = geom_panels(max(z_lo, knee * 1e-8), knee, 1.5)
        z_in, w_in = build(inner_panels, self.s_inner)
        outer_panels = geom_panels(knee, L, 1.5) if knee < L else []
        if outer_panels:
            z_out, w_out = build(outer_panels, self.s_cap)
        else:
            z_out = np.empty(0)
            w_out = np.empty(0)

        with np.errstate(divide="ignore"):
            self._lnb_in = np.log(np.maximum(fn(z_in), 1e-300))
            self._lnb_out = np.log(np.maximum(fn(z_out), 1e-300))
        self._wz_in = w_in * z_in
        self._wz_out = w_out * z_out
        self._mass = self._head_mass + self._wz_in.sum() + self._wz_out.sum()

    @property
    def mean_log_base(self) -> float:
        """2 pi lam_eff * Int ln(base) z dz (negative)."""
        return 2.0 * math.pi * self.lam_eff * (
            float(self._wz_in @ self._lnb_in) + float(self._wz_out @ self._lnb_out)
        )

    @property
    def mean_abs_log_base(self) -> float:
        return 2.0 * math.pi * self.lam_eff * (
            float(self._wz_in @ np.abs(self._lnb_in))
            + float(self._wz_out @ np.abs(self._lnb_out))
        )

    def exponent(self, s: np.ndarray) -> np.ndarray:
        """X(s) = -2 pi lam_eff * Int (1 - e^{j s ln base}) z dz, vectorized in s."""
        s = np.asarray(s, dtype=float).ravel()
        osc_out = _oscillation(s, self._lnb_out, self._wz_out)
        osc_in = np.zeros(s.shape, dtype=complex)
        resolved = s <= self.s_inner
        if np.any(resolved):
            osc_in[resolved] = _oscillation(s[resolved], self._lnb_in, self._wz_in)
        # beyond s_inner the inner oscillation integrates to ~0 (stationary phase)
        integral = self._mass - osc_out - osc_in
        return -2.0 * math.pi * self.lam_eff * integral


@functools.lru_cache(maxsize=16)
def _radial_grid(q, lam_eff, channel, r0, L, protocol) -> _RadialGrid:
    """One grid per (q, lam_eff, channel, r0, L, protocol), shared across beta."""
    return _RadialGrid(q, lam_eff, channel, r0, L, protocol)


def _accelerated_limit(values: np.ndarray) -> tuple[float, float]:
    """Limit of a sequence oscillating around it, by iterated averaging."""
    x = np.asarray(values, dtype=float)
    prev = x[-1]
    est = prev
    err = math.inf
    while x.size > 1:
        x = 0.5 * (x[:-1] + x[1:])
        est = x[-1]
        err = abs(est - prev)
        prev = est
    return est, err


def _gil_pelaez_integral(
    grid: _RadialGrid, c_noise: float, ln_pstar: float, quad: QuadratureSpec
) -> float:
    """Int_0^inf Im(e^{-j s ln p*} zeta(s)) / s ds by oscillation-aware summation."""
    gp_tol = max(quad.abs_tol * 10.0, 1e-7)
    drift = ln_pstar + c_noise
    omega = abs(drift) + grid.mean_abs_log_base
    h = math.pi / max(omega, 0.05)
    s_min = 1e-6
    g0 = grid.mean_log_base - c_noise - ln_pstar
    total = g0 * s_min  # series value on [0, s_min]

    gl_x, gl_w = _gauss_legendre(10)
    max_segments = max(4000, 50 * quad.max_subdivisions)
    batch = 128

    seg_sums: list[float] = []
    cumulative: list[float] = []
    extrema: list[float] = []
    running = total
    s_left = s_min
    last_env = 1.0

    def integrand(s):
        X = grid.exponent(s)
        w = X - 1j * s * drift
        return np.imag(np.exp(w)) / s

    n_seg = 0
    while n_seg < max_segments and s_left < grid.s_cap:
        edges = s_left + h * np.arange(batch + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * h
        s_nodes = (mids[:, None] + half * gl_x[None, :]).ravel()
        vals = integrand(s_nodes).reshape(batch, -1)
        sums = (vals * gl_w[None, :] * half).sum(axis=1)
        env = np.exp(np.real(grid.exponent(np.array([edges[-1]]))))[0]
        last_env = float(env)
        for v_ in sums:
            seg_sums.append(float(v_))
            running += float(v_)
            cumulative.append(running)
            if len(seg_sums) >= 2 and seg_sums[-1] * seg_sums[-2] < 0.0:
                extrema.append(cumulative[-2])
        n_seg += batch
        s_left = float(edges[-1])

        if len(extrema) >= 8:
            est, err = _accelerated_limit(extrema[-14:])
            if err < gp_tol:
                return est
        # non-oscillatory fallback: envelope already negligible
        if last_env / max(s_left, 1.0) < gp_tol and len(seg_sums) >= 4:
            recent = max(abs(v_) for v_ in seg_sums[-4:])
            if recent < gp_tol:
                return running

    if len(extrema) >= 4:
        est, err = _accelerated_limit(extrema[-14:])
        if err < 2e-3:
            return est
        raise QuadratureError(
            f"Gil-Pelaez inversion did not converge (error ~{err:.2e})", err
        )
    tail_bound = last_env / max(s_left, 1.0) * h * 10.0
    if tail_bound < 2e-3:
        return running
    raise QuadratureError(
        f"Gil-Pelaez inversion did not converge (tail bound ~{tail_bound:.2e})",
        tail_bound,
    )


def meta_distribution_rested(
    query: MetaQuery, quad: QuadratureSpec, protocol: Protocol
) -> float:
    """Fraction of network realizations whose per-realization success tail
    reaches the reliability target beta.

    Evaluates P(P >= p*) for the conditional success probability P via
    characteristic-function inversion; returns 0 when no threshold p* in
    [0, 1] can meet beta (block ALOHA with q < beta).
    """
    protocol = Protocol(protocol)
    _check_window(quad, query.channel)
    if math.isinf(quad.outer_limit):
        raise ValueError("meta-distribution inversion requires a finite window")
    pstar = inverse_tail_threshold(query.T, query.v, query.q, query.beta, protocol)
    if pstar is None:
        return 0.0
    c_noise = query.channel.noise_exponent(query.r0)
    p0 = query.channel.noise_success_factor(query.r0)
    lam_eff = (
        query.q * query.intensity_lambda
        if protocol is Protocol.BLOCK
        else query.intensity_lambda
    )
    if pstar <= 1e-300:
        return 1.0
    if lam_eff == 0.0:
        # deterministic success probability: point-mass CCDF
        return 1.0 if p0 >= pstar else 0.0

    grid = _radial_grid(
        query.q, lam_eff, query.channel, query.r0, quad.outer_limit, protocol
    )
    integral = _gil_pelaez_integral(grid, c_noise, math.log(pstar), quad)
    return float(min(1.0, max(0.0, 0.5 + integral / math.pi)))
