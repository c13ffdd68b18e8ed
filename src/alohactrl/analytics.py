"""Closed-form controllability statistics.

Implements, for the typical pair of a Poisson bipolar network:

* the longest-run tail P(run of >= v ones in T Bernoulli trials), the
  de Moivre polynomial sum_k c_k p^k with exact integer coefficients;
* moments zeta_k of the conditional success probability through the Poisson
  probability generating functional (radial integral over the same finite
  window the simulator uses; the planar Jacobian z dz is included);
* the averaged restless block-controllability probability sum_k c_k zeta_k;
* binomial tails, their inverse thresholds, and the rested-system meta
  distribution P(P >= p*) (Haenggi, IEEE TWC 2016) from the exact law of P:
  inside the window, S = -ln(P/p0) is a compound-Poisson sum of i.i.d.
  jumps with a closed-form CDF, so one FFT gives it (Embrechts and Frei,
  Math. Methods Oper. Res. 2009).

One access rule (a, c) = `_access(q, protocol)` carries block ALOHA (q, 1)
and classical ALOHA (1, q): a block meets a tail target w.p. a tail(c P).

The network is the simulator's own `geometry.PppConfig`: its density, its
typical pair distance and the finite disk window that all integrals run
over. The integrals are computed by globally adaptive 7-point
Gauss / 15-point Kronrod quadrature (the qk15 rule of QUADPACK; Piessens et
al., Springer 1983) over a vectorized integrand.
"""

from __future__ import annotations

import collections
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from numpy import fft

from .aloha import Protocol
from .channel import ChannelParams, suppression_factors
from .geometry import PppConfig

__all__ = [
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
class MetaQuery:
    """Inputs of one meta-distribution evaluation."""

    v: int
    beta: float
    T: int
    q: float
    channel: ChannelParams

    def __post_init__(self):
        if self.v < 1:
            raise ValueError("v must be >= 1")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.T < self.v:
            raise ValueError("T must be >= v")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must lie in (0, 1]")


# ---------------------------------------------------------------------------
# Longest-run tail (de Moivre)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _run_tail_coefficients(T: int, v: int) -> tuple[int, ...]:
    """Exact integer c_0..c_T with P(longest run of ones >= v) = sum_k c_k p^k
    in T i.i.d. Bernoulli(p) trials.

    Expands de Moivre's alternating sum over l up to floor((T+1)/(v+1)),
    sum_l (-1)^(l+1) p^(lv) (1-p)^(l-1) [C(T-lv, l-1) p + C(T-lv+1, l) (1-p)],
    in powers of p. The p^(T+1) terms of l = (T+1)/(v+1) cancel.
    """
    if not 1 <= v <= T:
        raise ValueError("need 1 <= v <= T")
    c = [0] * (T + 2)
    for l in range(1, (T + 1) // (v + 1) + 1):
        sign = 1 if l % 2 else -1
        with_p, with_not_p = math.comb(T - l * v, l - 1), math.comb(T - l * v + 1, l)
        for e in range(l):  # p^(lv+1) (1-p)^(l-1)
            c[l * v + 1 + e] += sign * (-1) ** e * math.comb(l - 1, e) * with_p
        for e in range(l + 1):  # p^(lv) (1-p)^l
            c[l * v + e] += sign * (-1) ** e * math.comb(l, e) * with_not_p
    return tuple(c[:T + 1])


def _run_tail_at_minus_one(T: int, v: int) -> int:
    """sum_k c_k (-1)^k of `_run_tail_coefficients` in O(T) integer steps: at success weight
    s = -1, failure weight f = 2, run-free strings weigh N_t = N_(t-1) - f s^v N_(t-v-1)."""
    free = collections.deque([1] * v + [1 - (-1) ** v], maxlen=v + 1)
    for _ in range(v, T):
        free.append(free[-1] - 2 * (-1) ** v * free[0])
    return 1 - free[-1]


def run_ccdf_demoivre(T: int, v: int, p: float) -> float:
    """P(longest run of ones >= v) in T i.i.d. Bernoulli(p) trials.

    The de Moivre polynomial is evaluated exactly, in integers over the
    common denominator d^T of p = n/d, so no term cancels in floating point.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    coeffs = _run_tail_coefficients(T, v)
    n, d = Fraction(p).as_integer_ratio()
    numerator = sum(ck * n**k * d**(T - k) for k, ck in enumerate(coeffs) if ck)
    return float(Fraction(numerator, d**T))


def _access(q: float, protocol: Protocol) -> tuple[float, float]:
    """The access rule (a, c): a is the block-level access weight of the
    typical pair and the active share of the interferers, c the per-slot
    access share inside the success probability. Block ALOHA is (q, 1),
    classical ALOHA (1, q).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    return (q, 1.0) if Protocol(protocol) is Protocol.BLOCK else (1.0, q)


# ---------------------------------------------------------------------------
# PGFL radial integrals and success-probability moments
# ---------------------------------------------------------------------------

def _base_loss(z, q: float, channel: ChannelParams, r0: float, protocol: Protocol):
    """1 - base(z), one interferer's per-slot factor at radius z subtracted
    from 1, computed as c eps x(z) so that it keeps its digits far out.

    x(z) = 1 / (1 + eps) is `suppression_factors`, eps = gamma (z/r0)^(-a);
    the base is c x(z) + 1 - c with the per-slot access share c of
    `_access`: x(z) for block ALOHA, q x(z) + 1 - q for classical.
    """
    _, c = _access(q, protocol)
    eps = channel.sinr_threshold_gamma * (z / r0) ** -channel.pathloss_exp_alpha
    return c * eps * suppression_factors(z, r0, channel)


# The radial quadrature stops once its summed error estimate meets
# max(_ABS_TOL, _REL_TOL |value|), and fails beyond _MAX_INTERVALS intervals.
_REL_TOL = 1e-8
_ABS_TOL = 1e-10
_MAX_INTERVALS = 200

# QUADPACK qk15: Kronrod nodes (largest first; every second one is a Gauss
# node, the last is 0) with their Kronrod and 7-point Gauss weights.
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
_NODES = np.concatenate((-_XK[:-1], _XK[::-1]))  # 15 nodes on [-1, 1]
_KRONROD = np.concatenate((_WK[:-1], _WK[::-1]))
_GAUSS = np.zeros(15)
_GAUSS[1::2] = np.concatenate((_WG, _WG[-2::-1]))


def _gauss_kronrod(g, left, right):
    """K15 integral of g over each interval [left, right], and |K15 - G7|."""
    half = 0.5 * (right - left)
    values = g((left + half)[:, None] + half[:, None] * _NODES)
    kronrod = half * (values @ _KRONROD)
    return kronrod, np.abs(kronrod - half * (values @ _GAUSS))


def _quad_checked(func, lo, hi) -> float:
    """Int_lo^hi func by globally adaptive Gauss-Kronrod.

    `func` maps an array of abscissae to an array of values. Each interval's
    error is |K15 - G7|; every round bisects, in one batch, each interval
    whose error exceeds its length share of the tolerance, until the summed
    error meets max(_ABS_TOL, _REL_TOL |value|) with at most _MAX_INTERVALS
    intervals.
    """
    left, right = np.array([lo]), np.array([hi])
    kronrod, errors = _gauss_kronrod(func, left, right)
    while True:
        total, error = math.fsum(kronrod), math.fsum(errors)
        tol = max(_ABS_TOL, _REL_TOL * abs(total))
        if error <= tol:
            return total
        split = errors > tol * (right - left) / (hi - lo)
        if left.size + np.count_nonzero(split) > _MAX_INTERVALS:
            raise QuadratureError(
                f"radial quadrature did not converge: error estimate {error:.3e} "
                f"above tolerance {tol:.3e} with {_MAX_INTERVALS} intervals", error
            )
        mid = 0.5 * (left[split] + right[split])
        new_left = np.concatenate((left[split], mid))
        new_right = np.concatenate((mid, right[split]))
        new_kronrod, new_errors = _gauss_kronrod(func, new_left, new_right)
        keep = ~split
        left = np.concatenate((left[keep], new_left))
        right = np.concatenate((right[keep], new_right))
        kronrod = np.concatenate((kronrod[keep], new_kronrod))
        errors = np.concatenate((errors[keep], new_errors))


def interference_log_integral(
    order: int, q: float, ppp: PppConfig, channel: ChannelParams, protocol: Protocol,
):
    """log of the PGFL interference factor for the given moment order.

    Returns -2 pi lam_eff * Int_0^R (1 - base(z)^order) z dz over the window
    radius R, where the thinned intensity lam_eff = a lam takes the block
    weight a of `_access`: q lam for block ALOHA (only active interferers
    enter the product), lam for classical ALOHA (the per-slot thinning sits
    inside the base).
    """
    a, _ = _access(q, protocol)
    r0 = ppp.typical_distance_r0
    lam_eff = a * ppp.intensity_lambda
    if lam_eff == 0.0 or order == 0:
        return 0.0

    def f(z):
        # a loss that rounds to 1 near z = 0 gives log 0 = -inf, whose limit is right
        with np.errstate(divide="ignore"):
            return -np.expm1(order * np.log1p(-_base_loss(z, q, channel, r0, protocol))) * z

    integral = _quad_checked(f, 0.0, ppp.window_radius_R)
    return -2.0 * math.pi * lam_eff * integral


def moment_zeta(
    l: int, q: float, ppp: PppConfig, channel: ChannelParams, protocol: Protocol,
) -> float:
    """l-th moment zeta_l = E[(c P)^l] of the per-slot success probability,
    with the per-slot access share c of `_access`.

    Block: E[P_blk^l]; classical: E[(q P_cls)^l] (the typical pair's own
    access probability is kept inside the moment).
    """
    if l < 1:
        raise ValueError("l must be a positive integer")
    _, c = _access(q, protocol)
    noise = channel.noise_success_factor(ppp.typical_distance_r0, power=float(l))
    exponent = interference_log_integral(l, q, ppp, channel, protocol)
    return noise * math.exp(exponent) * c ** l


def prob_block_controllable_restless(
    T: int, v: int, q: float, ppp: PppConfig, channel: ChannelParams, protocol: Protocol,
) -> float:
    """Network-averaged probability of a length-v success run in a block.

    With the access rule (a, c) of `_access`, this is a E[runtail(T, v, c P)]
    = a sum_k c_k zeta_k: the exact integer de Moivre coefficients c_k of
    `_run_tail_coefficients` applied to the moments zeta_k of `moment_zeta`.
    Raises `QuadratureError` when the coefficients pass the float range, or
    when the alternating sum cancels to below 1e-6 of its largest term.
    """
    if abs(at_minus_one := _run_tail_at_minus_one(T, v)) > sys.float_info.max:  # <= sum |c_k|
        raise QuadratureError(f"de Moivre coefficients past the float range: |P(-1)| has "
                              f"{at_minus_one.bit_length()} bits", math.inf)
    coeffs = _run_tail_coefficients(T, v)
    largest_coeff = max(map(abs, coeffs))
    if largest_coeff * len(coeffs) > sys.float_info.max:  # their float sum would overflow
        raise QuadratureError(f"de Moivre coefficients of {largest_coeff.bit_length()} bits "
                              "are past the float range", math.inf)
    a, _ = _access(q, protocol)
    terms = [ck * moment_zeta(k, q, ppp, channel, protocol)
             for k, ck in enumerate(coeffs) if ck]
    total = math.fsum(terms)
    largest = max(abs(t) for t in terms)
    if total != 0.0 and largest / abs(total) > 1e6:
        raise QuadratureError(
            f"alternating-sum cancellation {largest / abs(total):.2e}x the result; "
            "the moment expansion has lost its precision",
            largest * _REL_TOL,
        )
    return min(1.0, max(0.0, a * total))


# ---------------------------------------------------------------------------
# Binomial tails and their inversion
# ---------------------------------------------------------------------------

def binomial_tail(T: int, v: int, p: float) -> float:
    """P(X >= v) for X ~ Binomial(T, p).

    The probability masses are built outward from the mode as products of
    the term ratios, so each is at most the mode's and none overflows, and
    the upper ones are summed and divided by the sum of all.
    """
    if not 0 <= v <= T:
        raise ValueError("need 0 <= v <= T")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if v == 0 or p == 1.0:
        return 1.0
    if p == 0.0:
        return 0.0
    k = np.arange(T)
    ratio = (T - k) / (k + 1) * (p / (1.0 - p))  # mass(k + 1) / mass(k)
    mode = min(T, int((T + 1) * p))
    mass = np.concatenate((np.cumprod(1.0 / ratio[:mode][::-1])[::-1], [1.0],
                           np.cumprod(ratio[mode:])))
    return float(mass[v:].sum() / mass.sum())


@functools.lru_cache(maxsize=1024)
def inverse_tail_threshold(
    T: int, v: int, q: float, beta: float, protocol: Protocol
) -> Optional[float]:
    """Smallest p in [0, 1] whose access-weighted binomial tail
    a binomial_tail(T, v, c p) reaches beta, with (a, c) from `_access`.

    Block weights the tail by q; classical evaluates the tail at success
    probability q*p. Returns None when even p = 1 cannot reach beta, and 1
    when beta = a (block ALOHA with beta = q), where only p = 1 gives a tail
    of 1. The bisection is cached, so the analytic and the empirical side of
    a meta point share one.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    a, c = _access(q, protocol)
    if beta == a:
        return 1.0
    meets = lambda p: a * binomial_tail(T, v, c * p) >= beta
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
# Meta distribution: the law of P by compound-Poisson FFT
# ---------------------------------------------------------------------------

# Default grid step of S = -ln(P/p0), the cap on the cells of the coarse grid
# on [0, s*] (the fine grid has twice as many), and the largest accepted gap
# between the coarse and the fine value.
_META_STEP = 1e-4
_META_MAX_CELLS = 1 << 16
_META_TOL = 2e-3
# The exponential tilt keeps the mass wrapping round the FFT below e^-36.
_WRAP_DECAY = 36.0


def _jump_cdf(t, q, channel: ChannelParams, ppp: PppConfig, protocol: Protocol):
    """P(J <= t) for one interferer's jump J = -ln base(z), z with CDF z^2/R^2.

    base(z) >= e^-t holds beyond z(t) = r0 (gamma x_t / (1 - x_t))^(1/alpha),
    with x_t = 1 - (1 - e^-t)/c and the per-slot access share c of `_access`
    (q for classical ALOHA, 1 for block); classical jumps end at -ln(1 - q),
    where x_t reaches 0.
    """
    _, c = _access(q, protocol)
    r0, L = ppp.typical_distance_r0, ppp.window_radius_R
    one_minus_x = -np.expm1(-t) / c
    with np.errstate(divide="ignore"):
        ratio = channel.sinr_threshold_gamma * np.maximum(1.0 - one_minus_x, 0.0) / one_minus_x
    z2 = r0 * r0 * ratio ** (2.0 / channel.pathloss_exp_alpha)
    return 1.0 - np.minimum(1.0, z2 / (L * L))


def _next_5_smooth(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a fast real-FFT length."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _log_success_law(s_max: float, cells: int, q: float, ppp: PppConfig,
                     channel: ChannelParams, protocol: Protocol):
    """Atoms of S = -ln(P/p0) at k s_max/cells, k = 0..cells.

    S sums Poisson(lam a pi R^2) i.i.d. jumps, with the block weight a of
    `_access` (q under block ALOHA, 1 under classical). Each grid cell's
    jump mass is split between its two ends so that the cell's mean is
    kept: equally (second order in the step), except in the first cell,
    where the far interferers' many tiny jumps get their exact mean from one
    quadrature.
    Jumps beyond the grid are dropped (any one puts S past s_max), so the
    law is defective. One rfft/irfft pair of the tilted jump law gives it.
    """
    r0, L = ppp.typical_distance_r0, ppp.window_radius_R
    dt = s_max / cells
    cdf = _jump_cdf(dt * np.arange(cells + 2), q, channel, ppp, protocol)
    mass = np.diff(cdf)
    jumps = 0.5 * (mass + np.concatenate(([0.0], mass[:-1])))
    # E[J; J <= dt], with u = z^2/R^2 uniform on (0, 1]
    head = _quad_checked(
        lambda u: -np.log1p(-_base_loss(L * np.sqrt(u), q, channel, r0, protocol)),
        1.0 - cdf[1], 1.0,
    )
    jumps[0] = mass[0] - head / dt
    jumps[1] = head / dt + 0.5 * mass[1]
    n_fft = _next_5_smooth(4 * (cells + 1))
    tilt = np.exp(-_WRAP_DECAY / n_fft * np.arange(cells + 1))
    a, _ = _access(q, protocol)
    mu = ppp.intensity_lambda * a * math.pi * L * L
    law = fft.irfft(np.exp(mu * (fft.rfft(jumps * tilt, n_fft) - 1.0)), n_fft)
    return law[:cells + 1] / tilt


def meta_distribution_rested(query: MetaQuery, ppp: PppConfig, protocol: Protocol) -> float:
    """Fraction of network realizations whose per-realization success tail
    reaches the reliability target beta.

    Evaluates P(P >= p*) = P(S <= s*), s* = ln(p0/p*), from the law of
    S = -ln(P/p0) on grids of step dt and dt/2 over the window of `ppp`; the
    gap between the two is the error estimate, and `QuadratureError` is
    raised when it exceeds 2e-3. Returns 0 when no threshold p* in [0, 1] can
    meet beta (block ALOHA with q < beta).
    """
    pstar = inverse_tail_threshold(query.T, query.v, query.q, query.beta, protocol)
    if pstar is None:
        return 0.0
    lam_eff = ppp.intensity_lambda * _access(query.q, protocol)[0]
    if pstar <= 1e-300:
        return 1.0
    s_star = -query.channel.noise_exponent(ppp.typical_distance_r0) - math.log(pstar)
    if lam_eff == 0.0:  # deterministic success probability: point-mass CCDF
        return 1.0 if s_star >= 0.0 else 0.0
    if s_star <= 0.0:  # P >= p0 only without interferers
        return math.exp(-lam_eff * math.pi * ppp.window_radius_R**2) if s_star == 0.0 else 0.0

    cells = min(_META_MAX_CELLS, math.ceil(s_star / _META_STEP))
    values = []
    for n in (cells, 2 * cells):
        law = _log_success_law(s_star, n, query.q, ppp, query.channel, protocol)
        # half the end atom: the CDF at s* stays second order in the step
        values.append(float(law[:-1].sum() + 0.5 * law[-1]))
    coarse, fine = values
    error = abs(fine - coarse)
    if error > _META_TOL:
        raise QuadratureError(f"meta distribution grid error {error:.2e} above tolerance",
                              error)
    return float(min(1.0, max(0.0, fine)))
