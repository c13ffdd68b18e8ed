"""Rayleigh-faded SINR channel: the success probability of one transmission
of the typical link given the network geometry.

Fading is averaged out in closed form, so no fading power is ever drawn:
given the geometry and the active set, the slot successes are i.i.d.
Bernoulli of that probability, and `block_success_prob` is the one kernel
every success probability comes from: the simulated acknowledgments and the
Thompson-sampling reward table alike. It takes the interferers'
`suppression_factors`, which depend on the geometry only, so a caller
computes them once per geometry.

Powers are stored in linear watts; helpers convert from dBm / carrier
frequency, matching the configuration surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aloha import Protocol

__all__ = [
    "ChannelParams",
    "dbm_to_watts",
    "db_to_linear",
    "thermal_noise_watts",
    "freespace_pathloss_const",
    "default_channel",
    "suppression_factors",
    "block_owner",
    "block_success_prob",
]

SPEED_OF_LIGHT = 299_792_458.0
THERMAL_NOISE_DBM_PER_HZ = -174.0

DEFAULT_TX_POWER_DBM = 24.0
DEFAULT_BANDWIDTH_HZ = 200e6
DEFAULT_CARRIER_HZ = 3.2e9


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def thermal_noise_watts(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """kTB noise floor over the band, optionally raised by a receiver noise figure."""
    dbm = THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
    return dbm_to_watts(dbm)


def freespace_pathloss_const(carrier_hz: float) -> float:
    """Free-space reference gain (c / 4 pi f)^2 at 1 m."""
    return (SPEED_OF_LIGHT / (4.0 * math.pi * carrier_hz)) ** 2


@dataclass(frozen=True)
class ChannelParams:
    """Transmit power (W), path-loss constant/exponent, noise power (W),
    SINR threshold (linear)."""

    tx_power_eta: float
    pathloss_const_rho: float
    pathloss_exp_alpha: float
    noise_power_N0: float
    sinr_threshold_gamma: float

    def __post_init__(self):
        if self.tx_power_eta <= 0.0:
            raise ValueError("tx_power_eta must be > 0")
        if self.pathloss_const_rho <= 0.0:
            raise ValueError("pathloss_const_rho must be > 0")
        if self.pathloss_exp_alpha < 2.0:
            raise ValueError("pathloss_exp_alpha must be >= 2")
        if self.noise_power_N0 < 0.0:
            raise ValueError("noise_power_N0 must be >= 0")
        if self.sinr_threshold_gamma <= 0.0:
            raise ValueError("sinr_threshold_gamma must be > 0")

    def rx_power_coeff(self, distance) -> np.ndarray | float:
        """Mean received power eta * rho * d^(-alpha) at distance d."""
        return self.tx_power_eta * self.pathloss_const_rho * np.asarray(distance, float) ** (
            -self.pathloss_exp_alpha
        )

    def noise_exponent(self, r0: float) -> float:
        """gamma * N0 / (eta rho r0^(-alpha)); 0 in the noiseless case."""
        if self.noise_power_N0 == 0.0:
            return 0.0
        return self.sinr_threshold_gamma * self.noise_power_N0 / float(self.rx_power_coeff(r0))

    def noise_success_factor(self, r0: float, power: float = 1.0) -> float:
        """exp(-power * gamma * N0 / (eta rho r0^(-alpha)))."""
        return math.exp(-power * self.noise_exponent(r0))


def default_channel(gamma: float = 1.0) -> ChannelParams:
    """Defaults: 24 dBm transmit power, free-space rho at 3.2 GHz, thermal
    noise over 200 MHz, alpha = 2. gamma is receiver/application dependent."""
    return ChannelParams(
        tx_power_eta=dbm_to_watts(DEFAULT_TX_POWER_DBM),
        pathloss_const_rho=freespace_pathloss_const(DEFAULT_CARRIER_HZ),
        pathloss_exp_alpha=2.0,
        noise_power_N0=thermal_noise_watts(DEFAULT_BANDWIDTH_HZ),
        sinr_threshold_gamma=gamma,
    )


def suppression_factors(distances, r0: float, params: ChannelParams) -> np.ndarray:
    """Per-interferer factor 1 / (1 + gamma (z/r0)^(-alpha)): the chance that
    one active Rayleigh-faded interferer at distance z leaves the typical
    link above threshold. Zero where (z/r0)^(-alpha) is inf, without a warning."""
    ratio = np.asarray(distances, dtype=float) / r0
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / (1.0 + params.sinr_threshold_gamma * ratio ** (-params.pathloss_exp_alpha))


def block_owner(counts) -> np.ndarray:
    """Block index of every interferer, for interferers concatenated block by
    block with `counts[b]` in block b: the layout `block_success_prob` takes."""
    return np.repeat(np.arange(len(counts)), counts)


def block_success_prob(
    factors: np.ndarray, owner: np.ndarray, n_blocks: int, noise: float,
    protocol: Protocol, q, rng: np.random.Generator,
) -> np.ndarray:
    """Per-slot success probability of the typical link in each of n_blocks
    blocks, given that the typical pair transmits.

    `factors` holds the `suppression_factors` of every block's interferers,
    concatenated block by block, `owner` their blocks (`block_owner`), and
    `noise` is `ChannelParams.noise_success_factor(r0)`: a caller computes
    them once per geometry. `q` is one access probability for every block,
    or one per block. Block ALOHA draws each interferer's activity for the
    whole block (one uniform per factor, in order) and returns P_blk of the
    drawn active set; classical ALOHA returns P_cls(q), which averages the
    per-slot activity and draws nothing. Given the geometry (and the active
    set), a block's slot successes are i.i.d. Bernoulli of this value.
    """
    if np.ndim(q):
        if np.shape(q) != (n_blocks,):
            raise ValueError("per-block q must have one value per block")
        q = np.asarray(q, dtype=float)[owner]
    if Protocol(protocol) is Protocol.BLOCK:
        factors = np.where(rng.random(factors.size) < q, factors, 1.0)
    else:
        factors = q * factors + 1.0 - q
    with np.errstate(divide="ignore"):
        log_prod = np.bincount(owner, weights=np.log(factors), minlength=n_blocks)
    return noise * np.exp(log_prod)
