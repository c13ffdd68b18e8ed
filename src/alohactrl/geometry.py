"""Poisson bipolar network geometry: disk-window sampling and diagnostics.

Interferer positions follow a homogeneous Poisson point process on a finite
disk window centered at the typical receiver; only point distances are kept,
since every downstream statistic depends on distances alone. `sample_blocks`
is the one sampler; `sample_ppp` is its one-window case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PppConfig",
    "NetworkRealization",
    "default_window_radius",
    "sample_blocks",
    "sample_ppp",
]


def default_window_radius(intensity_lambda: float, typical_distance_r0: float) -> float:
    """Truncation radius for the simulation window.

    Wide enough that the typical link sits deep inside the window, and widened
    for sparse networks so the expected interferer count stays O(100).
    """
    if intensity_lambda <= 0.0:
        return 10.0 * typical_distance_r0
    return max(10.0 * typical_distance_r0, 5.0 / math.sqrt(intensity_lambda))


@dataclass(frozen=True)
class PppConfig:
    """Density (per m^2), window radius (m) and typical pair distance (m): the
    finite system that the simulator samples and the analytics integrate over."""

    intensity_lambda: float
    window_radius_R: float
    typical_distance_r0: float

    def __post_init__(self):
        if not 0.0 <= self.intensity_lambda < math.inf:
            raise ValueError(f"intensity_lambda must be finite and >= 0, "
                             f"got {self.intensity_lambda}")
        if not 0.0 < self.window_radius_R < math.inf:
            raise ValueError(f"window_radius_R must be finite and > 0, "
                             f"got {self.window_radius_R}")
        if not 0.0 < self.typical_distance_r0 < math.inf:
            raise ValueError(f"typical_distance_r0 must be finite and > 0, "
                             f"got {self.typical_distance_r0}")
        if self.typical_distance_r0 > self.window_radius_R:
            raise ValueError("typical_distance_r0 must not exceed window_radius_R")

    @property
    def mean_count(self) -> float:
        """Expected number of interferers in the window."""
        return self.intensity_lambda * math.pi * self.window_radius_R**2


@dataclass(frozen=True)
class NetworkRealization:
    """One sampled set of interferer distances plus the fixed typical distance.

    Immutable after creation; the typical pair is never part of `distances`.
    """

    interferer_distances: np.ndarray
    typical_distance_r0: float

    def __post_init__(self):
        object.__setattr__(
            self, "interferer_distances",
            np.asarray(self.interferer_distances, dtype=float),
        )
        if self.interferer_distances.ndim != 1:
            raise ValueError("interferer_distances must be one-dimensional")
        if self.interferer_distances.size and not np.all(self.interferer_distances > 0.0):
            raise ValueError("interferer distances must be strictly positive")
        if self.typical_distance_r0 <= 0.0:
            raise ValueError("typical_distance_r0 must be > 0")

    @property
    def num_interferers(self) -> int:
        return int(self.interferer_distances.size)


def sample_blocks(config: PppConfig, n_blocks: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(counts, distances) of n_blocks independent windows: Poisson counts, then
    R*sqrt(U) per interferer (density 2z/R^2 on (0, R]), concatenated block by
    block; a zero draw is lifted to the smallest positive float (support open at 0)."""
    counts = rng.poisson(config.mean_count, n_blocks)
    distances = config.window_radius_R * np.sqrt(rng.random(int(counts.sum())))
    np.maximum(distances, np.finfo(float).tiny, out=distances)
    return counts, distances


def sample_ppp(config: PppConfig, rng: np.random.Generator) -> NetworkRealization:
    """Draw one realization: the one-block case of `sample_blocks`."""
    return NetworkRealization(sample_blocks(config, 1, rng)[1], config.typical_distance_r0)
