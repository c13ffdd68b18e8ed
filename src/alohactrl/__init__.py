"""alohactrl: ALOHA channel access for Poisson networks of control loops.

A simulator plus closed-form analytics toolkit: Poisson bipolar geometry,
SINR success probabilities, restless/rested control loops over the lossy link,
block/classical ALOHA access, network-averaged controllability statistics,
meta distributions, and Thompson-sampling selection of the ALOHA parameter.
"""

__version__ = "0.1.0"

from .aloha import Protocol
from .analytics import (
    MetaQuery,
    QuadratureError,
    binomial_tail,
    inverse_tail_threshold,
    meta_distribution_rested,
    moment_zeta,
    prob_block_controllable_restless,
    run_ccdf_demoivre,
)
from .bandit import (
    RegretTrace,
    regret_envelope_explicit,
    run_ts,
    select_arm,
)
from .channel import (
    ChannelParams,
    block_owner,
    block_success_prob,
    default_channel,
    suppression_factors,
)
from .control import (
    BlockTrace,
    LtiSystem,
    longest_runs,
    run_block_rested,
    run_block_restless,
)
from .geometry import (
    NetworkRealization,
    PppConfig,
    default_window_radius,
    sample_ppp,
)
from .montecarlo import (
    ExperimentConfig,
    SweepResult,
    analytic_points,
    compare_analytic_empirical,
    estimate_block_controllability,
    estimate_meta_empirical,
    run_regret_study,
    simulate_ack_blocks,
)

__all__ = [name for name in dir() if not name.startswith("_")]
