"""
Short-packet performance analysis for RIS-aided links: Gamma
moment-matching of the received SNR, closed-form averages of the
finite-blocklength rate, block error probability and blocklength, a
Monte Carlo oracle, and a figure-reproduction harness.
"""

from .specfun import (
    DEFAULT_POLICY,
    DomainError,
    EvalPolicy,
    NonConvergenceError,
    gamma_cdf,
    inv_q,
    q_function,
)
from .channel import (
    GammaFit,
    Geometry,
    LinkGains,
    Moments,
    Perfect,
    PhaseModel,
    QuantizedBits,
    RadioConfig,
    UniformSpread,
    fit_snr,
    gamma_fit,
    link_gains,
    moments_X,
    path_loss_gain,
    snr_scale,
)
from .fbl import (
    PacketConfig,
    avg_bler,
    avg_blocklength,
    avg_rate_exact,
    avg_rate_lower_bound,
    c1_avg_capacity,
    c2_avg_sqrt_dispersion,
)
from .montecarlo import McConfig, empirical_stats, ks_distance, mc_avg_metrics, sample_snr
from .experiments import (
    FIGURE_IDS,
    ResultTable,
    ScenarioConfig,
    required_elements,
    run_figure,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
