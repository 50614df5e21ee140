"""
Link budget and composite-channel statistics
============================================
Large-scale gains for the direct and reflected paths, exact first and
second raw moments of the composite channel power under perfect,
uniformly-spread, and quantized phase control, and the Gamma
moment-matching of the received SNR.

The moments are assembled from the structural double/triple/quadruple
sums over the per-element phase factors with the cosine expectations
substituted.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError, sinc_norm


class DegenerateMomentsError(ValueError):
    """Second moment does not exceed squared mean; no Gamma fit exists."""


_PI = math.pi


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkGains:
    """Linear large-scale power gains of the three links.

    direct: AP -> AC (0 encodes "no direct link")
    ap_ris: AP -> RIS
    ris_ac: RIS -> AC
    """

    direct: float
    ap_ris: float
    ris_ac: float

    def __post_init__(self):
        if not self.direct >= 0:
            raise DomainError("direct gain must be >= 0")
        if not (self.ap_ris > 0 and self.ris_ac > 0):
            raise DomainError("reflected-path gains must be > 0")


@dataclass(frozen=True)
class Perfect:
    """Error-free phase alignment at every element."""

    spread = 0.0


@dataclass(frozen=True)
class UniformSpread:
    """Residual phase error uniform on (-spread*pi, spread*pi)."""

    spread: float

    def __post_init__(self):
        if not 0.0 < self.spread <= 1.0:
            raise DomainError("spread must lie in (0, 1]")


@dataclass(frozen=True)
class QuantizedBits:
    """b-bit quantized phase shifts; analytically a uniform spread 2^-b.

    At most 52 bits: a float64 phase in [0, 2 pi) cannot resolve a finer
    step.
    """

    bits: int

    def __post_init__(self):
        if not 1 <= self.bits <= 52:
            raise DomainError("bits must lie in [1, 52]")

    @property
    def spread(self) -> float:
        return 2.0 ** (-self.bits)

    @property
    def step(self) -> float:
        return _PI / 2.0 ** (self.bits - 1)


PhaseModel = Perfect | UniformSpread | QuantizedBits


@dataclass(frozen=True)
class Moments:
    """First and second raw moments of the composite channel power."""

    m1: float
    m2: float

    def __post_init__(self):
        if self.m1 <= 0:
            raise DegenerateMomentsError("m1 must be > 0")
        if self.m2 <= self.m1 * self.m1:
            raise DegenerateMomentsError("m2 must exceed m1^2")

    @property
    def variance(self) -> float:
        return self.m2 - self.m1 * self.m1


@dataclass(frozen=True)
class GammaFit:
    """Shape/rate parameters of the moment-matched SNR distribution."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and self.rate > 0):
            raise DomainError("shape and rate must be > 0")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def variance(self) -> float:
        return self.shape / self.rate ** 2


@dataclass(frozen=True)
class RadioConfig:
    """Transmit power and noise budget."""

    tx_power: float = 0.2                  # W
    noise_density: float = 10 ** (-20.4)   # W/Hz  (-174 dBm/Hz)
    bandwidth: float = 200e3               # Hz
    noise_figure: float = 10 ** 0.3        # linear (3 dB)

    def __post_init__(self):
        for name in ("tx_power", "noise_density", "bandwidth"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be > 0")
        if not self.noise_figure >= 1:
            raise DomainError("noise_figure must be >= 1 (linear)")


def _dist(p, q, dz=0.0):
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


@dataclass(frozen=True)
class Geometry:
    """2D positions in meters.  The AP sits ap_height above the plane that
    holds the RIS and the AC; the default 0 keeps every distance planar."""

    ap: tuple[float, float] = (0.0, 0.0)
    ac: tuple[float, float] = (100.0, 0.0)
    ris: tuple[float, float] = (91.0, 5.0)
    ap_height: float = 0.0

    def d_ap_ac(self) -> float:
        return _dist(self.ap, self.ac, self.ap_height)

    def d_ap_ris(self) -> float:
        return _dist(self.ap, self.ris, self.ap_height)

    def d_ris_ac(self) -> float:
        return _dist(self.ris, self.ac)

    def __post_init__(self):
        if not self.ap_height >= 0:
            raise DomainError("ap_height must be >= 0")
        for d in (self.d_ap_ac(), self.d_ap_ris(), self.d_ris_ac()):
            if not d > 1.0:
                raise DomainError("pairwise distances must exceed 1 m")


# ---------------------------------------------------------------------------
# Link budget
# ---------------------------------------------------------------------------

PATH_LOSS_INTERCEPT_DB = 34.53
PATH_LOSS_EXPONENT = 3.8


def path_loss_gain(distance: float, exponent: float = PATH_LOSS_EXPONENT) -> float:
    """Linear power gain 10^(-(34.53 + 10*exponent*log10(D)) / 10)."""
    if not distance >= 1.0:
        raise DomainError(f"path loss model needs distance >= 1 m, got {distance}")
    pl_db = PATH_LOSS_INTERCEPT_DB + 10.0 * exponent * math.log10(distance)
    return 10.0 ** (-pl_db / 10.0)


def link_gains(geometry: Geometry, direct_link: bool = True,
               direct_exponent: float = PATH_LOSS_EXPONENT) -> LinkGains:
    """Compose the path-loss model with the scenario geometry."""
    direct = path_loss_gain(geometry.d_ap_ac(), direct_exponent) if direct_link else 0.0
    return LinkGains(
        direct=direct,
        ap_ris=path_loss_gain(geometry.d_ap_ris()),
        ris_ac=path_loss_gain(geometry.d_ris_ac()),
    )


def snr_scale(radio: RadioConfig) -> float:
    """Transmit SNR scale rho = p / (N0 * W * NF)."""
    return radio.tx_power / (radio.noise_density * radio.bandwidth * radio.noise_figure)


# ---------------------------------------------------------------------------
# Phase-error expectations and composite-channel moments
# ---------------------------------------------------------------------------

def phase_expectations(spread: float):
    """The six cosine expectations for phase error uniform on (-s*pi, s*pi).

    Returns (E[cos phi], E[cos^2 phi], E[cos(phi_n - phi_m)],
    E[cos^2(phi_n - phi_m)], E[cos phi_n cos(phi_n - phi_m)],
    E[cos(phi_n - phi_m) cos(phi_n' - phi_n)]) for distinct n, m, n'.
    """
    if not 0.0 <= spread <= 1.0:
        raise DomainError(f"spread must lie in [0, 1], got {spread}")
    s1 = sinc_norm(spread)
    s2 = sinc_norm(2.0 * spread)
    return (
        s1,
        0.5 + 0.5 * s2,
        s1 * s1,
        0.5 + 0.5 * s2 * s2,
        s1 * (0.5 + 0.5 * s2),
        0.5 * (1.0 + s2) * s1 * s1,
    )


def moments_X(gains: LinkGains, n_elements: int, phase: PhaseModel) -> Moments:
    """Exact raw moments of the composite channel power X.

    X = | |h_d| + sum_n |a_n||b_n| e^{j phi_n} |^2 with Rayleigh amplitudes
    and i.i.d. phase errors given by the phase model.  Assembled from the
    structural sums with the cosine expectations substituted; the Perfect
    model is the spread -> 0 specialization of the same formulas.
    """
    if n_elements < 0:
        raise DomainError("n_elements must be >= 0")
    if n_elements == 0 and gains.direct <= 0:
        raise DomainError("N = 0 requires a direct link")

    v = gains.direct
    r = gains.ap_ris
    t = gains.ris_ac
    N = float(n_elements)
    e1, e2, e3, e4, e5, e6 = phase_expectations(phase.spread)
    pi = _PI

    m1 = (
        v
        + N * r * t
        + (pi ** 2 / 16.0) * r * t * N * (N - 1) * e3
        + (pi / 4.0) * math.sqrt(pi * v * r * t) * N * e1
    )

    m2 = (
        2.0 * v ** 2
        + v * r * t * (
            2.0 * N
            + 4.0 * N * e2
            + (pi ** 2 / 8.0) * N * (N - 1) * (e3 + 2.0 * e1 * e1)
        )
        + (3.0 * pi / 4.0) * math.sqrt(pi * v ** 3 * r * t) * N * e1
        + r ** 2 * t ** 2 * (
            N * (N + 3.0)
            + (pi ** 2 * (2.0 * N + 5.0) / 16.0) * N * (N - 1) * e3
            + 2.0 * N * (N - 1) * e4
            + 2.0 * (pi ** 2 / 8.0) * N * (N - 1) * (N - 2) * e6
            + (pi ** 4 / 256.0) * N * (N - 1) * (N - 2) * (N - 3) * e3 * e3
        )
        + math.sqrt(v * r ** 3 * t ** 3) * pi ** 1.5 * (
            ((4.0 * N + 5.0) / 8.0) * N * e1
            + N * (N - 1) * e5
            + (pi ** 2 / 32.0) * N * (N - 1) * (N - 2) * e3 * e1
        )
    )
    return Moments(m1=m1, m2=m2)


def gamma_fit(moments: Moments, rho: float) -> GammaFit:
    """Moment-match gamma = rho * X to Gamma(shape, rate)."""
    if rho <= 0:
        raise DomainError("rho must be > 0")
    var = moments.variance
    return GammaFit(shape=moments.m1 ** 2 / var, rate=moments.m1 / (rho * var))


def fit_snr(gains: LinkGains, n_elements: int, phase: PhaseModel,
            rho: float) -> GammaFit:
    """Convenience: moments + moment matching in one step."""
    return gamma_fit(moments_X(gains, n_elements, phase), rho)


def asymptotic_trend(gains: LinkGains, phase: PhaseModel, n_grid) -> dict:
    """Log-log scaling exponents of SNR mean and variance versus N.

    Least-squares slopes computed from the exact moments (rho cancels in
    the slopes and is taken as 1).
    """
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 2 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise DomainError("n_grid must be strictly increasing with >= 2 points")
    if n_grid[-1] < 256:
        raise DomainError("n_grid must extend to at least 256")
    means, variances, shapes, rates = [], [], [], []
    for n in n_grid:
        m = moments_X(gains, n, phase)
        f = gamma_fit(m, 1.0)
        means.append(m.m1)
        variances.append(m.variance)
        shapes.append(f.shape)
        rates.append(f.rate)
    logn = np.log(np.asarray(n_grid, dtype=float))
    mean_slope = float(np.polyfit(logn, np.log(means), 1)[0])
    var_slope = float(np.polyfit(logn, np.log(variances), 1)[0])
    return {
        "n_grid": n_grid,
        "mean_slope": mean_slope,
        "variance_slope": var_slope,
        "shapes": shapes,
        "rates": rates,
    }
