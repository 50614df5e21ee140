"""
Link budget and composite-channel statistics
============================================
Large-scale gains for the direct and reflected paths, exact first and
second raw moments of the composite channel power under perfect,
uniformly-spread, and quantized phase control, and the Gamma
moment-matching of the received SNR.

The moments are formed from the law of one reflecting element: its
joint moments are closed-form, and those of the element sum follow by
counting how a product's factors fall on distinct elements.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError, sinc_norm


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
        if not 0 <= self.direct < math.inf:
            raise DomainError("direct gain must be finite and >= 0")
        if not (0 < self.ap_ris < math.inf and 0 < self.ris_ac < math.inf):
            raise DomainError("reflected-path gains must be finite and > 0")


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
    """b-bit quantized phase shifts: residual uniform with spread 2^-b.

    The controller snaps each ideal shift to the nearest of 2^b levels,
    2 pi 2^-b apart.  With a uniform cascade phase the ideal shift lies
    uniformly within its level's cell, so the residual phase error is
    uniform on (-pi 2^-b, pi 2^-b): in law, this is UniformSpread(2^-b),
    for the moments and for the Monte Carlo sampler alike.  At most 52
    bits: a float64 phase in [0, 2 pi) cannot resolve a finer step.
    """

    bits: int

    def __post_init__(self):
        if not 1 <= self.bits <= 52:
            raise DomainError("bits must lie in [1, 52]")

    @property
    def spread(self) -> float:
        return 2.0 ** (-self.bits)


PhaseModel = Perfect | UniformSpread | QuantizedBits


@dataclass(frozen=True)
class Moments:
    """First and second raw moments of the composite channel power."""

    m1: float
    m2: float

    def __post_init__(self):
        if self.m1 <= 0:
            raise DomainError("m1 must be > 0")
        if self.m2 <= self.m1 * self.m1:
            raise DomainError("m2 must exceed m1^2")

    @property
    def variance(self) -> float:
        return self.m2 - self.m1 * self.m1


@dataclass(frozen=True)
class GammaFit:
    """Shape/rate parameters of the moment-matched SNR distribution."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (0 < self.shape < math.inf and 0 < self.rate < math.inf):
            raise DomainError("shape and rate must be finite and > 0")

    @property
    def mean(self) -> float:
        return self.shape / self.rate


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


def _check_channel(gains: LinkGains, n_elements: int, phase) -> None:
    """Raise DomainError for N < 0, no channel, or an unknown phase model."""
    if n_elements < 0:
        raise DomainError("n_elements must be >= 0")
    if n_elements == 0 and gains.direct <= 0:
        raise DomainError("N = 0 requires a direct link")
    if not isinstance(phase, PhaseModel):
        raise DomainError(f"unknown phase model {phase!r}")


# ---------------------------------------------------------------------------
# Composite-channel moments from one element's law
# ---------------------------------------------------------------------------

def moments_X(gains: LinkGains, n_elements: int, phase: PhaseModel) -> Moments:
    """Exact raw moments of the composite channel power X.

    In the frame of h_d, X = H^2 + 2 a H Re S + a^2 |S|^2, with H = |h_d|
    Rayleigh of power direct, a^2 = ap_ris * ris_ac, and S the sum of N
    i.i.d. elements c = r e^{j phi}: r the product of two unit-power
    Rayleigh amplitudes, phi the residual phase error of the model.  An
    element's moments are E[c^p conj(c)^q] = Gamma(1 + (p+q)/2)^2
    sinc((p - q) s), and each moment of S sums them over the partitions
    of its factors into distinct elements, counted by the falling
    factorials N_2, N_3, N_4.  Perfect is spread 0, where sinc is 1.
    So E[c |c|^2] = 2.25 E[c], and E[H^k] = Gamma(1 + k/2) direct^(k/2)
    gives E[H^3] = 1.5 direct E[H].
    """
    _check_channel(gains, n_elements, phase)
    v = gains.direct
    a2 = gains.ap_ris * gains.ris_ac
    a = math.sqrt(a2)
    h = 0.5 * math.sqrt(_PI * v)                       # E[H]
    n = float(n_elements)
    n2 = n * (n - 1.0)
    n3 = n2 * (n - 2.0)
    n4 = n3 * (n - 3.0)
    mu = 0.25 * _PI * sinc_norm(phase.spread)          # E[c]
    sg = sinc_norm(2.0 * phase.spread)                 # E[c^2]
    mu2 = mu * mu

    s1 = n * mu                                        # E[S]
    s2 = n * sg + n2 * mu2                             # E[S^2]
    p2 = n + n2 * mu2                                  # E|S|^2
    s3 = 2.25 * n * mu + n2 * mu * (sg + 2.0) + n3 * mu * mu2      # E[S |S|^2]
    p4 = (4.0 * n + n2 * (9.0 * mu2 + sg * sg + 2.0)              # E|S|^4
          + n3 * mu2 * (2.0 * sg + 4.0) + n4 * mu2 * mu2)

    m1 = v + 2.0 * a * h * s1 + a2 * p2
    m2 = (2.0 * v * v + 2.0 * a2 * v * (s2 + 2.0 * p2) + 6.0 * a * v * h * s1
          + a2 * a2 * p4 + 4.0 * a2 * a * h * s3)
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
