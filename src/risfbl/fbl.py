"""
Finite-blocklength metrics
==========================
Instantaneous normal-approximation quantities (rate, block error
probability, blocklength) and their averages over the Gamma-fitted SNR:

  * exact average rate from the capacity term C1 = E[log2(1 + gamma)]
    and the dispersion term C2 = E[sqrt(V(gamma))],
  * the Jensen-type closed-form lower bound,
  * the linearized-Q closed form for the average BLER with a quadrature
    reference mode and a cancellation guard,
  * the average blocklength as the positive root of the rate equation.

The paper writes C1 and C2 as infinite Kummer-U series; here both are
integrated directly against the Gamma density in w = ln(rate * gamma)
with the peak-tracked quadrature of ``specfun``, the same kernel that
evaluates Kummer U.  Integrands are assembled in the log domain, so
shape parameters in the thousands do not overflow.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .specfun import (
    DEFAULT_POLICY,
    LOG2E,
    _DROP,
    DomainError,
    EvalPolicy,
    _log_integral,
    _panel_grid,
    _softplus,
    inv_q,
    log_gamma_kummer_u,
    q_function,
)
from .channel import GammaFit

_LN2 = math.log(2.0)


class ValidityError(ValueError):
    """Inputs outside the validity range of an approximation."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PacketConfig:
    """Short-packet parameters: payload bits, channel uses, reliability target."""

    info_bits: int = 240
    blocklength: int = 300
    target_bler: float = 1e-9

    def __post_init__(self):
        if self.info_bits < 1:
            raise DomainError("info_bits must be >= 1")
        if self.blocklength < 100:
            raise DomainError("normal approximation needs blocklength >= 100")
        if not 0.0 < self.target_bler <= 0.5:
            raise DomainError("target_bler must lie in (0, 0.5]")


@dataclass(frozen=True)
class LinearizationParams:
    """Parameters of the piecewise-linear surrogate for Q(f(gamma, r, L))."""

    xi0: float
    xi1: float
    kappa0: float
    kappa1: float


@dataclass(frozen=True)
class AvgMetrics:
    """Bundle of averaged FBL metrics for one scenario point."""

    avg_rate: float
    avg_rate_lb: float
    avg_bler: float
    avg_blocklength: float
    avg_sqrt_dispersion: float


# ---------------------------------------------------------------------------
# Instantaneous quantities (vectorized over gamma)
# ---------------------------------------------------------------------------

def capacity(gamma):
    """Shannon capacity log2(1 + gamma) in bits per channel use."""
    return np.log2(1.0 + np.asarray(gamma, dtype=float))


def dispersion(gamma):
    """Channel dispersion V(gamma) = (log2 e)^2 (1 - (1+gamma)^-2)."""
    g = np.asarray(gamma, dtype=float)
    return LOG2E ** 2 * (1.0 - 1.0 / (1.0 + g) ** 2)


def instantaneous_rate(gamma, blocklength: int, target_bler: float):
    """Normal-approximation rate C - Q^-1(eps) sqrt(V / r), O(log r / r) dropped."""
    qinv = inv_q(target_bler)
    return capacity(gamma) - qinv * np.sqrt(dispersion(gamma) / blocklength)


def instantaneous_bler(gamma, blocklength: int, info_bits: int):
    """Decoding error probability Q(sqrt(r / V) (C(gamma) - L/r))."""
    g = np.asarray(gamma, dtype=float)
    v = dispersion(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.sqrt(blocklength / v) * (capacity(g) - info_bits / blocklength)
        f = np.where(v > 0, f, -np.inf)
    out = q_function(np.where(np.isfinite(f), f, np.sign(f) * 1e9))
    out = np.where(f == -np.inf, 1.0, out)
    return float(out) if out.ndim == 0 else out


def instantaneous_blocklength(gamma, info_bits: int, target_bler: float):
    """Blocklength solving C r - Q^-1(eps) sqrt(V r) - L = 0 for r."""
    g = np.asarray(gamma, dtype=float)
    c = capacity(g)
    v = dispersion(g)
    qi = inv_q(target_bler)
    root = (qi * np.sqrt(v) + np.sqrt(qi ** 2 * v + 4.0 * c * info_bits)) / (2.0 * c)
    out = root ** 2
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Gamma averages C1 / C2
# ---------------------------------------------------------------------------

def _log_gamma_expect(fit: GammaFit, log_g, policy: EvalPolicy) -> float:
    """log E[g(gamma)] for gamma ~ Gamma(shape, rate) and g > 0.

    In w = ln(rate * gamma) the density is exp(shape w - e^w - lnGamma(shape))
    dw; ``log_g`` maps ln gamma to ln g(gamma).
    """
    alpha = fit.shape
    lnb = math.log(fit.rate)
    lg = sp.gammaln(alpha)

    def h(w):
        return alpha * w - np.exp(w) - lg + log_g(w - lnb)

    # the density peaks at w = ln(shape); g only shifts it moderately
    return _log_integral(h, policy, math.log(alpha))


def c1_avg_capacity(fit: GammaFit, policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Average Shannon capacity E[log2(1 + gamma)]."""
    log_g = lambda v: np.log(_softplus(v))  # ln ln(1 + u)
    return math.exp(_log_gamma_expect(fit, log_g, policy)) / _LN2


def c2_avg_sqrt_dispersion(fit: GammaFit,
                           policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Average sqrt-dispersion E[sqrt(V(gamma))]."""
    # ln sqrt(1 - (1 + u)^-2)
    log_g = lambda v: 0.5 * np.log(-np.expm1(-2.0 * _softplus(v)))
    nats = math.exp(_log_gamma_expect(fit, log_g, policy))
    return min(nats / _LN2, LOG2E)


def avg_rate_exact(fit: GammaFit, blocklength: int, target_bler: float,
                   policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Exact average achievable rate C1 - Q^-1(eps) C2 / sqrt(r)."""
    c1 = c1_avg_capacity(fit, policy)
    if target_bler == 0.5:
        return c1
    c2 = c2_avg_sqrt_dispersion(fit, policy)
    return c1 - inv_q(target_bler) / math.sqrt(blocklength) * c2


def avg_rate_lower_bound(fit: GammaFit, blocklength: int,
                         target_bler: float,
                         policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Closed-form lower bound on the average rate.

    Capacity term by Jensen's inequality, dispersion term by the one-term
    binomial approximation; e^beta E_alpha(beta) is evaluated as
    U(1, 2 - alpha, beta) so nothing overflows.
    """
    a, b = fit.shape, fit.rate
    c1_lb = math.log2(1.0 + a * a / (b * (a + 1.0)))
    # e^b * E_a(b) = U(1, 2 - a, b)
    u = math.exp(log_gamma_kummer_u(1.0, 2.0 - a, b, policy))
    c2_ub = (2.0 - b + b * (a + b - 1.0) * u) / (2.0 * _LN2)
    return c1_lb - inv_q(target_bler) / math.sqrt(blocklength) * c2_ub


# ---------------------------------------------------------------------------
# Average error probability
# ---------------------------------------------------------------------------

def linearization_params(blocklength: int, info_bits: int) -> LinearizationParams:
    """Slope/threshold parameters of the linearized Q approximation."""
    if blocklength < 100:
        raise DomainError("blocklength must be >= 100")
    if info_bits < 1:
        raise DomainError("info_bits must be >= 1")
    ratio = info_bits / blocklength
    xi1 = 2.0 ** ratio - 1.0
    xi0 = -math.sqrt(blocklength / (2.0 * math.pi * (2.0 ** (2.0 * ratio) - 1.0)))
    kappa0 = xi1 + 1.0 / (2.0 * xi0)
    kappa1 = xi1 - 1.0 / (2.0 * xi0)
    if kappa0 <= 0:
        raise ValidityError(
            f"linearized-Q approximation invalid: kappa0 = {kappa0:.4g} <= 0")
    return LinearizationParams(xi0=xi0, xi1=xi1, kappa0=kappa0, kappa1=kappa1)


def _avg_bler_closed(fit: GammaFit, lin: LinearizationParams) -> float:
    a, b = fit.shape, fit.rate
    k0, k1, xi0 = lin.kappa0, lin.kappa1, lin.xi0
    p0 = sp.gammainc(a, k0 * b)
    p1 = sp.gammainc(a, k1 * b)
    p0s = sp.gammainc(a + 1.0, k0 * b)
    p1s = sp.gammainc(a + 1.0, k1 * b)
    val = xi0 * (k0 * p0 - k1 * p1 + (a / b) * (p1s - p0s))
    return float(min(max(val, 0.0), 1.0) + 0.0)


def _avg_bler_reference(fit: GammaFit, lin: LinearizationParams) -> float:
    """Quadrature of the piecewise-linear surrogate against the density."""
    a, b = fit.shape, fit.rate
    lg = sp.gammaln(a)

    # head: int_0^kappa0 dens du with u = kappa0 e^-w, smooth for any a > 0;
    # integrand peaks at w* = ln(b k0 / a) when the density mode lies
    # below kappa0, so the range must reach past that peak
    k0 = lin.kappa0
    w_star = max(0.0, math.log(b * k0 / a))
    wmax = w_star + 12.0 / math.sqrt(a) + (_DROP + 40.0) / a
    wn, ww = _panel_grid(0.0, wmax, 80 * 16)
    head_vals = np.exp(a * math.log(b * k0) - a * wn - b * k0 * np.exp(-wn) - lg)
    head = float(np.sum(ww * head_vals))
    # ramp region is singularity-free
    un, uw = _panel_grid(lin.kappa0, lin.kappa1, 40 * 16)
    dens = np.exp(a * math.log(b) + (a - 1.0) * np.log(un) - b * un - lg)
    ramp = float(np.sum(uw * (0.5 + lin.xi0 * (un - lin.xi1)) * dens))
    return min(max(head + ramp, 0.0), 1.0) + 0.0


@dataclass(frozen=True)
class AvgBlerResult:
    value: float
    closed_form: float
    reference: float
    flagged: bool


def avg_bler_detail(fit: GammaFit, blocklength: int,
                    info_bits: int) -> AvgBlerResult:
    """Average BLER with the closed-form / reference cancellation guard.

    If the incomplete-gamma closed form and the quadrature reference
    disagree by more than 1e-6 relative, the reference value wins and
    the result is flagged.
    """
    lin = linearization_params(blocklength, info_bits)
    closed = _avg_bler_closed(fit, lin)
    ref = _avg_bler_reference(fit, lin)
    scale = max(abs(ref), 1e-300)
    flagged = abs(closed - ref) > 1e-6 * scale
    return AvgBlerResult(value=ref if flagged else closed,
                         closed_form=closed, reference=ref, flagged=flagged)


def avg_bler(fit: GammaFit, blocklength: int, info_bits: int) -> float:
    """Average block error probability under the linearized-Q closed form."""
    return avg_bler_detail(fit, blocklength, info_bits).value


# ---------------------------------------------------------------------------
# Average blocklength
# ---------------------------------------------------------------------------

def avg_blocklength(c1: float, c2: float, info_bits: int,
                    target_bler: float) -> float:
    """Positive root of c1 r - Q^-1(eps) c2 sqrt(r) - L = 0.

    Solved directly as the positive root; a truncated expansion of the
    root is avoidable and less accurate at low average capacity.
    """
    if c1 <= 0:
        raise DomainError("c1 must be > 0")
    if c2 < 0:
        raise DomainError("c2 must be >= 0")
    qc = inv_q(target_bler) * c2
    sqrt_r = (qc + math.sqrt(qc * qc + 4.0 * c1 * info_bits)) / (2.0 * c1)
    return sqrt_r ** 2


def avg_metrics(fit: GammaFit, packet: PacketConfig,
                policy: EvalPolicy = DEFAULT_POLICY) -> AvgMetrics:
    """All averaged metrics for one Gamma fit and packet configuration."""
    c1 = c1_avg_capacity(fit, policy)
    c2 = c2_avg_sqrt_dispersion(fit, policy)
    qi = inv_q(packet.target_bler)
    return AvgMetrics(
        avg_rate=c1 - qi / math.sqrt(packet.blocklength) * c2,
        avg_rate_lb=avg_rate_lower_bound(fit, packet.blocklength,
                                         packet.target_bler, policy),
        avg_bler=avg_bler(fit, packet.blocklength, packet.info_bits),
        avg_blocklength=avg_blocklength(c1, c2, packet.info_bits,
                                        packet.target_bler),
        avg_sqrt_dispersion=c2,
    )
