"""
Finite-blocklength metrics
==========================
Normal-approximation rate, block error probability and blocklength
(Polyanskiy, Poor and Verdu, IEEE Trans. IT 2010), each written once per
sample in C and sqrt(V) of one ln(1 + gamma), so accurate down to the
smallest gamma > 0, and shared by the Gamma averages and the Monte Carlo
of ``montecarlo.mc_avg_metrics``.  Averages over the Gamma fit:

  * exact average rate from the capacity term C1 = E[log2(1 + gamma)]
    and the dispersion term C2 = E[sqrt(V(gamma))],
  * the Jensen-type closed-form lower bound,
  * the linearized-Q closed form for the average BLER, guarded against
    cancellation by its by-parts integral over the Gamma CDF,
  * the average blocklength as the positive root at C1 and C2.

The paper writes C1 and C2 as infinite Kummer-U series and the lower
bound through e^beta E_alpha(beta).  Here all three Gamma averages behind
them are integrated directly against the Gamma density in
t = ln(gamma / mean), in one call of the peak-tracked quadrature of
``specfun`` (the kernel that also evaluates Kummer U), and cached per
fit.  The three share one pair of limits and one evaluation per
refinement, on which ln(1 + gamma) is computed once.  Integrands are
assembled in the log domain, so shape parameters in the thousands do
not overflow.  The by-parts BLER integral is settled by the same nested
trapezoidal rule of ``specfun``, after a tanh-sinh map of its ramp
(Takahasi and Mori, Publ. RIMS 1974); this module builds no grid of its
own.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .specfun import (
    DEFAULT_POLICY,
    LOG2E,
    DomainError,
    EvalPolicy,
    _check_gammainc_shape,
    _log_integral,
    _settled_sums,
    _softplus,
    inv_q,
    q_function,
)
from .specfun import log_gamma_kummer_u  # noqa: F401  traced by name (ROADMAP item 3)
from .channel import GammaFit

_LN2 = math.log(2.0)
_TANH_SINH_T = 3.5  # the average-BLER reference's range in t


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _check_blocklength(blocklength) -> None:
    """Raise DomainError below the normal approximation's domain, r >= 100."""
    if not blocklength >= 100:
        raise DomainError("normal approximation needs blocklength >= 100")


def _check_info_bits(info_bits) -> None:
    """Raise DomainError for a packet of fewer than one information bit."""
    if not info_bits >= 1:
        raise DomainError("info_bits must be >= 1")


def _check_target_bler(target_bler) -> None:
    """Raise DomainError for a reliability target outside (0, 0.5]."""
    if not 0.0 < target_bler <= 0.5:
        raise DomainError("target_bler must lie in (0, 0.5]")


@dataclass(frozen=True)
class PacketConfig:
    """Short-packet parameters: payload bits, channel uses, reliability target."""

    info_bits: int = 240
    blocklength: int = 300
    target_bler: float = 1e-9

    def __post_init__(self):
        _check_info_bits(self.info_bits)
        _check_blocklength(self.blocklength)
        _check_target_bler(self.target_bler)


@dataclass(frozen=True)
class LinearizationParams:
    """Parameters of the piecewise-linear surrogate for Q(f(gamma, r, L))."""

    xi0: float
    xi1: float
    kappa0: float
    kappa1: float


# ---------------------------------------------------------------------------
# Per-sample forms in (C, sqrt(V)), vectorized
# ---------------------------------------------------------------------------

def _capacity_sqrt_dispersion(gamma):
    """(C, sqrt(V)) of gamma from one ln(1 + gamma)."""
    ln_1p_gamma = np.log1p(np.asarray(gamma, dtype=float))
    return ln_1p_gamma / _LN2, LOG2E * np.sqrt(-np.expm1(-2.0 * ln_1p_gamma))


def _rate(c, sqrt_v, blocklength, target_bler):
    """Normal-approximation rate C - Q^-1(eps) sqrt(V / r), O(log r / r) dropped."""
    return c - inv_q(target_bler) / math.sqrt(blocklength) * sqrt_v


def _bler(c, sqrt_v, blocklength, info_bits):
    """Decoding error probability Q(sqrt(r / V) (C - L/r))."""
    # V = 0 only at gamma = 0, where f = -inf and Q(-inf) is exactly 1
    with np.errstate(divide="ignore"):
        f = math.sqrt(blocklength) * (c - info_bits / blocklength) / sqrt_v
    return q_function(f)


def _blocklength(c, sqrt_v, info_bits, target_bler):
    """Positive root r of C r - Q^-1(eps) sqrt(V r) - L = 0, in closed form."""
    qs = inv_q(target_bler) * sqrt_v
    return ((qs + np.sqrt(qs * qs + 4.0 * c * info_bits)) / (2.0 * c)) ** 2


# ---------------------------------------------------------------------------
# Gamma averages C1 / C2
# ---------------------------------------------------------------------------

# Binet's series of lnGamma(a) - ((a - 1/2) ln a - a + ln(2 pi) / 2), whose
# terms B_2k / (2k (2k - 1) a^(2k-1)) fall below 1e-15 from a = 10 up
_BINET = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _log_density_peak(alpha: float) -> float:
    """c(alpha) = alpha ln alpha - alpha - lnGamma(alpha), the log of the
    Gamma density in t = ln(gamma / mean) at its peak t = 0.

    From shape 10 up it is taken as ln(alpha / 2 pi) / 2 minus Binet's
    series, without the three terms of size alpha ln alpha that cancel.
    """
    if alpha < 10.0:
        return alpha * math.log(alpha) - alpha - math.lgamma(alpha)
    x = 1.0 / (alpha * alpha)
    binet = 0.0
    for coeff in reversed(_BINET):
        binet = binet * x + coeff
    return 0.5 * math.log(alpha / (2.0 * math.pi)) - binet / alpha


@functools.lru_cache(maxsize=32)
def _gamma_averages(fit: GammaFit, policy: EvalPolicy):
    """(E[ln(1 + gamma)], E[sqrt(1 - (1+gamma)^-2)], E[1 - (1+gamma)^-2]).

    gamma ~ Gamma(shape, rate).  In t = ln(gamma / mean) the density is
    exp(shape (t - expm1 t) + c(shape)) dt, peaked at t = 0 (see
    ``_log_density_peak``), so no node carries a rounding error that
    grows with the shape.  The three log-integrands, stacked from one
    softplus(t + ln mean) = ln(1 + gamma) per grid, are integrated
    against it in one kernel call.  The last few fits are cached, so C1,
    C2 and the lower bound of one fit cost one quadrature.  The third
    average is taken as 1 - (1+gamma)^-2 rather than (1+gamma)^-2, whose
    integrand keeps the density's left tail: at shape 0.05 that tail
    spans 1400 in t, and at mean 0.01 6144 intervals do not settle it.
    """
    alpha = fit.shape
    ln_mean = math.log(alpha) - math.log(fit.rate)
    c = _log_density_peak(alpha)

    def log_f(t):
        out = np.empty((3,) + t.shape)
        ln_1p_gamma = _softplus(t + ln_mean)
        np.log(ln_1p_gamma, out=out[0])
        np.log(-np.expm1(-2.0 * ln_1p_gamma), out=out[2])  # ln(1 - (1+gamma)^-2)
        np.multiply(out[2], 0.5, out=out[1])
        out += alpha * (t - np.expm1(t)) + c  # the log density
        return out

    logs = _log_integral(log_f, policy, 0.0)
    return tuple(math.exp(x) for x in logs)


def c1_avg_capacity(fit: GammaFit, policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Average Shannon capacity E[log2(1 + gamma)]."""
    return _gamma_averages(fit, policy)[0] / _LN2


def c2_avg_sqrt_dispersion(fit: GammaFit,
                           policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Average sqrt-dispersion E[sqrt(V(gamma))]."""
    return min(_gamma_averages(fit, policy)[1] / _LN2, LOG2E)


def avg_rate_exact(fit: GammaFit, blocklength: int, target_bler: float,
                   policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Exact average achievable rate C1 - Q^-1(eps) C2 / sqrt(r)."""
    _check_blocklength(blocklength)
    return _rate(c1_avg_capacity(fit, policy),
                 c2_avg_sqrt_dispersion(fit, policy), blocklength, target_bler)


def avg_rate_lower_bound(fit: GammaFit, blocklength: int,
                         target_bler: float,
                         policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Closed-form lower bound on the average rate.

    Capacity term by Jensen's inequality, dispersion term by the one-term
    binomial approximation sqrt(1 - x) <= 1 - x/2 with x = (1+gamma)^-2.
    E[(1+gamma)^-2], which the paper writes through e^beta E_alpha(beta),
    is read from the fit's shared Gamma averages as 1 - E[1 - (1+gamma)^-2],
    so the dispersion factor is (1 + E[1 - (1+gamma)^-2]) / (2 ln 2).
    """
    _check_blocklength(blocklength)
    a, b = fit.shape, fit.rate
    c1_lb = math.log2(1.0 + a * a / (b * (a + 1.0)))
    c2_ub = (1.0 + _gamma_averages(fit, policy)[2]) / (2.0 * _LN2)
    return _rate(c1_lb, c2_ub, blocklength, target_bler)


# ---------------------------------------------------------------------------
# Average error probability
# ---------------------------------------------------------------------------

def linearization_params(blocklength: int, info_bits: int) -> LinearizationParams:
    """Slope/threshold parameters of the linearized Q approximation."""
    _check_blocklength(blocklength)
    _check_info_bits(info_bits)
    ratio = info_bits / blocklength
    xi1 = 2.0 ** ratio - 1.0
    xi0 = -math.sqrt(blocklength / (2.0 * math.pi * (2.0 ** (2.0 * ratio) - 1.0)))
    kappa0 = xi1 + 1.0 / (2.0 * xi0)
    kappa1 = xi1 - 1.0 / (2.0 * xi0)
    if kappa0 <= 0:
        raise DomainError(
            f"linearized-Q approximation invalid: kappa0 = {kappa0:.4g} <= 0")
    return LinearizationParams(xi0=xi0, xi1=xi1, kappa0=kappa0, kappa1=kappa1)


def _avg_bler_closed(fit: GammaFit, lin: LinearizationParams) -> float:
    a, b = fit.shape, fit.rate
    k0, k1, xi0 = lin.kappa0, lin.kappa1, lin.xi0
    # Python floats: an infinite a / b times a zero difference gives nan
    # without a warning, and the guard flags it
    p0, p1, p0s, p1s = specfun.sp.gammainc(
        [a, a, a + 1.0, a + 1.0], [k0 * b, k1 * b, k0 * b, k1 * b]).tolist()
    val = xi0 * (k0 * p0 - k1 * p1 + (a / b) * (p1s - p0s))
    return min(max(val, 0.0), 1.0) + 0.0


def _avg_bler_reference(fit: GammaFit, lin: LinearizationParams) -> float:
    """Average of the surrogate by parts, as one integral over its ramp.

    The surrogate is continuous, 1 below kappa0, 0 above kappa1 and of
    slope xi0 < 0 between, so its Gamma average is
    -xi0 int_kappa0^kappa1 P(shape, rate u) du: one positive integral of
    the Gamma CDF, with no subtraction and no density endpoint
    singularity at any shape.  The ramp is mapped by tanh-sinh,
    u = mid + half tanh((pi/2) sinh t) for t in [-3.5, 3.5], past which
    the map's weight is below 2e-21 of its peak, and the integral in t is
    settled by ``specfun._settled_sums`` to 1e-8 relative, 100x below
    the guard's 1e-6.  Raises NonConvergenceError, naming the last
    interval count tried, if it has not settled at the finest grid.
    """
    mid = 0.5 * (lin.kappa0 + lin.kappa1)
    half = 0.5 * (lin.kappa1 - lin.kappa0)
    a, b = fit.shape, fit.rate

    def integrand(t):
        s = (0.5 * math.pi) * np.sinh(t)
        du = (0.5 * math.pi * half) * np.cosh(t) / np.cosh(s) ** 2
        p = specfun.sp.gammainc(a, b * mid + (b * half) * np.tanh(s))
        return (p * du)[None]

    (total,) = _settled_sums(integrand, -_TANH_SINH_T, _TANH_SINH_T, 1e-8,
                             "average-BLER reference")
    return min(-lin.xi0 * total, 1.0)  # >= 0: -xi0 > 0 and P >= 0


@dataclass(frozen=True)
class AvgBlerResult:
    value: float
    closed_form: float
    reference: float
    flagged: bool


def avg_bler_detail(fit: GammaFit, blocklength: int,
                    info_bits: int) -> AvgBlerResult:
    """Average BLER with the closed-form / reference cancellation guard.

    If the incomplete-gamma closed form is not finite, or it and the
    by-parts reference integral disagree by more than 1e-6 relative, the
    reference value wins and the result is flagged.  Both forms use the
    incomplete gamma function, so the fit's shape must be at most 1e5.
    """
    lin = linearization_params(blocklength, info_bits)
    _check_gammainc_shape(fit.shape)
    closed = _avg_bler_closed(fit, lin)
    ref = _avg_bler_reference(fit, lin)
    scale = max(abs(ref), 1e-300)
    flagged = not abs(closed - ref) <= 1e-6 * scale  # nan: flagged
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
    """Positive root of c1 r - Q^-1(eps) c2 sqrt(r) - L = 0."""
    if not c1 > 0:
        raise DomainError("c1 must be > 0")
    if not c2 >= 0:
        raise DomainError("c2 must be >= 0")
    _check_info_bits(info_bits)
    return float(_blocklength(c1, c2, info_bits, target_bler))

