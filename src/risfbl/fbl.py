"""
Finite-blocklength metrics
==========================
Instantaneous normal-approximation quantities (rate, block error
probability, blocklength) and their averages over the Gamma-fitted SNR:

  * exact average rate from the capacity term C1 = E[log2(1 + gamma)]
    and the dispersion term C2 = E[sqrt(V(gamma))],
  * the Jensen-type closed-form lower bound,
  * the linearized-Q closed form for the average BLER, guarded against
    cancellation by its by-parts integral over the Gamma CDF,
  * the average blocklength as the positive root of the rate equation.

The paper writes C1 and C2 as infinite Kummer-U series and the lower
bound through e^beta E_alpha(beta).  Here all three Gamma averages behind
them are integrated directly against the Gamma density in
w = ln(rate * gamma), in one call of the peak-tracked quadrature of
``specfun`` (the kernel that also evaluates Kummer U), and cached per
fit.  The three share one pair of limits and one grid per refinement,
on which ln(1 + gamma) is computed once.  Integrands are assembled in
the log domain, so shape parameters in the thousands do not overflow.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .specfun import (
    DEFAULT_POLICY,
    LOG2E,
    DomainError,
    EvalPolicy,
    _even,
    _gl_panels,
    _log_integral,
    _softplus,
    inv_q,
    q_function,
)
from .specfun import log_gamma_kummer_u  # noqa: F401  traced by name (ROADMAP item 1)
from .channel import GammaFit

_LN2 = math.log(2.0)
_REF_PANELS = 54  # of the average-BLER reference, 648 nodes
_STEP_SDS = 12.0  # half width of the Gamma CDF's step, in sds


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
    # V = 0 (gamma below ~1e-16) gives f = -inf, and Q(-inf) is exactly 1
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.sqrt(blocklength / dispersion(g)) * (
            capacity(g) - info_bits / blocklength)
    return q_function(f)


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

@functools.lru_cache(maxsize=32)
def _gamma_averages(fit: GammaFit, policy: EvalPolicy):
    """(E[ln(1 + gamma)], E[sqrt(1 - (1+gamma)^-2)], E[1 - (1+gamma)^-2]).

    gamma ~ Gamma(shape, rate).  In w = ln(rate * gamma) the density is
    exp(shape w - e^w - lnGamma(shape)) dw, and the three log-integrands,
    stacked from one softplus(w - ln rate) = ln(1 + gamma) per grid, are
    integrated against it in one kernel call.  The last few fits are
    cached, so C1, C2 and the lower bound of one fit cost one quadrature.
    The third average is taken as 1 - (1+gamma)^-2 rather than
    (1+gamma)^-2, whose integrand keeps the density's left tail: at
    shape 0.05 that tail spans thousands in w and 4096 nodes do not
    settle it.
    """
    alpha = fit.shape
    lnb = math.log(fit.rate)
    lg = sp.gammaln(alpha)

    def log_f(w):
        h = alpha * w - np.exp(w) - lg  # the log density
        ln_1p_gamma = _softplus(w - lnb)
        ln_disp = np.log(-np.expm1(-2.0 * ln_1p_gamma))  # ln(1 - (1+gamma)^-2)
        return h + np.stack((np.log(ln_1p_gamma), 0.5 * ln_disp, ln_disp))

    # the density peaks at w = ln(shape)
    logs = _log_integral(log_f, policy, math.log(alpha))
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
    c1 = c1_avg_capacity(fit, policy)
    c2 = c2_avg_sqrt_dispersion(fit, policy)
    return c1 - inv_q(target_bler) / math.sqrt(blocklength) * c2


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
    a, b = fit.shape, fit.rate
    c1_lb = math.log2(1.0 + a * a / (b * (a + 1.0)))
    c2_ub = (1.0 + _gamma_averages(fit, policy)[2]) / (2.0 * _LN2)
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
    """Average of the surrogate by parts, as one integral over its ramp.

    The surrogate is continuous, 1 below kappa0, 0 above kappa1 and of
    slope xi0 < 0 between, so its Gamma average is
    -xi0 int_kappa0^kappa1 P(shape, rate u) du: one positive integral of
    the Gamma CDF, with no subtraction and no density endpoint
    singularity at any shape.  It is summed on 54 composite 12-point
    Gauss-Legendre panels, even over the ramp while P's step, mean
    +- ``_STEP_SDS`` sd (sd = mean / sqrt(shape)), is wider than the
    ramp.  A narrower step, which even panels would not resolve at
    large shape, gets all the panels but one for each flat end of the
    ramp, centred on the mean clipped to the ramp: beyond its
    ``_STEP_SDS`` sd P is 0 or 1 to within the Gamma's tail that far
    out, below 1e-19 from shape 100 up.
    """
    k0, k1 = lin.kappa0, lin.kappa1
    half = _STEP_SDS * fit.mean / math.sqrt(fit.shape)
    if 2.0 * half < k1 - k0:
        mid = min(max(fit.mean, k0), k1)
        lo, hi = max(mid - half, k0), min(mid + half, k1)
        edges = [_even(lo, hi, _REF_PANELS + 1 - (lo > k0) - (hi < k1))]
        if lo > k0:
            edges.insert(0, [k0])
        if hi < k1:
            edges.append([k1])
        edges = np.concatenate(edges)
    else:
        edges = _even(k0, k1, _REF_PANELS + 1)
    un, uw = _gl_panels(edges)
    val = -lin.xi0 * float(np.sum(uw * sp.gammainc(fit.shape, fit.rate * un)))
    return min(val, 1.0)  # val >= 0: -xi0 > 0 and P >= 0


@dataclass(frozen=True)
class AvgBlerResult:
    value: float
    closed_form: float
    reference: float
    flagged: bool


def avg_bler_detail(fit: GammaFit, blocklength: int,
                    info_bits: int) -> AvgBlerResult:
    """Average BLER with the closed-form / reference cancellation guard.

    If the incomplete-gamma closed form and the by-parts reference
    integral disagree by more than 1e-6 relative, the reference value
    wins and the result is flagged.
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
    if not c1 > 0:
        raise DomainError("c1 must be > 0")
    if not c2 >= 0:
        raise DomainError("c2 must be >= 0")
    qc = inv_q(target_bler) * c2
    sqrt_r = (qc + math.sqrt(qc * qc + 4.0 * c1 * info_bits)) / (2.0 * c1)
    return sqrt_r ** 2

