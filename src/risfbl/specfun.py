"""
Special-function kernel
=======================
Numerical backend for every closed-form expression in the library:
the Gamma CDF, the Gaussian Q-function and its inverse, and the
confluent hypergeometric Kummer U function.

Kummer U is evaluated from its integral representation

    Gamma(a) U(a, b, z) = int_0^inf (1+u)^(b-a-1) u^(a-1) e^(-z u) du

after the log substitution u = e^v, which maps the semi-infinite range
onto the real line where the integrand is a single smooth bump.  The
same kernel integrates the Gamma averages of the rate module.  It scans
the exponent on a fixed grid and zooms in on its maximum a few times,
takes as limits the first outward probes where the integrand has dropped
by e^-70, and sums composite 12-point Gauss-Legendre panels, doubling
the node count from 256 until the log integral moves by less than
``EvalPolicy.rel_tol``.  One call can integrate several integrands that
share an exponent (a density times several functions): the scan, zoom
and probes run once on the shared exponent, and each integrand takes its
own limits from the probes and its own panels.  Every step evaluates the
exponent on whole arrays.  All accumulation is done in the log domain so shape parameters
in the thousands (large-N Gamma fits) do not overflow.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class NonConvergenceError(RuntimeError):
    """A quadrature refinement failed to settle."""


@dataclass(frozen=True)
class EvalPolicy:
    """Tolerance of the peak-tracked quadrature behind Kummer U and C1/C2.

    The node count starts at 256 and is doubled until the log integral
    moves by less than ``rel_tol``.
    """

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError("rel_tol must lie in (0, 1)")


DEFAULT_POLICY = EvalPolicy()

LOG2E = math.log2(math.e)
_SQRT2 = math.sqrt(2.0)


def gamma_cdf(shape: float, rate: float, x) -> float:
    """CDF of Gamma(shape, rate) at x; vectorizes over x."""
    if shape <= 0 or rate <= 0:
        raise DomainError(f"gamma_cdf requires shape, rate > 0, got {shape}, {rate}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("gamma_cdf requires x >= 0")
    out = sp.gammainc(shape, rate * x)
    return float(out) if out.ndim == 0 else out


def q_function(x):
    """Gaussian tail probability Q(x) = P(Z > x); vectorized."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * sp.erfc(x / _SQRT2)
    return float(out) if out.ndim == 0 else out


def inv_q(p: float) -> float:
    """Inverse of the Q-function, -Phi^-1(p), by scipy's ndtri.

    Accurate to a few ulp over all of (0, 1), down to subnormal p.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"inv_q requires p in (0, 1), got {p}")
    return float(-sp.ndtri(p))


def sinc_norm(x):
    """Normalized sinc: sin(pi x) / (pi x), with sinc_norm(0) = 1."""
    out = np.sinc(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Peak-tracked semi-infinite quadrature (shared by Kummer U and the Gamma
# averages in the rate module).
# ---------------------------------------------------------------------------

_DROP = 70.0  # integrand is followed until exp(h - h_peak) < e^-70
_OFFSETS = 1e-3 * 1.8 ** np.arange(200)  # limit probes, outward from the peak
_GL12 = np.polynomial.legendre.leggauss(12)


def _log_one(v):  # log g for g = 1: the integrand exp(h) alone
    return 0.0


def _panel_grid(vl, vr, n_points):
    """Composite Gauss-Legendre grid on [vl, vr] (12-point panels)."""
    n_panels = max(4, int(math.ceil(n_points / 12)))
    edges = np.linspace(vl, vr, n_panels + 1)
    x, w = _GL12
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _log_integral(h, policy, v_guess, *log_gs):
    """log of int exp(h(v)) dv over the real line for a single-bump exponent.

    The peak of h is searched on [-80, 80] and more finely within +-5 of
    ``v_guess``, then zoomed in on; each limit is the first of
    ``_OFFSETS`` away from the peak where h is ``_DROP`` below it.
    Returns the log integral; raises NonConvergenceError if doubling the
    node count from 256 still moves the result by more than rel_tol.

    With ``log_gs``, returns instead the tuple of log int exp(h + log_g)
    dv, one per ``log_g``.  The search and the probes run once, on h
    alone.  Each integrand takes as its peak the largest of its values at
    the peak of h and at the probes, as limits the first probes where it
    is ``_DROP`` below that, and its own grid; so a log_g may move the
    bump, but not by ``_DROP`` in height at the peak of h.  An integral
    stops refining once it has settled, and the call ends when all have.
    """
    v = np.unique(np.concatenate([
        np.linspace(-80.0, 80.0, 321),
        np.linspace(v_guess - 5.0, v_guess + 5.0, 41),
    ]))
    vals = h(v)
    # a single-peaked h peaks within a cell of the grid maximum; four
    # 129-point passes shrink that cell from 0.5 to 3e-8, where a peak in
    # the hundreds is flat to double precision
    for _ in range(4):
        i = int(np.argmax(vals))
        v = np.linspace(v[max(i - 1, 0)], v[min(i + 1, v.size - 1)], 129)
        vals = h(v)
    i = int(np.argmax(vals))
    v_peak, h_peak = v[i], vals[i]
    if not np.isfinite(h_peak):
        raise NonConvergenceError("integrand peak is not finite")
    signs = np.array([-1.0, 1.0])
    probes = v_peak + signs[:, None] * _OFFSETS
    # far probes overflow exp inside h; they need only compare as small
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        h_probes = h(probes)
        terms = []  # (log g, peak estimate, limits) per integrand
        for log_g in log_gs or (_log_one,):
            f = h_probes + log_g(probes)
            top = max(h_peak + log_g(v_peak), f.max())
            below = f < top - _DROP
            below[:, -1] = True  # no drop at any probe: stop at the last one
            terms.append((log_g, top,
                          v_peak + signs * _OFFSETS[np.argmax(below, axis=1)]))

    def attempt(log_g, top, limits, n):
        nodes, weights = _panel_grid(*limits, n)
        vals = np.exp(h(nodes) + log_g(nodes) - top)
        return math.log(float(np.sum(weights * vals))) + top

    prev = [attempt(*term, 256) for term in terms]
    done = [None] * len(terms)
    for n in (512, 1024, 2048, 4096):
        changes = []
        for k, term in enumerate(terms):
            if done[k] is None:
                cur = attempt(*term, n)
                if abs(cur - prev[k]) < policy.rel_tol:
                    done[k] = cur
                else:
                    changes.append(abs(cur - prev[k]))
                prev[k] = cur
        if not changes:
            return tuple(done) if log_gs else done[0]
    raise NonConvergenceError(
        "quadrature failed to converge after refinement "
        f"(last change {max(changes):.3e})"
    )


def _softplus(v):
    return np.logaddexp(0.0, v)


def log_gamma_kummer_u(a: float, b: float, z: float,
                       policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """log of Gamma(a) * U(a, b, z) for a > 0, z > 0.

    This log-domain form stays finite for shape parameters far beyond
    the overflow range of Gamma(a) itself.
    """
    if a <= 0:
        raise DomainError(f"kummer_u requires a > 0, got a={a}")
    if z <= 0:
        raise DomainError(f"kummer_u requires z > 0, got z={z}")

    # u = e^v:  exponent = a*v - (a - b + 1)*softplus(v) - z*e^v
    def h(v):
        return a * v - (a - b + 1.0) * _softplus(v) - z * np.exp(v)

    # Peak is near min(a/z, ...) in u; seed the scan around both regimes.
    return _log_integral(h, policy, math.log(max(a, 1.0) / z))


def kummer_u(a: float, b: float, z: float,
             policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Confluent hypergeometric Kummer U(a, b, z) via adaptive quadrature."""
    return math.exp(log_gamma_kummer_u(a, b, z, policy) - sp.gammaln(a))

