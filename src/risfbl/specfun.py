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
peak is located numerically, bracketed down to a negligible level, and
integrated with composite Gauss-Legendre panels with one refinement
pass as a convergence check.  All accumulation is done in the log
domain so shape parameters in the thousands (large-N Gamma fits) do
not overflow.
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
    """Knobs of the peak-tracked quadrature behind Kummer U and C1/C2.

    ``quadrature_points`` is the starting node count; it is doubled until
    the log integral moves by less than ``rel_tol``.
    """

    rel_tol: float = 1e-10
    quadrature_points: int = 256

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError("rel_tol must lie in (0, 1)")
        if self.quadrature_points < 16:
            raise DomainError("quadrature_points must be >= 16")


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


def _normal_pdf(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def inv_q(p: float) -> float:
    """Inverse of the Q-function, accurate down to p ~ 1e-12.

    A rational-approximation seed (erfcinv) is polished with Newton steps
    on q_function so that q_function(inv_q(p)) = p to ~1e-12 relative.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"inv_q requires p in (0, 1), got {p}")
    x = _SQRT2 * float(sp.erfcinv(2.0 * p))
    for _ in range(2):
        f = q_function(x) - p
        d = _normal_pdf(x)
        if d == 0.0:
            break
        x += f / d  # Q'(x) = -pdf(x)
    return float(x)


def sinc_norm(x):
    """Normalized sinc: sin(pi x) / (pi x), with sinc_norm(0) = 1."""
    out = np.sinc(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Peak-tracked semi-infinite quadrature (shared by Kummer U and the Gamma
# averages in the rate module).
# ---------------------------------------------------------------------------

_DROP = 70.0  # integrand is followed until exp(h - h_peak) < e^-70


def _find_peak(h, v_candidates):
    """Coarse-scan + golden-section argmax of a vectorized exponent h(v)."""
    vals = h(v_candidates)
    i = int(np.argmax(vals))
    lo = v_candidates[max(i - 1, 0)]
    hi = v_candidates[min(i + 1, len(v_candidates) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = h(np.array([c]))[0]
    fd = h(np.array([d]))[0]
    for _ in range(80):
        if b - a < 1e-12 * (1.0 + abs(a)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = h(np.array([c]))[0]
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = h(np.array([d]))[0]
    return 0.5 * (a + b)


def _bracket(h, v_peak, h_peak):
    """Expand from the peak until h drops _DROP below its maximum."""
    edges = []
    for sign in (-1.0, 1.0):
        step = 1e-3
        v = v_peak
        for _ in range(200):
            v = v_peak + sign * step
            if h(np.array([v]))[0] < h_peak - _DROP:
                break
            step *= 1.8
        edges.append(v)
    return edges[0], edges[1]


_gl_cache = {}


def _gl_nodes(n):
    if n not in _gl_cache:
        _gl_cache[n] = np.polynomial.legendre.leggauss(n)
    return _gl_cache[n]


def _panel_grid(vl, vr, n_points):
    """Composite Gauss-Legendre grid on [vl, vr] (12-point panels)."""
    order = 12
    n_panels = max(4, int(math.ceil(n_points / order)))
    edges = np.linspace(vl, vr, n_panels + 1)
    x, w = _gl_nodes(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _log_integral(h, policy, v_guess):
    """log of int exp(h(v)) dv over the real line for a single-bump exponent.

    The peak is searched on [-80, 80] and more finely within +-5 of
    ``v_guess``.  Returns the log integral; raises NonConvergenceError if
    doubling the node count still moves the result by more than rel_tol.
    """
    v_hint = np.unique(np.concatenate([
        np.linspace(-80.0, 80.0, 321),
        np.linspace(v_guess - 5.0, v_guess + 5.0, 41),
    ]))
    v_peak = _find_peak(h, v_hint)
    h_peak = h(np.array([v_peak]))[0]
    if not np.isfinite(h_peak):
        raise NonConvergenceError("integrand peak is not finite")
    vl, vr = _bracket(h, v_peak, h_peak)

    def attempt(n):
        nodes, weights = _panel_grid(vl, vr, n)
        vals = np.exp(h(nodes) - h_peak)
        return math.log(float(np.sum(weights * vals))) + h_peak

    n = policy.quadrature_points
    prev = attempt(n)
    for _ in range(4):
        n *= 2
        cur = attempt(n)
        change = abs(cur - prev)
        if change < policy.rel_tol:
            return cur
        prev = cur
    raise NonConvergenceError(
        "quadrature failed to converge after refinement "
        f"(last change {change:.3e})"
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

