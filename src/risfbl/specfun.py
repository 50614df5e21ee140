"""
Special-function kernel
=======================
Numerical backend for every closed-form expression in the library:
the Gamma CDF, the Gaussian Q-function and its inverse, and the
confluent hypergeometric Kummer U function (as ln(Gamma(a) U)).

Kummer U is evaluated from its integral representation

    Gamma(a) U(a, b, z) = int_0^inf (1+u)^(b-a-1) u^(a-1) e^(-z u) du

after the log substitution u = e^v, which maps the semi-infinite range
onto the real line where the integrand is a single smooth bump.  The
same kernel integrates the Gamma averages of the rate module.  Each
caller knows the peak of its exponent in closed form and hands it in;
the kernel takes as limits the first outward probes from it where the
integrand has dropped by e^-70, and sums composite 12-point
Gauss-Legendre panels, doubling the node count from 256 until the log
integral moves by less than ``EvalPolicy.rel_tol``.  The kernel takes
one function that returns the log integrands stacked, so one call can
integrate several that share an exponent (a density times several
functions).  The probes run once on the stack.  All the integrands share
one pair of limits, the outermost of their own, and each refinement
builds one grid and evaluates the stack on it once.  Grids are built on
cached ramps with ``np.linspace``'s arithmetic, bit for bit.  All
accumulation is done in the log domain so shape parameters in the
thousands (large-N Gamma fits) do not overflow.
"""

import functools
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
    if not (shape > 0 and rate > 0):
        raise DomainError(f"gamma_cdf requires shape, rate > 0, got {shape}, {rate}")
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
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
# the peak itself, then the probes to its left and to its right
_PROBE_STEPS = np.concatenate(([0.0], -_OFFSETS, _OFFSETS))
_GL12 = np.polynomial.legendre.leggauss(12)


@functools.lru_cache(maxsize=16)  # the grids of this package use eight sizes
def _ramp(num):
    ramp = np.arange(float(num))
    ramp.flags.writeable = False
    return ramp


def _even(start, stop, num):
    """``np.linspace(start, stop, num)`` for num >= 2, bit for bit.

    The same arithmetic on a cached 0, 1, ..., num - 1 ramp: ramp times
    the step, plus the start, with the last point set to the stop.
    """
    out = _ramp(num) * ((stop - start) / (num - 1))
    out += start
    out[-1] = stop
    return out


def _gl_panels(edges):
    """Composite 12-point Gauss-Legendre nodes and weights on panel edges."""
    x, w = _GL12
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _panel_grid(vl, vr, n_points):
    """Composite Gauss-Legendre grid on [vl, vr] (12-point panels)."""
    n_panels = max(4, int(math.ceil(n_points / 12)))
    return _gl_panels(_even(vl, vr, n_panels + 1))


def _log_integral(log_f, policy, v_peak):
    """log int exp(log_f(v)) dv over the real line, per integrand.

    ``log_f(v)`` returns k log integrands stacked, shape (k, *v.shape):
    single bumps that share an exponent, whose peak ``v_peak`` the caller
    knows in closed form.  Returns the tuple of the k log integrals.

    The stack is probed once, at the peak and at ``_OFFSETS`` away from
    it on either side.  Each integrand takes as its top the largest of
    its probed values and falls ``_DROP`` below it at some probe on each
    side; the call integrates all of them between the outermost of those
    probes, so an integrand's own factor may move its bump, but not by
    ``_DROP`` in height at ``v_peak``.  Each refinement builds one grid,
    from 256 nodes doubling up to 4096, and evaluates ``log_f`` on it
    once.  An integral keeps the value of the refinement at which it
    moved by less than ``policy.rel_tol``, and the call ends when all
    have; raises NonConvergenceError if one has not at 4096 nodes.
    """
    # far probes overflow exp inside log_f; they need only compare as small
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f = log_f(v_peak + _PROBE_STEPS)
    top = f.max(axis=1)
    if not np.all(np.isfinite(top)):
        raise NonConvergenceError("integrand peak is not finite")
    below = f[:, 1:].reshape(-1, 2, _OFFSETS.size) < (top - _DROP)[:, None, None]
    below[..., -1] = True  # no drop at any probe: stop at the last one
    reach = _OFFSETS[np.argmax(below, axis=2).max(axis=0)]
    vl, vr = v_peak - reach[0], v_peak + reach[1]

    def attempt(n):
        nodes, weights = _panel_grid(vl, vr, n)
        return np.log(np.exp(log_f(nodes) - top[:, None]) @ weights) + top

    prev = attempt(256)
    out = np.empty_like(prev)
    todo = np.ones(prev.shape, dtype=bool)
    for n in (512, 1024, 2048, 4096):
        cur = attempt(n)
        change = np.abs(cur - prev)
        settled = todo & (change < policy.rel_tol)
        out[settled] = cur[settled]
        todo &= ~settled
        if not todo.any():
            return tuple(out.tolist())
        prev = cur
    raise NonConvergenceError(
        "quadrature failed to converge after refinement "
        f"(last change {change[todo].max():.3e})"
    )


def _softplus(v):
    return np.logaddexp(0.0, v)


def log_gamma_kummer_u(a: float, b: float, z: float,
                       policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """log of Gamma(a) * U(a, b, z) for a > 0, z > 0.

    This log-domain form stays finite for shape parameters far beyond
    the overflow range of Gamma(a) itself.
    """
    if not a > 0:
        raise DomainError(f"kummer_u requires a > 0, got a={a}")
    if not z > 0:
        raise DomainError(f"kummer_u requires z > 0, got z={z}")
    if math.isnan(b):
        raise DomainError("kummer_u requires a real b, got nan")

    # u = e^v:  exponent = a*v - (a - b + 1)*softplus(v) - z*e^v
    def h(v):
        return a * v - (a - b + 1.0) * _softplus(v) - z * np.exp(v)

    # h' = 0 at the one positive root of z u^2 - (b - 1 - z) u - a = 0
    # (the roots multiply to -a/z < 0); the second form avoids cancellation
    p = b - 1.0 - z
    d = math.hypot(p, 2.0 * math.sqrt(a * z))
    u_peak = (p + d) / (2.0 * z) if p > 0 else 2.0 * a / (d - p)
    return _log_integral(lambda v: h(v)[None], policy, math.log(u_peak))[0]
