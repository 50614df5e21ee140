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
integrand has dropped by e^-70 (and raises if no probe on a side has),
and sums composite 12-point
Gauss-Legendre panels, doubling the node count from 256 until the log
integral moves by less than ``EvalPolicy.rel_tol``.  The kernel takes
one function that returns the log integrands stacked, so one call can
integrate several that share an exponent (a density times several
functions).  The probes run once on the stack.  All the integrands share
one pair of limits, the outermost of their own.  The first refinement
step lays the 256- and 512-node grids side by side and evaluates the
stack once on both, since a settled sum needs two sizes; each later
step is one grid.  A grid is a cached, read-only pattern of panels on
[0, 1], scaled onto the limits, and each size's sum is taken from its
own slice of the step's values, so it is the sum that size alone gives.
All accumulation is done in the log domain so shape parameters in the
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


def sinc_norm(x: float) -> float:
    """Normalized sinc: sin(pi x) / (pi x), with sinc_norm(0) = 1."""
    y = math.pi * float(x)
    return math.sin(y) / y if y else 1.0


# ---------------------------------------------------------------------------
# Peak-tracked semi-infinite quadrature (shared by Kummer U and the Gamma
# averages in the rate module).
# ---------------------------------------------------------------------------

_DROP = 70.0  # integrand is followed until exp(h - h_peak) < e^-70
_OFFSETS = 1e-3 * 1.8 ** np.arange(40)  # limit probes, out to 8.8e6 from the peak
# the peak itself, then the probes to its left and to its right
_PROBE_STEPS = np.concatenate(([0.0], -_OFFSETS, _OFFSETS))
# node counts of the refinements, one evaluation of the integrands per step
_STEPS = ((256, 512), (1024,), (2048,), (4096,))
_GL12 = np.polynomial.legendre.leggauss(12)


def _gl_panels(edges):
    """Composite 12-point Gauss-Legendre nodes and weights on panel edges."""
    x, w = _GL12
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


@functools.lru_cache(maxsize=32)  # the grids of this package use 20 keys
def _unit_panels(*n_panels):
    """Read-only ``_gl_panels`` of n even panels on [0, 1] for each n of
    ``n_panels``: the nodes of all the grids, concatenated, then the
    weights of each."""
    grids = [_gl_panels(np.linspace(0.0, 1.0, n + 1)) for n in n_panels]
    out = (np.concatenate([un for un, _ in grids]), *(uw for _, uw in grids))
    for a in out:
        a.flags.writeable = False
    return out


def _panel_grid(vl, vr, *n_points):
    """ceil(n / 12) even 12-point Gauss-Legendre panels on [vl, vr] for
    each n of ``n_points``: the nodes of all the grids, concatenated, then
    the weights of each."""
    un, *uws = _unit_panels(*(-(-n // 12) for n in n_points))
    return (un * (vr - vl) + vl, *(uw * (vr - vl) for uw in uws))


def _log_sums(log_f, top, vl, vr):
    """Per refinement of ``_STEPS``, the list of the stack's log integrals
    on [vl, vr], each summed as exp(log_f - top) and shifted back by top.

    Each step evaluates ``log_f`` once, on the nodes of all its grids,
    and each grid's sum is taken from its own slice of that evaluation.
    """
    shift = top[:, None]
    for n_points in _STEPS:
        nodes, *weights = _panel_grid(vl, vr, *n_points)
        f = log_f(nodes)
        end = 0
        for w in weights:
            yield (np.log(np.exp(f[:, end:end + w.size] - shift) @ w) + top).tolist()
            end += w.size


def _log_integral(log_f, policy, v_peak):
    """log int exp(log_f(v)) dv over the real line, per integrand.

    ``log_f(v)`` returns k log integrands stacked, shape (k, *v.shape):
    single bumps that share an exponent, whose peak ``v_peak`` the caller
    knows in closed form.  Returns the tuple of the k log integrals.

    The stack is probed once, at the peak and at ``_OFFSETS`` away from
    it on either side, 1e-3 to 8.8e6 in v.  To the right that is far past
    where an exponent's ``exp`` overflows; a left tail exp(a v) falls by
    ``_DROP`` only 70/a from the peak, past the last probe for a < 8e-6.
    Each integrand takes as its top the largest of its probed values and
    must fall ``_DROP`` below it at some probe on each side, or the call
    raises NonConvergenceError; it integrates all of them between the
    outermost of those probes, so an integrand's own factor may move its
    bump, but not by ``_DROP`` in height at ``v_peak``.  The refinements
    run from 256 nodes doubling up to 4096 (``_log_sums``): the 256- and
    512-node grids share one evaluation of ``log_f``, each larger grid
    has one of its own.  An integral keeps the value of the refinement
    at which it moved by less than ``policy.rel_tol``, and the call ends
    when all have; raises NonConvergenceError if one has not at 4096
    nodes.
    """
    # far probes overflow exp inside log_f; they need only compare as small
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f = log_f(v_peak + _PROBE_STEPS)
    top = f.max(axis=1)
    if not all(map(math.isfinite, top.tolist())):
        raise NonConvergenceError("integrand peak is not finite")
    # per integrand, left then right side: the first probe _DROP below top
    below = (f[:, 1:] < (top - _DROP)[:, None]).tolist()
    n_off = _OFFSETS.size
    try:
        left = max(row.index(True, 0, n_off) for row in below)
        right = max(row.index(True, n_off) for row in below) - n_off
    except ValueError:
        raise NonConvergenceError(
            "integrand does not drop by e^-70 within the probes") from None
    vl, vr = v_peak - _OFFSETS[left], v_peak + _OFFSETS[right]

    out = [None] * len(top)
    prev = None
    for cur in _log_sums(log_f, top, vl, vr):
        if prev is not None:
            change = [abs(c - p) for c, p in zip(cur, prev)]
            for i, d in enumerate(change):
                if out[i] is None and d < policy.rel_tol:
                    out[i] = cur[i]
            if None not in out:
                return tuple(out)
        prev = cur
    last = max(d for d, o in zip(change, out) if o is None)
    raise NonConvergenceError(
        f"quadrature failed to converge after refinement (last change {last:.3e})")


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
