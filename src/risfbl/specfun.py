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
integrand has dropped by e^-70 (and raises if no probe on a side has).
The kernel takes one function that returns the log integrands stacked,
so one call can integrate several that share an exponent (a density
times several functions).  The probes run once on the stack.  All the
integrands share one pair of limits, the outermost of their own.

This module is the only one that knows the quadrature rule, the nested
trapezoidal rule.  ``_settled_sums`` halves its step until every sum of
the stack is within a relative tolerance of its previous one; each halving
evaluates only the new midpoints, as the coarse grid's nodes are the fine
grid's even ones.  On a smooth integrand that has vanished at both limits
the rule converges exponentially (Trefethen and Weideman, SIAM Review
2014).  The kernel runs it on exp(log integrand - top) and takes the log
of the settled sums, and ``fbl``'s average-BLER reference runs it on the
Gamma CDF over its ramp after a tanh-sinh map.  Integrands are assembled
in the log domain and summed below their top, so shape parameters in the
thousands (large-N Gamma fits) do not overflow.

This is the only module that names ``scipy.special``, as ``sp``, and it
imports it on the first attribute read, so ``import risfbl`` and the
commands that evaluate no special function do not pay for its import.
"""

import math
from dataclasses import dataclass

import numpy as np


class _LazySpecial:
    """Stands in for ``scipy.special`` as ``sp`` until an attribute is
    read, then imports it and rebinds ``sp`` to it, so every later read
    is a plain module attribute lookup."""

    def __getattr__(self, name):
        global sp
        from scipy import special
        sp = special
        return getattr(special, name)


sp = _LazySpecial()


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class NonConvergenceError(RuntimeError):
    """A quadrature or the element search did not reach its target."""


@dataclass(frozen=True)
class EvalPolicy:
    """Tolerance of the peak-tracked quadrature behind Kummer U and C1/C2.

    The trapezoidal sums start at 48 and 96 intervals (97 nodes) and halve
    the step up to 6144 intervals until every sum of the stack, of an
    integrand over its top, changes by at most ``rel_tol`` relative to its
    new value at one step, about the change of its log integral; every
    caller defaults to 1e-9.
    """

    rel_tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError("rel_tol must lie in (0, 1)")


DEFAULT_POLICY = EvalPolicy()

LOG2E = math.log2(math.e)
_SQRT2 = math.sqrt(2.0)


# scipy's gammainc (1.17) jumps at x = a - 4.5 sqrt(a) from shape ~2.1e5
# up and is too small below that point: scanned against mpmath at
# x = a (1 + t / sqrt(a)), t in -14..14, it is 1e-13 off at shape 2.1e5,
# 2.6e-12 at 2.5e5 and 1e-5 at 1e6, and within 5e-14 from 3e3 to 2e5
_GAMMAINC_MAX_SHAPE = 1e5


def _check_gammainc_shape(shape: float) -> None:
    """Raise DomainError above the shapes where P(shape, x) is trusted."""
    if not shape <= _GAMMAINC_MAX_SHAPE:
        raise DomainError(f"the incomplete gamma function needs shape <= "
                          f"{_GAMMAINC_MAX_SHAPE:g}, got {shape}")


def gamma_cdf(shape: float, rate: float, x) -> float:
    """CDF of Gamma(shape, rate) at x, for shapes up to 1e5; vectorizes
    over x."""
    if not (shape > 0 and rate > 0):
        raise DomainError(f"gamma_cdf requires shape, rate > 0, got {shape}, {rate}")
    _check_gammainc_shape(shape)
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
# intervals of the first call's grid (97 nodes), whose even nodes give the
# sum at _N0 / 2; each later call halves the step, up to _N_MAX intervals
_N0 = 96
_N_MAX = 6144
# the first grid on [0, 1], and its trapezoidal weights at _N0 / 2 and _N0
# intervals, one column each
_UNIT = np.linspace(0.0, 1.0, _N0 + 1)
_UNIT_WEIGHTS = np.zeros((_N0 + 1, 2))
_UNIT_WEIGHTS[::2, 0] = 2.0 / _N0
_UNIT_WEIGHTS[:, 1] = 1.0 / _N0
_UNIT_WEIGHTS[[0, -1]] *= 0.5


def _settled_sums(integrand, lo, hi, tol, what):
    """The stack's integrals over [lo, hi] by the nested trapezoidal rule.

    ``integrand(x)`` returns k integrands stacked, shape (k, x.size).  The
    first call evaluates them on the ``_N0 + 1`` even nodes, which give
    the sums at ``_N0 / 2`` and ``_N0`` intervals; each later call
    evaluates only the midpoints of the last grid and halves its step, up
    to ``_N_MAX`` intervals, so every node is evaluated once.  The call
    ends at the first step at which every sum is within ``tol`` relative
    of its previous one, with the scale floored at 1e-300, and returns all
    the sums of that step's grid; raises NonConvergenceError, naming the
    last interval count and the largest last change, if no step up to
    ``_N_MAX`` intervals settles them all.
    """
    width = hi - lo
    sums = integrand(lo + width * _UNIT) @ _UNIT_WEIGHTS * width
    prev, cur = sums.T.tolist()
    n, h, fine = _N0, width / _N0, sums[:, 1]
    while True:
        change = [abs(c - p) / max(abs(c), 1e-300) for c, p in zip(cur, prev)]
        if all(d <= tol for d in change):
            return cur
        if 2 * n > _N_MAX:
            raise NonConvergenceError(f"{what} did not settle at {n} intervals "
                                      f"(last change {max(change):.3e})")
        mid = integrand(lo + h * (np.arange(n) + 0.5)).sum(axis=1)
        n, h = 2 * n, 0.5 * h
        fine = 0.5 * fine + h * mid
        prev, cur = cur, fine.tolist()


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
    bump, but not by ``_DROP`` in height at ``v_peak``.  The sums of
    exp(log_f - top) between those limits settle by ``_settled_sums`` to
    ``policy.rel_tol``; the log is taken of the settled sums and shifted
    back by top.
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
    shift = top[:, None]
    sums = _settled_sums(lambda v: np.exp(log_f(v) - shift),
                         v_peak - _OFFSETS[left], v_peak + _OFFSETS[right],
                         policy.rel_tol, "quadrature")
    return tuple((np.log(sums) + top).tolist())


def _softplus(v):
    return np.logaddexp(0.0, v)


def log_gamma_kummer_u(a: float, b: float, z: float,
                       policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """log of Gamma(a) * U(a, b, z) for a > 0, z > 0.

    This log-domain form stays finite for shape parameters far beyond
    the overflow range of Gamma(a) itself.  At a <= 0.05 the left tail
    exp(a v), v = ln u, is too long for 6144 intervals, and it raises
    NonConvergenceError; a = 0.055 settles at b = 0.5, z = 1.
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
