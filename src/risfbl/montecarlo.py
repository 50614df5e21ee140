"""
Monte Carlo oracle
==================
Sampling of the composite channel from its law, with the per-element
residual phase of the controller drawn from its law (none for perfect
conjugate alignment, uniform for a uniform spread and for a b-bit
quantizer, whose snap to the nearest level leaves a residual uniform
within half a level step of 0), then the received SNR, its empirical
statistics, and sample averages of the instantaneous finite-blocklength
metrics.  Every Monte Carlo mean reported, ECDF points included, is
taken by ``_mean_se`` with its standard error.

The sampler draws only uniforms: |h_d|^2, |a_n|^2 and |b_n|^2 are unit
exponentials, taken by inverse CDF as E = -ln(1 - U), and every residual
phase is uniform.  One formula in real arithmetic, in the frame of the
direct link, serves every phase model.  ``tests/oracles.py``
holds it to the literal complex controller on the same draws, and to a
complex-Gaussian sampler in distribution.  Rows are processed in blocks
of at most ``_BLOCK_BYTES`` (1 MiB, so that every pass over a block runs
in a typical per-core L2 cache), in one reused float64 buffer.

No trig runs per element.  Every residual phase is phi = w (t - 1/2)
with t in [0, 1], and each call tabulates cos and sin once, at the
``_K`` + 1 grid points w (i / K - 1/2) (P. T. P. Tang, "Table-lookup
algorithms for elementary functions and their error analysis", ARITH
1991).  An element rotates by its nearest grid point, j = rint(t K), and
by the remainder delta = h f, with h = w / K and f = t K - j, so
|delta| <= pi / K, through short Taylor steps in f:
sin delta ~ h f (1 - h^2 f^2 / 6) and
cos delta ~ 1 - h^2 f^2 / 2 + h^4 f^4 / 24, whose truncation errors are
below 3e-18; h multiplies the row sums of the sine part, not each
element.  Against libm cos and sin of the same phi the rotation is
within 1e-15 absolute.  The rotation overwrites the block's phase
columns and allocates its own temporaries, at most four arrays of the
block's rows x N at once; it leaves r, the magnitudes, intact.

The magnitudes come from PCG64DXSM seeded by (seed, stream id), into
one contiguous exponential block, and the phases from PCG64DXSM seeded
by that seed sequence's first child, into their own block, so every
phase model on one (seed, stream id) reads the same magnitudes.  Rows
are drawn from each in order whatever the block size, and the
reductions use a fixed order, so every statistic here is
byte-reproducible for a given seed and stream id.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError, gamma_cdf, inv_q
from .channel import GammaFit, LinkGains, Perfect, PhaseModel, _check_channel
from . import fbl


# bytes of one sampler block: half of a 2 MiB per-core L2 cache
_BLOCK_BYTES = 1 << 20
# intervals of the per-call cos/sin grid: |delta| <= pi / _K
_K = 4096


@dataclass(frozen=True)
class McConfig:
    """Sample budget and stream identity of one Monte Carlo run.

    ``seed`` and ``stream_id``, each in [0, 2^64), seed the stream.  The
    class constant ``chunk`` caps a sampler block's rows as ``_BLOCK_BYTES``
    caps its bytes; both only bound the one buffer, neither the samples.
    """

    n_samples: int = 10_000
    seed: int = 20260824
    stream_id: int = 0
    chunk = 2_000  # not a field: bench/tracer.py reads cfg.chunk

    def __post_init__(self):
        if self.n_samples < 2:
            raise DomainError("n_samples must be >= 2")
        for name in ("seed", "stream_id"):
            if not 0 <= getattr(self, name) < 1 << 64:
                raise DomainError(f"{name} must lie in [0, 2^64)")


@dataclass(frozen=True)
class SampleStats:
    """First two raw moments of a sample with their standard errors."""

    n: int
    m1: float
    m2: float
    m1_se: float
    m2_se: float


def _rng(cfg: McConfig, spawn_key=()):
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(
        [cfg.seed, cfg.stream_id], spawn_key=spawn_key)))


def _row_dot(x, y):
    """Row-wise dot products of two (m, N) arrays, with no temporaries."""
    return np.einsum("ij,ij->i", x, y)


def _cis_table(w):
    """cos and sin of w (i / K - 1/2) at the K + 1 grid points i = 0..K."""
    grid = w * (np.arange(_K + 1) / _K - 0.5)  # one rounding per point
    return np.cos(grid), np.sin(grid)


def _rotated_sums(r, t, w, table):
    """Row sums of r cos phi and r sin phi for phi = w (t - 1/2), t in [0, 1].

    ``table`` is ``_cis_table(w)``.  phi is the grid point j = rint(t K)
    plus delta = h f, with h = w / K and f = t K - j, where t K and f are
    exact, and e^{i phi} = table[j] e^{i delta}.  cos delta and
    sin delta / h are short polynomials in f^2, and h scales the row dots
    of the latter.  ``t`` is overwritten (it ends as f); ``r`` is not.
    Every other array is a temporary of ``r``'s shape, freed on return.
    """
    cos_t, sin_t = table
    h = w / _K
    t *= _K
    j = np.rint(t)
    f = np.subtract(t, j, out=t)
    j = j.astype(np.int64)
    cos_j = cos_t.take(j, mode="clip")  # every j lies in [0, K]
    cos_j *= r
    sin_j = sin_t.take(j, mode="clip")
    sin_j *= r
    del j  # so that at most four temporaries are live at once
    q = f * f
    f *= q * (-h * h / 6.0) + 1.0  # sin delta / h
    q *= q * (h ** 4 / 24.0) - h * h / 2.0
    q += 1.0  # cos delta
    return (_row_dot(q, cos_j) - h * _row_dot(f, sin_j),
            _row_dot(q, sin_j) + h * _row_dot(f, cos_j))


def sample_snr(gains: LinkGains, n_elements: int, phase: PhaseModel,
               rho: float, cfg: McConfig = McConfig()) -> np.ndarray:
    """Draw received-SNR realizations gamma = rho * X from the channel's law.

    X = |h_d + sum_n c_n e^{j theta_n}|^2 with |h_d|^2 = direct * E_d and
    |c_n| = amp * r_n, amp = sqrt(ap_ris * ris_ac), r_n = sqrt(E1_n E2_n),
    for unit exponentials E = -ln(1 - U); phases are uniform, 2 pi U.
    In the frame of h_d, with residual phase phi_n against the ideal shift,
    X = (|h_d| + amp sum r cos phi)^2 + (amp sum r sin phi)^2.  Perfect:
    phi = 0, no rotation.  Any other model: phi = spread pi (2U - 1), that
    is w (t - 1/2) with w = 2 pi spread and t = U.  For QuantizedBits(b)
    that is the law of the snap: with a uniform cascade phase, the ideal
    shift lies uniformly within its quantizer cell, whatever the direct
    link's phase, so the residual is uniform on (-pi 2^-b, pi 2^-b), and
    the samples are those of UniformSpread(2^-b), to the byte.  The
    rotation by phi is the module's table step, with one cos/sin table
    per call.

    A row's magnitudes are uniforms [E_d (direct link on only), E1[N],
    E2[N]] from the cell's stream, mapped to 1 - U, which is exact for the
    generator's multiples of 2^-53, and then to -E = ln(1 - U) in place,
    all on one contiguous block.  Its N phase uniforms t (not for
    Perfect) come from the stream's first child into their own block.
    Every phase model thus reads the same magnitudes on one seed and
    stream id, and the samples depend on those two only.  A block holds
    at most ``McConfig.chunk`` rows and at most ``_BLOCK_BYTES`` of float64
    over its exponential and phase columns (at least one row), in one
    reused buffer; that is all either sets.  r takes a second reused
    float64 buffer of the block's rows x N.  A phase model other than
    Perfect adds the 2 (K + 1) table values and the rotation's per-block
    temporaries, at most four arrays of r's shape at once: with 10k
    samples and the direct link on, a call peaks at 2.8 MiB at 2-bit for
    N = 1024 and 2048, against 1.7 MiB at Perfect for N = 1024
    (tracemalloc, output included).
    """
    _check_channel(gains, n_elements, phase)
    if not 0 < rho < math.inf:
        raise DomainError("rho must be finite and > 0")
    n, d = n_elements, 1 if gains.direct > 0 else 0
    perfect = isinstance(phase, Perfect)
    ne = d + 2 * n  # exponential columns, then 0 or n phase ones
    width = ne + (0 if perfect else n)
    rows = max(1, min(cfg.chunk, cfg.n_samples, _BLOCK_BYTES // (8 * width)))
    buf = np.empty(rows * width)
    r_buf = np.empty((rows, n))
    if not perfect:
        w = 2.0 * phase.spread * math.pi
        table = _cis_table(w)
        t_buf = buf[rows * ne:].reshape(rows, n)
        phase_rng = _rng(cfg, (0,))
    amp = math.sqrt(gains.ap_ris * gains.ris_ac)
    rng = _rng(cfg)
    out = np.empty(cfg.n_samples)
    for lo in range(0, cfg.n_samples, rows):
        m = min(rows, cfg.n_samples - lo)
        e = rng.random(out=buf[:m * ne].reshape(m, ne))
        np.subtract(1.0, e, out=e)  # exact for multiples of 2^-53
        np.log(e, out=e)  # -E; 1 - U >= 2^-53, so E is finite
        hd = np.sqrt(-gains.direct * e[:, 0]) if d else 0.0
        r = np.multiply(e[:, d:d + n], e[:, d + n:], out=r_buf[:m])
        np.sqrt(r, out=r)
        re, im = ((np.sum(r, axis=1), 0.0) if perfect else _rotated_sums(
            r, phase_rng.random(out=t_buf[:m]), w, table))
        re = hd + amp * re
        im = amp * im
        out[lo:lo + m] = re * re + im * im
    out *= rho
    return out


def _mean_se(x):
    """Sample mean of x and its standard error, sqrt(S / (n - 1) / n)."""
    n = x.size
    if n < 2:
        raise DomainError("need at least 2 samples")
    m = float(np.sum(x)) / n
    return m, math.sqrt(float(np.sum((x - m) ** 2)) / (n - 1) / n)


def ecdf(samples: np.ndarray, x: np.ndarray):
    """ECDF of the samples at each x and its standard error, each point the
    mean of 1{gamma <= x}, so the SE is sqrt(F (1 - F) / (n - 1))."""
    return np.array([_mean_se((samples <= v).astype(float)) for v in x]).T


def empirical_stats(samples: np.ndarray) -> SampleStats:
    """Raw moments m1 = mean(x), m2 = mean(x^2) with standard errors."""
    x = np.asarray(samples, dtype=float)
    m1, m1_se = _mean_se(x)
    m2, m2_se = _mean_se(x * x)
    return SampleStats(n=x.size, m1=m1, m2=m2, m1_se=m1_se, m2_se=m2_se)


def ks_distance(samples: np.ndarray, fit: GammaFit) -> float:
    """One-sample Kolmogorov-Smirnov statistic against the Gamma fit."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 2:
        raise DomainError("need at least 2 samples")
    cdf = gamma_cdf(fit.shape, fit.rate, x)
    hi = np.arange(1, n + 1) / n - cdf
    lo = cdf - np.arange(0, n) / n
    return float(max(np.max(hi), np.max(lo)))


@dataclass(frozen=True)
class McAverages:
    """Sample means of the instantaneous rate, BLER, C and sqrt(V), each
    reported one with its ``_se``, and the average blocklength at the means
    of C and sqrt(V), as at C1 and C2, with its delta-method ``_se``."""

    avg_rate: float
    avg_rate_se: float
    avg_bler: float
    avg_bler_se: float
    avg_blocklength: float
    avg_blocklength_se: float
    avg_capacity: float
    avg_sqrt_dispersion: float
    avg_sqrt_dispersion_se: float


def mc_avg_metrics(samples: np.ndarray, packet: fbl.PacketConfig) -> McAverages:
    """Sample averages over an SNR array (BLER by the exact Q, not the
    linearized surrogate) and the blocklength at the means of C and sqrt(V).

    The blocklength n at the means C and S of c and sqrt_v is the root of
    F = C n - q S sqrt(n) - L = 0, q = Q^-1(eps).  Its SE is the delta
    method's, with the implicit-function gradient
    g = (dn/dC, dn/dS) = (-n, q sqrt(n)) / F_n, F_n = C - q S / (2 sqrt(n)),
    which is positive: g' Cov(c, sqrt_v) g / n_samples, with the samples'
    covariance, is the squared SE of the mean of g . (c, sqrt_v), which
    ``_mean_se`` takes.
    """
    c, sqrt_v = fbl._capacity_sqrt_dispersion(samples)
    r_m, r_se = _mean_se(fbl._rate(c, sqrt_v, packet.blocklength, packet.target_bler))
    b_m, b_se = _mean_se(fbl._bler(c, sqrt_v, packet.blocklength, packet.info_bits))
    v_m, v_se = _mean_se(sqrt_v)
    c_m = float(np.sum(c)) / c.size
    n_m = fbl.avg_blocklength(c_m, v_m, packet.info_bits, packet.target_bler)
    q_root_n = inv_q(packet.target_bler) * math.sqrt(n_m)
    f_n = c_m - 0.5 * q_root_n * v_m / n_m
    _, n_se = _mean_se((q_root_n / f_n) * sqrt_v - (n_m / f_n) * c)
    return McAverages(avg_rate=r_m, avg_rate_se=r_se,
                      avg_bler=b_m, avg_bler_se=b_se,
                      avg_blocklength=n_m, avg_blocklength_se=n_se,
                      avg_capacity=c_m, avg_sqrt_dispersion=v_m,
                      avg_sqrt_dispersion_se=v_se)


def with_se(avgs: McAverages, names) -> dict:
    """{label: mean, label + "_se": its SE} for each (label, ``McAverages``
    mean) pair."""
    return {label + se: getattr(avgs, name + se) for label, name in names
            for se in ("", "_se")}
