"""
Monte Carlo oracle
==================
Sampling of the composite channel from its law, with per-element phase
control applied as the controller would (perfect conjugate alignment,
uniformly spread residuals, or snapping to the nearest quantizer
level), then the received SNR, its empirical statistics, and sample
averages of the instantaneous finite-blocklength metrics.

The sampler draws only uniforms: |h_d|^2, |a_n|^2 and |b_n|^2 are unit
exponentials, taken by inverse CDF as E = -ln(1 - U), and every phase is
uniform.  One formula in real arithmetic, in the frame rotated by the
direct link's phase, serves every phase model.  ``tests/oracles.py``
holds it to the literal complex controller on the same draws, and to a
complex-Gaussian sampler in distribution.  Rows are processed in blocks
of at most ``_BLOCK_BYTES`` (1 MiB, so that every pass over a block runs
in a typical per-core L2 cache), in one reused float64 buffer.

No trig runs per element.  Every residual phase is phi = w (t - 1/2)
with t in [0, 1], and each call tabulates cos and sin once, at the
``_K`` + 1 grid points w (i / K - 1/2) (P. T. P. Tang, "Table-lookup
algorithms for elementary functions and their error analysis", ARITH
1991).  An element rotates by its nearest grid point, j = rint(t K), and
by the remainder delta = (t K - j) w / K, |delta| <= pi / K, through
short Taylor steps: s = sin delta ~ delta (1 - delta^2/6) and
cos delta = sqrt(1 - s^2) ~ 1 - s^2/2 - s^4/8, whose truncation errors
are below 3e-18.  Against libm cos and sin of the same phi the rotation
is within 1e-15 absolute.  A block's working set grows by one float64
and one int64 array of its rows x N; the gathered table values go to
the block's own buffer, which is free by then.

Every pass over an element runs on contiguous memory where it can: 1 - U
on the whole block, r = sqrt(E1 E2) into its own rows x N scratch, and
the rotation on the scratch arrays and the block's contiguous front.
Only ln(1 - U) runs on the exponential columns alone.

The generator is PCG64DXSM seeded by (seed, stream id), rows are drawn
from it in order whatever the block size, and the reductions use a
fixed order, so every statistic here is byte-reproducible for a given
seed and stream id.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError, gamma_cdf
from .channel import GammaFit, LinkGains, Perfect, PhaseModel, QuantizedBits, UniformSpread
from . import fbl


# bytes of one sampler block: half of a 2 MiB per-core L2 cache
_BLOCK_BYTES = 1 << 20
# intervals of the per-call cos/sin grid: |delta| <= pi / _K
_K = 4096


@dataclass(frozen=True)
class McConfig:
    """Sample budget and stream identity of one Monte Carlo run.

    ``seed`` and ``stream_id``, each in [0, 2^64), seed the stream.
    ``chunk`` caps the rows of one sampler block, as the 1 MiB block size
    does; both only bound the sampler's one buffer, neither changes the
    samples.
    """

    n_samples: int = 10_000
    seed: int = 20260824
    stream_id: int = 0
    chunk: int = 2_000

    def __post_init__(self):
        if self.n_samples < 2:
            raise DomainError("n_samples must be >= 2")
        if self.chunk < 1:
            raise DomainError("chunk must be >= 1")
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


def _rng(cfg: McConfig):
    return np.random.Generator(np.random.PCG64DXSM(
        np.random.SeedSequence([cfg.seed, cfg.stream_id])))


def _row_dot(x, y):
    """Row-wise dot products of two (m, N) arrays, with no temporaries."""
    return np.einsum("ij,ij->i", x, y)


def _cis_table(w):
    """cos and sin of w (i / K - 1/2) at the K + 1 grid points i = 0..K."""
    grid = w * (np.arange(_K + 1) / _K - 0.5)  # one rounding per point
    return np.cos(grid), np.sin(grid)


def _rotated_sums(r, t, w, table, c, j, cos_j, sin_j):
    """Row sums of r cos phi and r sin phi for phi = w (t - 1/2), t in [0, 1].

    ``table`` is ``_cis_table(w)``.  phi is the grid point j = rint(t K)
    plus delta = (t K - j) w / K, where t K and t K - j are exact, and
    e^{i phi} = table[j] e^{i delta}.  sin delta comes first, so that
    cos delta can follow from it, and the two need only two contiguous
    arrays: ``c`` (float64) and ``j`` (int64) are scratch of ``r``'s shape,
    ``j``'s memory serves as float64 once the table is gathered, and ``c``
    may be ``t``.  ``cos_j`` and ``sin_j`` receive the gathered table
    values (``cos_j`` first holds rint(t K) as float64) and may be ``t``
    or share its memory, which is read first.  Only ``r`` is left as it
    was.
    """
    cos_t, sin_t = table
    np.multiply(t, _K, out=c)
    np.rint(c, out=cos_j)
    c -= cos_j
    c *= w / _K  # delta
    np.copyto(j, cos_j, casting="unsafe")
    np.take(cos_t, j, out=cos_j, mode="clip")  # every j lies in [0, K]
    np.take(sin_t, j, out=sin_j, mode="clip")
    q = j.view(np.float64)
    np.multiply(c, c, out=q)
    q *= -1.0 / 6.0
    q += 1.0
    c *= q  # s = sin delta
    np.multiply(c, c, out=q)
    q *= -0.125
    q -= 0.5
    q *= c
    q *= c
    q += 1.0  # cos delta
    c *= r
    q *= r
    return (_row_dot(q, cos_j) - _row_dot(c, sin_j),
            _row_dot(q, sin_j) + _row_dot(c, cos_j))


def sample_snr(gains: LinkGains, n_elements: int, phase: PhaseModel,
               rho: float, cfg: McConfig = McConfig()) -> np.ndarray:
    """Draw received-SNR realizations gamma = rho * X from the channel's law.

    X = |h_d + sum_n c_n e^{j theta_n}|^2 with |h_d|^2 = direct * E_d and
    |c_n| = amp * r_n, amp = sqrt(ap_ris * ris_ac), r_n = sqrt(E1_n E2_n),
    for unit exponentials E = -ln(1 - U); phases are uniform, 2 pi U.
    In the frame of h_d, with residual phase phi_n against the ideal shift,
    X = (|h_d| + amp sum r cos phi)^2 + (amp sum r sin phi)^2.  Perfect:
    phi = 0, no rotation.  UniformSpread s: phi = s pi (2U - 1), that is
    w (t - 1/2) with w = 2 s pi and t = U.  QuantizedBits: the ideal shift
    theta* = arg h_d - psi_n, with arg h_d = 2 pi U_d (0 without a direct
    link) and arg c_n = psi_n = 2 pi U_n, is snapped, so
    phi = step * rint(x) - theta* = -step v, with x = theta* / step =
    2^b (U_d - U) and v = x - rint(x), all exact; that is w (t - 1/2) with
    w = -step and t = v + 1/2.  The rotation by phi is the module's table
    step, with one cos/sin table per call.

    A row is uniforms [E_d (direct link on only), E1[N], E2[N], U_d (direct
    link on only), U[N] (not for Perfect)].  The whole block is mapped to
    1 - U, which is exact for the generator's multiples of 2^-53, and its
    leading exponential columns then to -E = ln(1 - U) in place.  The
    phase columns are read as 1 - U, uniform as well; that turns every
    phi into -phi exactly (the table is exactly symmetric), so X is
    unchanged to the bit.  All rows come from one
    stream in order, so the samples depend on seed and stream id only.
    A block holds at most ``cfg.chunk`` rows and at most ``_BLOCK_BYTES``
    of float64 (at least one row), in one reused buffer; that is all
    either sets.  r takes one float64 scratch array of the block's rows x
    N; a phase model other than Perfect adds one float64 and one int64
    more, and the 2 (K + 1) table values.
    """
    if n_elements < 0:
        raise DomainError("n_elements must be >= 0")
    if not rho > 0:
        raise DomainError("rho must be > 0")
    if not isinstance(phase, (Perfect, UniformSpread, QuantizedBits)):
        raise DomainError(f"unknown phase model {phase!r}")
    n, d = n_elements, 1 if gains.direct > 0 else 0
    perfect = isinstance(phase, Perfect)
    ne = d + 2 * n  # exponential columns, then d + (0 or n) uniform ones
    width = ne + d + (0 if perfect else n)
    rows = max(1, min(cfg.chunk, cfg.n_samples,
                      _BLOCK_BYTES // (8 * max(width, 1))))
    buf = np.empty((rows, width))
    r_buf = np.empty((rows, n))
    if not perfect:
        quantized = isinstance(phase, QuantizedBits)
        w = -phase.step if quantized else 2.0 * phase.spread * math.pi
        table = _cis_table(w)
        c = np.empty((rows, n))
        j = np.empty((rows, n), dtype=np.int64)
    amp = math.sqrt(gains.ap_ris * gains.ris_ac)
    rng = _rng(cfg)
    out = np.empty(cfg.n_samples)
    for lo in range(0, cfg.n_samples, rows):
        m = min(rows, cfg.n_samples - lo)
        u = rng.random(out=buf[:m])
        np.subtract(1.0, u, out=u)  # exact for multiples of 2^-53
        e = u[:, :ne]
        np.log(e, out=e)  # -E; 1 - U >= 2^-53, so E is finite
        hd = np.sqrt(-gains.direct * e[:, 0]) if d else 0.0
        r = np.multiply(e[:, d:d + n], e[:, d + n:], out=r_buf[:m])
        np.sqrt(r, out=r)
        if perfect:
            re, im = hd + amp * np.sum(r, axis=1), 0.0
        else:
            # the block is free once t is read: the table is gathered there
            cos_j, sin_j = buf.reshape(-1)[:2 * m * n].reshape(2, m, n)
            t = phi = u[:, ne + d:]
            if quantized:
                t = c[:m]
                levels = 2.0 ** phase.bits
                np.multiply(phi, -levels, out=t)
                if d:
                    t += levels * u[:, ne:ne + 1]  # x
                np.rint(t, out=sin_j)
                t -= sin_j  # v
                t += 0.5
            re, im = _rotated_sums(r, t, w, table, c[:m], j[:m], cos_j, sin_j)
            re = hd + amp * re
            im = amp * im
        out[lo:lo + m] = re * re + im * im
    out *= rho
    return out


def _mean_se(x):
    """Sample mean of x and its standard error, sqrt(S / (n - 1) / n)."""
    n = x.size
    m = float(np.sum(x)) / n
    return m, math.sqrt(float(np.sum((x - m) ** 2)) / (n - 1) / n)


def empirical_stats(samples: np.ndarray) -> SampleStats:
    """Raw moments m1 = mean(x), m2 = mean(x^2) with standard errors."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise DomainError("need at least 2 samples")
    m1, m1_se = _mean_se(x)
    m2, m2_se = _mean_se(x * x)
    return SampleStats(n=n, m1=m1, m2=m2, m1_se=m1_se, m2_se=m2_se)


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
    """Sample means of the instantaneous FBL metrics."""

    n: int
    avg_rate: float
    avg_rate_se: float
    avg_bler: float
    avg_bler_se: float
    avg_blocklength: float
    avg_blocklength_se: float
    avg_capacity: float
    avg_sqrt_dispersion: float


def mc_avg_metrics(samples: np.ndarray, packet: fbl.PacketConfig) -> McAverages:
    """Average rate, BLER (exact Q, not the linearized surrogate) and
    blocklength over an SNR sample array."""
    g = np.asarray(samples, dtype=float)
    n = g.size
    if n < 2:
        raise DomainError("need at least 2 samples")
    rate = fbl.instantaneous_rate(g, packet.blocklength, packet.target_bler)
    bler = fbl.instantaneous_bler(g, packet.blocklength, packet.info_bits)
    rlen = fbl.instantaneous_blocklength(g, packet.info_bits, packet.target_bler)
    cap = fbl.capacity(g)
    sdisp = np.sqrt(fbl.dispersion(g))
    r_m, r_se = _mean_se(rate)
    b_m, b_se = _mean_se(bler)
    l_m, l_se = _mean_se(rlen)
    return McAverages(n=n, avg_rate=r_m, avg_rate_se=r_se,
                      avg_bler=b_m, avg_bler_se=b_se,
                      avg_blocklength=l_m, avg_blocklength_se=l_se,
                      avg_capacity=float(np.sum(cap)) / n,
                      avg_sqrt_dispersion=float(np.sum(sdisp)) / n)
