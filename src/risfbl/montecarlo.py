"""
Monte Carlo oracle
==================
Literal sampling of the composite channel: complex Gaussian draws for
the direct and per-element links, per-element phase control applied
exactly as the controller would (perfect conjugate alignment, uniformly
spread residuals, or snapping to the nearest quantizer level), then the
received SNR, its empirical statistics, and sample averages of the
instantaneous finite-blocklength metrics.

The sampler does its algebra in real arithmetic, in the frame rotated by
the direct link's phase, where the aligned cascades need no complex
rotation; ``tests/oracles.py`` keeps the complex-rotation form as the
reference that the tests hold it to.  Its working set is four to five
chunk x N float64 buffers, reused from chunk to chunk.

The stream is counter-based (Philox keyed by seed and stream id) and
the reductions use a fixed order, so every statistic here is
byte-reproducible for a given configuration.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError, gamma_cdf
from .channel import GammaFit, LinkGains, Perfect, PhaseModel, QuantizedBits, UniformSpread
from . import fbl


@dataclass(frozen=True)
class McConfig:
    """Sample budget and stream identity of one Monte Carlo run."""

    n_samples: int = 10_000
    seed: int = 20260824
    stream_id: int = 0
    chunk: int = 2_000

    def __post_init__(self):
        if self.n_samples < 2:
            raise DomainError("n_samples must be >= 2")
        if self.chunk < 1:
            raise DomainError("chunk must be >= 1")


@dataclass(frozen=True)
class SampleStats:
    """First two raw moments of a sample with their standard errors."""

    n: int
    m1: float
    m2: float
    m1_se: float
    m2_se: float


def _rng(cfg: McConfig):
    return np.random.Generator(np.random.Philox(key=[cfg.seed, cfg.stream_id]))


def _row_dot(x, y):
    """Row-wise dot products of two (m, N) arrays, with no temporaries."""
    return np.einsum("ij,ij->i", x, y)


def sample_snr(gains: LinkGains, n_elements: int, phase: PhaseModel,
               rho: float, cfg: McConfig = McConfig()) -> np.ndarray:
    """Draw received-SNR realizations gamma = rho * X.

    Each realization draws the direct link h_d and, per element, the two
    hops a_n and b_n as circular complex Gaussians, sets the element's
    phase shift theta_n per the phase model, and sums coherently:
    X = |h_d + sum_n c_n e^{j theta_n}|^2 with c_n = a_n b_n.  The ideal
    shift is arg h_d - arg c_n (0 - arg c_n without a direct link), so in
    the frame rotated by e^{-j arg h_d}, where h_d is |h_d|:

    - Perfect: every term is aligned, X = (|h_d| + sum_n |a_n||b_n|)^2.
    - UniformSpread: the residual phi_n is added to the ideal shift,
      X = (|h_d| + sum_n |c_n| cos phi_n)^2 + (sum_n |c_n| sin phi_n)^2.
    - QuantizedBits: the controller snaps the ideal shift to the nearest
      level k_n * step, k_n = rint((arg h_d - arg c_n) / step) mod 2^b, and
      c_n is rotated by a 2^b-entry cos/sin table indexed by k_n; the
      modulus X = |h_d + sum_n c_n e^{j k_n step}|^2 needs no rotation.

    The arithmetic is real.  Rows are drawn in chunks of ``cfg.chunk``;
    per chunk the draws are Re h_d, Im h_d (only with a direct link),
    then Re a, Im a, Re b, Im b (chunk x N each), then the uniform phase
    errors (UniformSpread only).  The stream is therefore fixed by seed,
    stream id and chunk together.  The working set is four chunk x N
    float64 buffers, allocated once per call and reused by every chunk,
    plus a fifth for QuantizedBits.
    """
    if n_elements < 0:
        raise DomainError("n_elements must be >= 0")
    if rho <= 0:
        raise DomainError("rho must be > 0")
    if not isinstance(phase, (Perfect, UniformSpread, QuantizedBits)):
        raise DomainError(f"unknown phase model {phase!r}")
    rng = _rng(cfg)
    out = np.empty(cfg.n_samples)
    rows = min(cfg.chunk, cfg.n_samples)
    n_bufs = 5 if isinstance(phase, QuantizedBits) else 4
    bufs = [np.empty((rows, n_elements)) for _ in range(n_bufs)]
    amp = math.sqrt(gains.ap_ris / 2.0) * math.sqrt(gains.ris_ac / 2.0)
    done = 0
    while done < cfg.n_samples:
        m = min(cfg.chunk, cfg.n_samples - done)
        if gains.direct > 0:
            scale = math.sqrt(gains.direct / 2.0)
            hd_re = scale * rng.standard_normal(m)
            hd_im = scale * rng.standard_normal(m)
        else:
            hd_re = hd_im = np.zeros(m)
        if n_elements == 0:
            re, im = hd_re, hd_im
        else:
            ar, ai, br, bi = (buf[:m] for buf in bufs[:4])
            for buf in (ar, ai, br, bi):
                rng.standard_normal(out=buf)
            if isinstance(phase, QuantizedBits):
                work = bufs[4][:m]
                # c = a * b in place: Re c -> ar, Im c -> br
                np.multiply(ar, bi, out=work)
                ar *= br
                br *= ai
                bi *= ai
                ar -= bi
                br += work
                np.arctan2(br, ar, out=work)
                np.subtract(np.arctan2(hd_im, hd_re)[:, None], work, out=work)
                work /= phase.step
                np.rint(work, out=work)
                k = ai.view(np.int64)
                np.copyto(k, work, casting="unsafe")
                levels = np.arange(phase.levels) * phase.step
                # mode="wrap" reduces k mod 2^b; "raise" would buffer the output
                np.take(np.cos(levels), k, out=work, mode="wrap")
                np.take(np.sin(levels), k, out=bi, mode="wrap")
                re = hd_re + amp * (_row_dot(ar, work) - _row_dot(br, bi))
                im = hd_im + amp * (_row_dot(ar, bi) + _row_dot(br, work))
            else:
                # |c|^2 = (Re a^2 + Im a^2)(Re b^2 + Im b^2), |c| -> ar
                ar *= ar
                ai *= ai
                ar += ai
                br *= br
                bi *= bi
                br += bi
                ar *= br
                np.sqrt(ar, out=ar)
                hd_abs = np.hypot(hd_re, hd_im)
                if isinstance(phase, Perfect):
                    re = hd_abs + amp * np.sum(ar, axis=1)
                    im = 0.0
                else:
                    # same values as rng.uniform(-s, s): low + (high - low) * u
                    spread = phase.spread * math.pi
                    rng.random(out=ai)
                    ai *= 2.0 * spread
                    ai -= spread
                    np.cos(ai, out=br)
                    np.sin(ai, out=bi)
                    re = hd_abs + amp * _row_dot(ar, br)
                    im = amp * _row_dot(ar, bi)
        out[done:done + m] = re * re + im * im
        done += m
    return rho * out


def empirical_stats(samples: np.ndarray) -> SampleStats:
    """Raw moments m1 = mean(x), m2 = mean(x^2) with standard errors."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise DomainError("need at least 2 samples")
    m1 = float(np.sum(x)) / n
    x2 = x * x
    m2 = float(np.sum(x2)) / n
    v1 = float(np.sum((x - m1) ** 2)) / (n - 1)
    v2 = float(np.sum((x2 - m2) ** 2)) / (n - 1)
    return SampleStats(n=n, m1=m1, m2=m2,
                       m1_se=math.sqrt(v1 / n), m2_se=math.sqrt(v2 / n))


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

    def mean_se(x):
        m = float(np.sum(x)) / n
        se = math.sqrt(float(np.sum((x - m) ** 2)) / (n - 1) / n)
        return m, se

    r_m, r_se = mean_se(rate)
    b_m, b_se = mean_se(bler)
    l_m, l_se = mean_se(rlen)
    return McAverages(n=n, avg_rate=r_m, avg_rate_se=r_se,
                      avg_bler=b_m, avg_bler_se=b_se,
                      avg_blocklength=l_m, avg_blocklength_se=l_se,
                      avg_capacity=float(np.sum(cap)) / n,
                      avg_sqrt_dispersion=float(np.sum(sdisp)) / n)
