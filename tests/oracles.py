"""
Independent numerical references for the closed forms under test.

The frozen table below was produced by ``regenerate()``, which
evaluates the defining integrals with mpmath at 40 digits using
peak-normalized quadrature (values are O(1) relative to the integrand
peak, so mpmath's relative stopping criterion applies even when the
result underflows double precision by hundreds of orders).

The last sections hold alternative forms (the moments of the channel
power from the structural sums in mpmath and as expanded formulas, the
Taylor rate, the paper's C1 and C2 series, the per-sample
finite-blocklength metrics, the linearized-Q surrogate, Kummer U,
incomplete-gamma and exponential-integral wrappers) that only the tests use as cross-checks,
the exact law of the spread-1 reflector's SNR (K-distributed with no
direct link, a Gamma mixture of exponentials with it), and two Monte
Carlo references for ``risfbl.montecarlo.sample_snr``:
the literal controller in complex arithmetic on the sampler's own
exponential draws, and the complex-Gaussian sampler it must match in
distribution.
"""

import math

import mpmath as mp
import numpy as np
from scipy import special as sp
from scipy import stats

from risfbl.channel import LinkGains, Moments, Perfect, PhaseModel, QuantizedBits, UniformSpread
from risfbl.montecarlo import McConfig
from risfbl.specfun import LOG2E, DomainError, log_gamma_kummer_u, sinc_norm


# grid pairs small shapes with small rates: the defining series and the
# oracle quadrature both slow down when a sub-unit shape meets a large
# rate, and the grid still spans shape [0.5, 200] and rate [1e-4, 10]
GRID = (
    (0.5, 1e-4, 300, 240), (0.5, 0.05, 500, 250), (0.75, 0.01, 300, 240),
    (1.0, 1e-3, 1000, 500), (1.0, 0.3, 300, 240), (2.0, 0.01, 300, 150),
    (2.0, 1.0, 200, 160), (5.0, 1e-3, 300, 240), (5.0, 3.0, 300, 240),
    (10.0, 0.02, 100, 80), (10.0, 10.0, 300, 240), (20.0, 0.1, 300, 240),
    (20.0, 10.0, 500, 400), (50.0, 0.05, 300, 240), (50.0, 5.0, 300, 240),
    (100.0, 0.08, 300, 240), (100.0, 10.0, 1000, 800), (150.0, 1.0, 300, 240),
    (200.0, 0.04, 300, 240), (200.0, 10.0, 300, 240),
)

# (shape, rate, blocklength, info_bits) ->
#   (avg capacity bits, avg sqrt dispersion bits, one-term dispersion bound,
#    avg linearized block error probability)
FROZEN = {
    (0.5, 0.0001, 300, 240): (10.505821566055697, 1.4340215593464885, 1.4363028946914544, 9.7057961142739513e-3),
    (0.5, 0.05, 500, 250): (2.5053989488053852, 1.2542395145830884, 1.3049440072815818, 0.16114643051647723),
    (0.75, 0.01, 300, 240): (5.2408425111861215, 1.4177390221263087, 1.4224137443700649, 2.7378801658092869e-2),
    (1.0, 0.001, 1000, 500): (9.1436194910373308, 1.4418761648256387, 1.4419782651782644, 4.141275260879077e-4),
    (1.0, 0.3, 300, 240): (1.763746054759949, 1.2778051853289822, 1.3056593572198166, 0.19922141607034984),
    (2.0, 0.01, 300, 150): (7.2679027922356021, 1.4424663728523243, 1.4424700312052068, 8.6415370201471093e-6),
    (2.0, 1.0, 200, 160): (1.4426950408889634, 1.2874252296900066, 1.3036951790625592, 0.17054102268512325),
    (5.0, 0.001, 300, 240): (12.139013389571845, 1.4426949808366855, 1.4426949808366929, 1.9826697315484063e-18),
    (5.0, 3.0, 300, 240): (1.3614691116857, 1.308042423969001, 1.3165927394534438, 7.6439843689956075e-2),
    (10.0, 0.02, 100, 80): (8.8956504724379803, 1.4426910561793763, 1.4426910561887673, 2.8042798191747777e-25),
    (10.0, 10.0, 300, 240): (0.98248038816288845, 1.2317837607342421, 1.2489828579741442, 0.21771695741614072),
    (20.0, 0.1, 300, 240): (7.6150604494263756, 1.4426741945031458, 1.4426741946919322, 2.5026107652451304e-41),
    (20.0, 10.0, 500, 400): (1.5691124115407272, 1.3541013985385965, 1.3570900804697509, 1.2393424560816021e-4),
    (50.0, 0.05, 300, 240): (9.952780617943461, 1.4426942757790094, 1.44269427577923, 4.7361306537357362e-135),
    (50.0, 5.0, 300, 240): (3.4475025086476434, 1.4364128775651306, 1.4364275258784935, 8.573599112727542e-37),
    (100.0, 0.08, 300, 240): (10.281652220599953, 1.4426945658302766, 1.4426945658303581, 3.6667058396549543e-277),
    (100.0, 10.0, 1000, 800): (3.4534684961158018, 1.4365696785237085, 1.4365831281158372, 4.5620911892267039e-73),
    (150.0, 1.0, 300, 240): (7.2336543171739679, 1.4426627698316626, 1.4426627702023763, 1.9223942478838974e-276),
    (200.0, 0.04, 300, 240): (12.284392596005166, 1.4426950116090412, 1.4426950116090415, None),
    (200.0, 10.0, 300, 240): (4.3890445280672962, 1.4410358820767891, 1.4410368537908944, 1.1890629126811989e-195),
}

# avg BLER values below the double-precision floor are recorded as None
# (the exact oracle value for (200, 0.04) is about 1.26e-671); the test
# asserts the closed form returns exactly zero there instead.


def gamma_expect(shape, rate, g, dps=40):
    """E[g(gamma)] for gamma ~ Gamma(shape, rate), peak-normalized.

    Below shape 1 the density's u^(shape - 1) endpoint singularity is
    taken out by u = v^(1/shape), since u^(shape - 1) du = dv / shape:
    E[g] = rate^shape / Gamma(shape + 1) * int g(u(v)) e^(-rate u(v)) dv,
    whose integrand is bounded and peaks at v = 0.
    """
    with mp.workdps(dps):
        a, b = mp.mpf(shape), mp.mpf(rate)
        m = shape / rate
        spots = [m / 100, m / 10, m, 10 * m, 100 * m]
        if shape < 1:
            pts = [0] + [mp.mpf(u) ** a for u in spots] + [mp.inf]
            val = mp.quad(lambda v: g(v ** (1 / a)) * mp.e ** (-b * v ** (1 / a)),
                          pts, maxdegree=8)
            return val * mp.e ** (a * mp.log(b) - mp.loggamma(a + 1))
        ld = lambda u: a * mp.log(b) + (a - 1) * mp.log(u) - b * u - mp.loggamma(a)
        ldp = ld(mp.mpf(max(shape - 1.0, 1e-6) / rate))
        val = mp.quad(lambda u: g(u) * mp.e ** (ld(u) - ldp), [0] + spots + [mp.inf],
                      maxdegree=8)
        return val * mp.e ** ldp


def bler_expect(shape, rate, lin, dps=40):
    """Average of the piecewise-linear error surrogate, two-piece quadrature.

    ``lin`` carries kappa0, kappa1, xi0, xi1 as floats; both pieces are
    normalized by their own integrand peak so the relative accuracy
    survives extreme tails.  Below shape 1 the head int_0^kappa0 of the
    density is taken in v = u^shape, as in ``gamma_expect``, which takes
    out its u^(shape - 1) endpoint singularity.
    """
    with mp.workdps(dps):
        k0, k1 = mp.mpf(repr(lin.kappa0)), mp.mpf(repr(lin.kappa1))
        xi0, xi1 = mp.mpf(repr(lin.xi0)), mp.mpf(repr(lin.xi1))
        a, b = mp.mpf(shape), mp.mpf(rate)
        ld = lambda u: a * mp.log(b) + (a - 1) * mp.log(u) - b * u - mp.loggamma(a)
        if shape < 1:
            head = mp.e ** (a * mp.log(b) - mp.loggamma(a + 1)) * mp.quad(
                lambda v: mp.e ** (-b * v ** (1 / a)), [0, (k0 / 2) ** a, k0 ** a],
                maxdegree=10)
        else:
            ld0 = ld(k0)
            head = mp.e ** ld0 * mp.quad(
                lambda u: mp.e ** (ld(u) - ld0), [0, k0 / 2, k0], maxdegree=10)
        ld1 = ld(k1)
        ramp = mp.e ** ld1 * mp.quad(
            lambda u: (mp.mpf("0.5") + xi0 * (u - xi1)) * mp.e ** (ld(u) - ld1),
            [k0, xi1, (xi1 + k1) / 2, k1], maxdegree=10)
        return head + ramp


def regenerate():
    """Recompute the FROZEN table; returns {key: (c1, c2, c2_bound, bler)}."""
    from risfbl.fbl import linearization_params

    ln2 = mp.log(2)
    out = {}
    for shape, rate, r, info in GRID:
        c1 = gamma_expect(shape, rate, lambda u: mp.log(1 + u) / ln2)
        c2 = gamma_expect(shape, rate,
                          lambda u: mp.sqrt(1 - 1 / (1 + u) ** 2) / ln2)
        m1 = gamma_expect(shape, rate, lambda u: (1 + u) ** -2)
        bound = (1 - m1 / 2) / ln2
        bl = bler_expect(shape, rate, linearization_params(r, info))
        bl_out = float(bl) if bl > mp.mpf(10) ** -300 else None
        out[(shape, rate, r, info)] = (float(c1), float(c2), float(bound), bl_out)
    return out


def kummer_u_ref(a, b, z, dps=30):
    """mpmath reference for the confluent hypergeometric U function."""
    with mp.workdps(dps):
        return float(mp.hyperu(a, b, z))


def log_gamma_u_ref(a, b, z, dps=40):
    with mp.workdps(dps):
        return float(mp.log(mp.gamma(a) * mp.hyperu(a, b, z)))


# ---------------------------------------------------------------------------
# Cross-check forms used only by the tests
# ---------------------------------------------------------------------------

def kummer_u(a, b, z):
    """Confluent hypergeometric Kummer U(a, b, z) from the library's log form."""
    return math.exp(log_gamma_kummer_u(a, b, z) - sp.gammaln(a))


def ln_gamma(x):
    """Natural log of the Gamma function for x > 0."""
    if x <= 0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return float(sp.gammaln(x))


def upper_inc_gamma(a, x):
    """Unregularized upper incomplete gamma Gamma(a, x), a > 0, x >= 0."""
    if a <= 0:
        raise DomainError(f"upper_inc_gamma requires a > 0, got a={a}")
    if x < 0:
        raise DomainError(f"upper_inc_gamma requires x >= 0, got x={x}")
    q = float(sp.gammaincc(a, x))
    if q == 0.0:
        return 0.0
    return math.exp(sp.gammaln(a) + math.log(q))


def gen_exp_integral(order, z):
    """Generalized exponential integral E_nu(z) = int_1^inf e^(-z t) t^(-nu) dt.

    Computed through the identity E_nu(z) = e^(-z) U(1, 2 - nu, z), which
    is how the rate lower bound evaluates its e^beta E_alpha(beta) term.
    """
    if z <= 0:
        raise DomainError(f"gen_exp_integral requires z > 0, got {z}")
    if order < 0:
        raise DomainError(f"gen_exp_integral requires order >= 0, got {order}")
    return math.exp(-z + log_gamma_kummer_u(1.0, 2.0 - order, z))


def avg_rate_taylor(fit):
    """Second-order Taylor approximation of the average capacity."""
    mean = fit.mean
    var = fit.shape / fit.rate ** 2
    return math.log2(1.0 + mean) - var / (2.0 * (1.0 + mean) ** 2 * math.log(2.0))


def _series_term(fit, a, b):
    """beta^alpha Gamma(a) U(a, b, beta) / Gamma(alpha), in logs."""
    return math.exp(fit.shape * math.log(fit.rate) - math.lgamma(fit.shape)
                    + log_gamma_kummer_u(a, b, fit.rate))


def c1_series(fit, K):
    """The paper's series for the average capacity, cut at K terms:
    ln(1 + g) = sum_k (g / (1 + g))^k / k, and each power averages to
    beta^alpha Gamma(alpha + k) U(alpha + k, alpha + 1, beta) / Gamma(alpha).

    Its terms fall off like (mean / (1 + mean))^k, slowly at a high mean
    SNR: cut at 100 terms it is 11% off at N = 2048, default scenario.
    So it is an oracle at the low and middle N of the figures only, and
    the library integrates E[ln(1 + g)] directly instead.
    """
    a = fit.shape
    return LOG2E * sum(_series_term(fit, a + k, a + 1.0) / k
                       for k in range(1, K + 1))


def c2_series(fit, K):
    """The paper's series for the average sqrt-dispersion, cut at K terms:
    sqrt(1 - (1 + g)^-2) = sum_j C(1/2, j) (-1)^j (1 + g)^-2j, and each
    power averages to beta^alpha U(alpha, alpha - 2j + 1, beta).

    Its terms fall off like (1 + mean)^-2j, slowly at a low mean SNR: cut
    at 100 terms it is 0.7% off at N = 16, default scenario.  So it is an
    oracle at the middle and high N of the figures only, and the library
    integrates E[sqrt(V(g))] directly instead.
    """
    a = fit.shape
    return LOG2E * sum(sp.binom(0.5, j) * (-1) ** j
                       * _series_term(fit, a, a - 2.0 * j + 1.0)
                       for j in range(K))


def per_sample_metrics(gamma, blocklength, info_bits, target_bler):
    """(C, sqrt(V), rate, BLER) per sample, as the normal approximation
    writes them: log2(1 + gamma), log2(e) sqrt(1 - (1 + gamma)^-2), and
    scipy's normal quantile and tail for Q^-1 and Q.  For gamma well
    above 1e-16, where 1 + gamma does not round to 1."""
    c = np.log2(1.0 + gamma)
    sqrt_v = math.log2(math.e) * np.sqrt(1.0 - (1.0 + gamma) ** -2)
    rate = c - stats.norm.isf(target_bler) * sqrt_v / math.sqrt(blocklength)
    bler = stats.norm.sf(math.sqrt(blocklength) * (c - info_bits / blocklength)
                         / sqrt_v)
    return c, sqrt_v, rate, bler


def linearized_q(gamma, params):
    """The piecewise-linear surrogate g(gamma) itself (vectorized)."""
    g = np.asarray(gamma, dtype=float)
    ramp = 0.5 + params.xi0 * (g - params.xi1)
    out = np.where(g < params.kappa0, 1.0,
                   np.where(g > params.kappa1, 0.0, ramp))
    return float(out) if out.ndim == 0 else out


def moments_X_perfect_expanded(gains: LinkGains, n_elements: int) -> Moments:
    """Fully expanded perfect-phase moment formulas (secondary cross-check)."""
    v, r, t = gains.direct, gains.ap_ris, gains.ris_ac
    N = float(n_elements)
    pi = math.pi
    m1 = (
        v
        + N * r * t
        + pi ** 2 * N * (N - 1) / 16.0 * r * t
        + pi * N / 4.0 * math.sqrt(pi * v * r * t)
    )
    m2 = (
        2.0 * v ** 2
        + v * r * t * N * (6.0 + 3.0 * (N - 1) * pi ** 2 / 8.0)
        + 3.0 * N * pi ** 1.5 / 4.0 * math.sqrt(v ** 3 * r * t)
        + r ** 2 * t ** 2 * N / 256.0 * (
            pi ** 4 * (N - 3) * (N - 2) * (N - 1)
            + 48.0 * pi ** 2 * (2.0 * N - 1) * (N - 1)
            + 768.0 * N
            + 256.0
        )
        + math.sqrt(v * r ** 3 * t ** 3) * N * pi ** 1.5 / 32.0 * (
            pi ** 2 * (N - 2) * (N - 1) + 48.0 * N - 12.0
        )
    )
    return Moments(m1=m1, m2=m2)


def moments_X_structural(gains: LinkGains, n_elements: int, spread: float,
                         dps=50):
    """(m1, m2) of X from the structural sums, in mpmath at ``dps`` digits.

    The double, triple and quadruple sums over the elements' phase
    factors, with the six cosine expectations of a phase error uniform
    on (-s pi, s pi) substituted: E[cos phi], E[cos^2 phi],
    E[cos(phi_n - phi_m)], E[cos^2(phi_n - phi_m)],
    E[cos phi_n cos(phi_n - phi_m)] and
    E[cos(phi_n - phi_m) cos(phi_n' - phi_n)], for distinct n, m, n'.
    The gains and the spread are taken as exact binary values.
    """
    with mp.workdps(dps):
        v, r, t = (mp.mpf(x) for x in (gains.direct, gains.ap_ris, gains.ris_ac))
        N = mp.mpf(n_elements)
        s = mp.mpf(spread)
        pi = mp.pi
        s1 = mp.sincpi(s)
        s2 = mp.sincpi(2 * s)
        e1 = s1
        e2 = (1 + s2) / 2
        e3 = s1 * s1
        e4 = (1 + s2 * s2) / 2
        e5 = s1 * (1 + s2) / 2
        e6 = (1 + s2) * s1 * s1 / 2
        m1 = (v + N * r * t + pi ** 2 / 16 * r * t * N * (N - 1) * e3
              + pi / 4 * mp.sqrt(pi * v * r * t) * N * e1)
        m2 = (
            2 * v ** 2
            + v * r * t * (2 * N + 4 * N * e2
                           + pi ** 2 / 8 * N * (N - 1) * (e3 + 2 * e1 * e1))
            + 3 * pi / 4 * mp.sqrt(pi * v ** 3 * r * t) * N * e1
            + r ** 2 * t ** 2 * (
                N * (N + 3)
                + pi ** 2 * (2 * N + 5) / 16 * N * (N - 1) * e3
                + 2 * N * (N - 1) * e4
                + pi ** 2 / 4 * N * (N - 1) * (N - 2) * e6
                + pi ** 4 / 256 * N * (N - 1) * (N - 2) * (N - 3) * e3 * e3)
            + mp.sqrt(v * r ** 3 * t ** 3) * pi ** 1.5 * (
                (4 * N + 5) / 8 * N * e1
                + N * (N - 1) * e5
                + pi ** 2 / 32 * N * (N - 1) * (N - 2) * e3 * e1)
        )
        return m1, m2


def second_moment_phase_error_expanded(gains: LinkGains, n_elements: int,
                                      spread: float) -> float:
    """E[X^2] in its long single-expansion form.

    Kept for cross-checking only: relative to ``moments_X_structural``
    it is missing an N(N-1) * (ap_ris * ris_ac)^2 term.
    """
    v, r, t = gains.direct, gains.ap_ris, gains.ris_ac
    N = float(n_elements)
    pi = math.pi
    s1 = sinc_norm(spread)
    s2 = sinc_norm(2.0 * spread)
    return (
        2.0 * v ** 2
        + N * v * r * t * (4.0 + 2.0 * s2 + 3.0 * pi ** 2 * (N - 1) / 8.0 * s1 ** 2)
        + math.sqrt(v ** 3 * r * t) * (3.0 * pi ** 1.5 * N / 4.0) * s1
        + N * r ** 2 * t ** 2 * (
            N + 3.0
            + pi ** 2 / 16.0 * (N - 1) * (2.0 * N + 5.0) * s1 ** 2
            + (N - 1) * s2 ** 2
            + pi ** 2 / 8.0 * (N - 1) * (N - 2) * s1 ** 2 * (1.0 + s2)
            + pi ** 4 / 2 ** 8 * s1 ** 4 * (N - 1) * (N - 2) * (N - 3)
        )
        + N * math.sqrt(v * r ** 3 * t ** 3) * s1 * pi ** 1.5 * (
            (8.0 * N + 1.0) / 8.0
            + (N - 1) / 2.0 * (s2 + (N - 2) * pi ** 2 / 16.0 * s1 ** 2)
        )
    )


def k_distribution_cdf(gamma, n_elements: int, scale: float):
    """P(gamma_s <= gamma) for the spread-1 reflector with no direct link.

    Each element's term is isotropic, so the element sum is sqrt(G) Z with
    G ~ Gamma(N, 1) and Z ~ CN(0, 1), and gamma_s = scale * G * E with
    E ~ Exp(1), scale = rho * ap_ris * ris_ac: the K-distribution,
    1 - 2 y^(N/2) K_N(2 sqrt(y)) / Gamma(N) at y = gamma / scale.  The
    second term is formed in logs, with K_N(z) = kve(N, z) e^-z.
    """
    y = np.asarray(gamma, dtype=float) / scale
    z = 2.0 * np.sqrt(y)
    n = float(n_elements)
    log_tail = (math.log(2.0) + 0.5 * n * np.log(y) + np.log(sp.kve(n, z)) - z
                - sp.gammaln(n))
    return -np.expm1(log_tail)


def k_distribution_cdf_ref(y, n_elements: int, dps=40):
    """mpmath reference for ``k_distribution_cdf`` at y = gamma / scale."""
    with mp.workdps(dps):
        y = mp.mpf(y)
        return float(1 - 2 * y ** (mp.mpf(n_elements) / 2)
                     * mp.besselk(n_elements, 2 * mp.sqrt(y)) / mp.gamma(n_elements))


def spread_one_direct_cdf(gamma, n_elements: int, scale: float, v: float):
    """P(gamma_s <= gamma) for the spread-1 reflector with a direct link.

    As in ``k_distribution_cdf``, the element sum is amp sqrt(G) Z with
    G ~ Gamma(N, 1); the direct link is CN(0, direct) and independent of
    it, so given G the SNR is exponential with mean scale (v + G), where
    scale = rho * ap_ris * ris_ac and v = direct / (ap_ris * ris_ac).  So
    P(gamma_s <= gamma) = 1 - E_G[exp(-y / (v + G))] at y = gamma / scale,
    the average taken on 64 generalized Gauss-Laguerre nodes of the
    weight g^(N - 1) e^-g, whose weights sum to Gamma(N).
    """
    g, wts = sp.roots_genlaguerre(64, n_elements - 1)
    y = np.asarray(gamma, dtype=float)[..., None] / scale
    return 1.0 - np.exp(-y / (v + g)) @ (wts / np.sum(wts))


def spread_one_direct_cdf_ref(y, n_elements: int, v, dps=30):
    """mpmath reference for ``spread_one_direct_cdf`` at y = gamma / scale."""
    with mp.workdps(dps):
        y, v, n = mp.mpf(y), mp.mpf(v), mp.mpf(n_elements)
        sd = mp.sqrt(n)
        pts = ([0] + [n + k * sd for k in range(-4, 9) if n + k * sd > 0]
               + [mp.inf])
        avg = mp.quad(lambda g: mp.e ** ((n - 1) * mp.log(g) - g
                                         - mp.loggamma(n) - y / (v + g)), pts)
        return float(1 - avg)


# ---------------------------------------------------------------------------
# Literal Monte Carlo sampler
# ---------------------------------------------------------------------------

def quantizer_step(phase: QuantizedBits) -> float:
    """Spacing of a b-bit quantizer's 2^b levels, 2 pi / 2^b = pi / 2^(b-1)."""
    return math.pi / 2.0 ** (phase.bits - 1)


def _literal_phase_errors(rng, theta_star, phase: PhaseModel):
    """Residual phase error actually applied on top of perfect alignment."""
    if isinstance(phase, Perfect):
        return np.zeros_like(theta_star)
    if isinstance(phase, UniformSpread):
        s = phase.spread
        return rng.uniform(-s * math.pi, s * math.pi, size=theta_star.shape)
    if isinstance(phase, QuantizedBits):
        # controller snaps the ideal shift to the nearest quantizer level
        step = quantizer_step(phase)
        snapped = np.round(theta_star / step) * step
        return snapped - theta_star
    raise DomainError(f"unknown phase model {phase!r}")


def sample_snr_literal(gains: LinkGains, n_elements: int, phase: PhaseModel,
                       rho: float, cfg: McConfig = McConfig()) -> np.ndarray:
    """Draw received-SNR realizations gamma = rho * X.

    Each realization draws the direct link and all element channels as
    circular complex Gaussians, computes the ideal conjugate phase for
    every element, perturbs it per the phase model, and sums coherently.
    It reads the stream as normals, so ``risfbl.montecarlo.sample_snr``
    can match it only in distribution.
    """
    if n_elements < 0:
        raise DomainError("n_elements must be >= 0")
    if rho <= 0:
        raise DomainError("rho must be > 0")
    rng = np.random.Generator(np.random.Philox(key=[cfg.seed, cfg.stream_id]))
    out = np.empty(cfg.n_samples)
    done = 0
    while done < cfg.n_samples:
        m = min(cfg.chunk, cfg.n_samples - done)
        if gains.direct > 0:
            hd = math.sqrt(gains.direct / 2.0) * (
                rng.standard_normal((m,)) + 1j * rng.standard_normal((m,)))
        else:
            hd = np.zeros(m, dtype=complex)
        if n_elements > 0:
            a = math.sqrt(gains.ap_ris / 2.0) * (
                rng.standard_normal((m, n_elements))
                + 1j * rng.standard_normal((m, n_elements)))
            b = math.sqrt(gains.ris_ac / 2.0) * (
                rng.standard_normal((m, n_elements))
                + 1j * rng.standard_normal((m, n_elements)))
            cascade = a * b
            ref = np.where(np.abs(hd) > 0, np.angle(hd), 0.0)
            theta_star = ref[:, None] - np.angle(cascade)
            phi = _literal_phase_errors(rng, theta_star, phase)
            total = hd + np.sum(cascade * np.exp(1j * (theta_star + phi)), axis=1)
        else:
            total = hd
        out[done:done + m] = np.abs(total) ** 2
        done += m
    return rho * out


def sample_snr_same_draws(gains: LinkGains, n_elements: int, phase: PhaseModel,
                          rho: float, cfg: McConfig = McConfig()) -> np.ndarray:
    """The literal complex controller on ``sample_snr``'s own draws.

    Redraws the whole (n_samples, d + 2N) magnitude array from the cell's
    stream and the (n_samples, N) phase array from that stream's first
    child, one call each, in the layout ``risfbl.montecarlo.sample_snr``
    documents, takes the exponential columns as E = -log1p(-U), builds
    the real, positive h_d = |h_d| (the sampler's frame) and
    c_n = |a_n||b_n| e^{j psi_n}, and runs the controller in complex
    arithmetic: ideal shift -arg c_n from ``np.angle``, the residual of
    the phase model on top of it, a complex sum and its squared modulus.
    Perfect draws no phase, so psi_n = 0.  UniformSpread takes
    psi_n = 2 pi U_n and the residual from the same U_n.  QuantizedBits
    snaps the ideal shift to the nearest level with ``np.round``; its
    cascade phase is a uniform phase written as a level and a place in
    that level's cell, psi_n = step (k_n + U_n - 1/2), with the level k_n
    drawn uniformly from a third stream, so that the snap leaves the
    residual of the sampler's phase.
    """
    n = n_elements
    d = 1 if gains.direct > 0 else 0
    w = 0 if isinstance(phase, Perfect) else n
    seeds = np.random.SeedSequence([cfg.seed, cfg.stream_id])
    e = -np.log1p(-np.random.Generator(np.random.PCG64DXSM(seeds)).random(
        (cfg.n_samples, d + 2 * n)))
    u = np.random.Generator(np.random.PCG64DXSM(seeds.spawn(1)[0])).random(
        (cfg.n_samples, w))
    hd = np.sqrt(gains.direct * e[:, 0]) if d else np.zeros(cfg.n_samples)
    if isinstance(phase, QuantizedBits):
        step = quantizer_step(phase)
        levels = np.random.default_rng([cfg.seed, cfg.stream_id]).integers(
            0, 2 ** phase.bits, size=u.shape)
        psi = step * (levels + u - 0.5)
    else:
        psi = 2.0 * math.pi * u if w else 0.0
    cascade = (math.sqrt(gains.ap_ris * gains.ris_ac)
               * np.sqrt(e[:, d:d + n] * e[:, d + n:]) * np.exp(1j * psi))
    theta_star = -np.angle(cascade)
    if isinstance(phase, Perfect):
        phi = 0.0
    elif isinstance(phase, UniformSpread):
        phi = phase.spread * math.pi * (2.0 * u - 1.0)
    else:
        phi = np.round(theta_star / step) * step - theta_star
    total = hd + np.sum(cascade * np.exp(1j * (theta_star + phi)), axis=1)
    return rho * np.abs(total) ** 2
