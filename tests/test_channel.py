"""Link budget, composite-channel moments, the spread-1 exact law and
moment matching."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from risfbl.channel import (
    GammaFit,
    Geometry,
    LinkGains,
    Moments,
    Perfect,
    QuantizedBits,
    RadioConfig,
    UniformSpread,
    asymptotic_trend,
    fit_snr,
    gamma_fit,
    link_gains,
    moments_X,
    path_loss_gain,
    snr_scale,
)
from risfbl.experiments import ScenarioConfig
from risfbl.fbl import avg_blocklength
from risfbl.montecarlo import McConfig, sample_snr
from risfbl.specfun import DomainError, gamma_cdf, log_gamma_kummer_u

import oracles


def default_gains():
    return link_gains(Geometry(), direct_link=False)


class TestLinkBudget:
    def test_path_loss_reference_distance(self):
        # 34.53 dB intercept + 38 dB/decade: D = 100 m -> 110.53 dB
        assert path_loss_gain(100.0) == pytest.approx(10 ** -11.053, rel=1e-12,
                                                      abs=0)

    def test_path_loss_exponent_knob(self):
        assert path_loss_gain(10.0, exponent=2.0) == pytest.approx(
            10 ** (-(34.53 + 20.0) / 10.0), rel=1e-12)

    def test_path_loss_domain(self):
        with pytest.raises(DomainError):
            path_loss_gain(0.5)

    def test_snr_scale_matches_budget(self):
        # 23 dBm - (-174 dBm/Hz + 53 dBHz + 3 dB) = 141 dB
        rho_db = 10.0 * math.log10(snr_scale(RadioConfig()))
        assert rho_db == pytest.approx(141.0, abs=1e-9)

    def test_no_direct_zeroes_gain(self):
        g = link_gains(Geometry(), direct_link=False)
        assert g.direct == 0.0
        assert g.ap_ris > 0 and g.ris_ac > 0

    def test_geometry_distances(self):
        geo = Geometry(ap=(0.0, 0.0), ac=(100.0, 0.0), ris=(91.0, 5.0))
        assert geo.d_ap_ac() == pytest.approx(100.0)
        assert geo.d_ap_ris() == pytest.approx(math.hypot(91.0, 5.0))
        assert geo.d_ris_ac() == pytest.approx(math.hypot(9.0, 5.0))

    def test_geometry_3d_lifts_ap(self):
        flat = Geometry()
        lifted = Geometry(ap_height=12.5)
        assert flat.d_ap_ac() == 100.0
        assert lifted.d_ap_ac() == math.sqrt(100.0 ** 2 + 12.5 ** 2)
        assert lifted.d_ap_ris() == math.sqrt(91.0 ** 2 + 5.0 ** 2 + 12.5 ** 2)
        # RIS-AC leg stays planar
        assert lifted.d_ris_ac() == flat.d_ris_ac()
        with pytest.raises(DomainError):
            Geometry(ap_height=-1.0)


class TestPhaseModels:
    def test_spread_encoding(self):
        assert Perfect().spread == 0.0
        assert QuantizedBits(1).spread == 0.5
        assert QuantizedBits(2).spread == 0.25

    def test_invalid_models(self):
        with pytest.raises(DomainError):
            UniformSpread(0.0)
        with pytest.raises(DomainError):
            UniformSpread(1.5)
        with pytest.raises(DomainError):
            QuantizedBits(0)
        # a float64 phase cannot resolve a step finer than 2^-52 of a turn
        assert QuantizedBits(52).spread == 2.0 ** -52
        with pytest.raises(DomainError):
            QuantizedBits(53)


class TestMoments:
    def test_single_element_uniform_formula(self):
        # N=1: m1 = direct + product + (pi^(3/2)/4) sqrt(product terms) sinc(s)
        g = LinkGains(direct=2e-12, ap_ris=3e-11, ris_ac=5e-8)
        s = 0.3
        m = moments_X(g, 1, UniformSpread(s))
        expect = (g.direct + g.ap_ris * g.ris_ac
                  + (math.pi ** 1.5 / 4.0)
                  * math.sqrt(g.direct * g.ap_ris * g.ris_ac)
                  * np.sinc(s))
        assert m.m1 == pytest.approx(expect, rel=1e-12, abs=0)

    def test_single_element_no_direct(self):
        g = LinkGains(direct=0.0, ap_ris=1e-10, ris_ac=1e-8)
        m = moments_X(g, 1, Perfect())
        # product of two Rayleigh powers: E[X] = rt, E[X^2] = 4 (rt)^2
        assert m.m1 == pytest.approx(g.ap_ris * g.ris_ac, rel=1e-13, abs=0)
        assert m.m2 == pytest.approx(4.0 * (g.ap_ris * g.ris_ac) ** 2,
                                     rel=1e-13, abs=0)

    def test_direct_only_exponential(self):
        g = LinkGains(direct=4e-12, ap_ris=1e-10, ris_ac=1e-8)
        m = moments_X(g, 0, Perfect())
        assert m.m1 == pytest.approx(g.direct, rel=1e-13, abs=0)
        assert m.m2 == pytest.approx(2.0 * g.direct ** 2, rel=1e-13, abs=0)

    def test_no_direct_and_no_elements_rejected(self):
        g = LinkGains(direct=0.0, ap_ris=1e-10, ris_ac=1e-8)
        with pytest.raises(DomainError):
            moments_X(g, 0, Perfect())

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 513])
    def test_structural_equals_expanded_perfect(self, n):
        g = link_gains(Geometry())
        a = moments_X(g, n, Perfect())
        b = oracles.moments_X_perfect_expanded(g, n)
        assert a.m1 == pytest.approx(b.m1, rel=1e-12, abs=0)
        assert a.m2 == pytest.approx(b.m2, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n,spread", [(2, 0.25), (10, 0.5), (100, 1.0)])
    def test_expanded_second_moment_missing_term(self, n, spread):
        # the long expansion drops exactly N(N-1)(ap_ris * ris_ac)^2.  The
        # term is 5.1e-15, 2.3e-13 and 2.5e-11 of m2 (~1.6e-22) at N = 2, 10
        # and 100, so the check is relative with no absolute floor, and adds
        # the term rather than subtract two m2 values that agree to 14 digits
        g = link_gains(Geometry())
        full = moments_X(g, n, UniformSpread(spread)).m2
        expanded = oracles.second_moment_phase_error_expanded(g, n, spread)
        missing = n * (n - 1) * (g.ap_ris * g.ris_ac) ** 2
        assert expanded + missing == pytest.approx(full, rel=1e-15, abs=0)

    @pytest.mark.parametrize("direct", [True, False], ids=["direct", "no-direct"])
    @pytest.mark.parametrize("phase", [
        Perfect(), QuantizedBits(1), QuantizedBits(2), QuantizedBits(3),
        UniformSpread(0.25), UniformSpread(1.0)],
        ids=["perfect", "1bit", "2bit", "3bit", "uniform:0.25", "uniform:1"])
    def test_moments_match_structural_reference(self, phase, direct):
        # against the structural sums in 50-digit mpmath, to a few ulp;
        # the variance cancels about log10(N) digits at perfect phase
        g = link_gains(Geometry(), direct_link=direct)
        for n in (1, 2, 3, 4, 16, 256, 2048, 8192):
            m = moments_X(g, n, phase)
            r1, r2 = oracles.moments_X_structural(g, n, phase.spread)
            with mpmath.workdps(50):
                assert abs(m.m1 - r1) <= 2e-15 * r1, n
                assert abs(m.m2 - r2) <= 2e-15 * r2, n
                var = r2 - r1 * r1
                assert abs(m.variance - var) <= 2e-12 * var, n

    def test_quantizer_matches_uniform_spread(self):
        # analytically a b-bit quantizer is a residual spread of 2^-b
        g = default_gains()
        mq = moments_X(g, 32, QuantizedBits(2))
        mu = moments_X(g, 32, UniformSpread(0.25))
        assert mq.m1 == mu.m1 and mq.m2 == mu.m2

    def test_moments_validation(self):
        with pytest.raises(DomainError, match=r"m2 must exceed m1\^2"):
            Moments(m1=1.0, m2=0.5)
        with pytest.raises(DomainError, match="m1 must be > 0"):
            Moments(m1=0.0, m2=1.0)
        with pytest.raises(DomainError, match="n_elements must be >= 0"):
            moments_X(link_gains(Geometry(), direct_link=True), -1, Perfect())

    @pytest.mark.parametrize("n,phase,direct,needle", [
        (-1, Perfect(), True, "n_elements must be >= 0"),
        (0, Perfect(), False, "N = 0 requires a direct link"),
        (16, object(), True, "unknown phase model <object"),
        (16, "2bit", False, "unknown phase model '2bit'"),
    ], ids=("negative-n", "no-channel", "object-phase", "label-phase"))
    def test_channel_input_rule(self, n, phase, direct, needle):
        # the moments, the fit and the sampler share one input rule, so a
        # bad phase model is a DomainError before any attribute is read
        g = link_gains(Geometry(), direct_link=direct)
        rho = snr_scale(RadioConfig())
        for call in (lambda: moments_X(g, n, phase),
                     lambda: fit_snr(g, n, phase, rho),
                     lambda: sample_snr(g, n, phase, rho, McConfig())):
            with pytest.raises(DomainError, match=re.escape(needle)):
                call()


class TestSpreadOneExactLaw:
    """Spread 1 makes every element isotropic: with no direct link the SNR
    is K-distributed, and with it a Gamma mixture of exponentials, so the
    sampler's rotation path has an exact law."""

    @pytest.mark.parametrize("n,y", [(1, 0.01), (4, 2.0), (64, 70.0)])
    def test_cdf_matches_mpmath(self, n, y):
        assert float(oracles.k_distribution_cdf(y, n, 1.0)) == pytest.approx(
            oracles.k_distribution_cdf_ref(y, n), rel=1e-12)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_sampler_ks_against_exact_cdf(self, n):
        g = default_gains()
        rho = snr_scale(RadioConfig())
        cfg = McConfig(n_samples=10_000, seed=11)
        x = sample_snr(g, n, UniformSpread(1.0), rho, cfg)
        scale = rho * g.ap_ris * g.ris_ac
        ks = stats.kstest(x, lambda t: oracles.k_distribution_cdf(t, n, scale))
        # 0.1% critical value of the KS statistic
        assert ks.statistic < 1.95 / math.sqrt(cfg.n_samples)

    @pytest.mark.parametrize("n,y", [(4, 0.3), (16, 32.0), (64, 600.0)])
    def test_direct_cdf_matches_mpmath(self, n, y):
        # lower tail, middle and upper tail, with v = N as in the KS test
        assert float(oracles.spread_one_direct_cdf(y, n, 1.0, n)) == pytest.approx(
            oracles.spread_one_direct_cdf_ref(y, n, n), rel=1e-10)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_sampler_ks_with_direct_link(self, n):
        # the direct link's draw and the phase stream together: the direct
        # link carries N a^2, as much mean power as the RIS, where the
        # default geometry's carries 1e4-1e6 times more and hides the RIS
        hops = default_gains()
        a2 = hops.ap_ris * hops.ris_ac
        g = LinkGains(direct=n * a2, ap_ris=hops.ap_ris, ris_ac=hops.ris_ac)
        rho = snr_scale(RadioConfig())
        cfg = McConfig(n_samples=10_000, seed=11)
        x = sample_snr(g, n, UniformSpread(1.0), rho, cfg)
        ks = stats.kstest(
            x, lambda t: oracles.spread_one_direct_cdf(t, n, rho * a2, n))
        # 0.1% critical value of the KS statistic
        assert ks.statistic < 1.95 / math.sqrt(cfg.n_samples)

    @pytest.mark.parametrize("n", [1, 4, 16, 64, 1024])
    def test_moments_of_the_exact_law(self, n):
        # E[G E] = N and E[(G E)^2] = 2 N (N + 1)
        g = default_gains()
        a2 = g.ap_ris * g.ris_ac
        m = moments_X(g, n, UniformSpread(1.0))
        assert m.m1 == pytest.approx(a2 * n, rel=1e-15, abs=0)
        assert m.m2 == pytest.approx(2.0 * n * (n + 1) * a2 * a2,
                                     rel=1e-15, abs=0)


class TestGammaFit:
    def test_fit_preserves_first_two_moments(self):
        g = default_gains()
        rho = snr_scale(RadioConfig())
        m = moments_X(g, 128, QuantizedBits(2))
        fit = gamma_fit(m, rho)
        assert fit.mean == pytest.approx(rho * m.m1, rel=1e-12)
        # E[gamma^2] = shape (shape + 1) / rate^2
        second = fit.shape * (fit.shape + 1.0) / fit.rate ** 2
        assert second == pytest.approx(rho ** 2 * m.m2, rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=1e3),
           st.floats(min_value=1.01, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_fit_roundtrip_property(self, m1, ratio):
        m = Moments(m1=m1, m2=ratio * m1 * m1)
        fit = gamma_fit(m, 1.0)
        assert fit.shape > 0 and fit.rate > 0
        assert fit.mean == pytest.approx(m1, rel=1e-9)
        assert fit.shape / fit.rate ** 2 == pytest.approx(m.variance, rel=1e-9)

    def test_fit_shape_scale_invariant(self):
        # shape depends only on N and the phase model, not on the gains
        g1 = default_gains()
        g2 = LinkGains(direct=0.0, ap_ris=g1.ap_ris * 7.0, ris_ac=g1.ris_ac)
        f1 = fit_snr(g1, 64, Perfect(), 1.0)
        f2 = fit_snr(g2, 64, Perfect(), 1.0)
        assert f1.shape == pytest.approx(f2.shape, rel=1e-12)

    def test_invalid_fit_parameters(self):
        with pytest.raises(DomainError):
            GammaFit(shape=0.0, rate=1.0)
        with pytest.raises(DomainError):
            gamma_fit(Moments(m1=1.0, m2=3.0), rho=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_fit_parameters(self, bad):
        with pytest.raises(DomainError):
            GammaFit(shape=bad, rate=1.0)
        with pytest.raises(DomainError):
            GammaFit(shape=1.0, rate=bad)


class TestAsymptotics:
    def test_trend_slopes(self):
        g = default_gains()
        trend = asymptotic_trend(g, Perfect(), [256, 512, 1024, 2048, 4096])
        assert trend["mean_slope"] == pytest.approx(2.0, abs=0.1)
        assert trend["variance_slope"] == pytest.approx(3.0, abs=0.15)

    def test_shape_grows_rate_shrinks(self):
        g = default_gains()
        trend = asymptotic_trend(g, QuantizedBits(2), [256, 512, 1024, 2048])
        assert np.all(np.diff(trend["shapes"]) > 0)
        assert np.all(np.diff(trend["rates"]) < 0)

    def test_grid_validation(self):
        g = default_gains()
        with pytest.raises(DomainError):
            asymptotic_trend(g, Perfect(), [16, 32])
        with pytest.raises(DomainError):
            asymptotic_trend(g, Perfect(), [512, 256])


@pytest.mark.parametrize("make,kwargs", [
    (GammaFit, {"shape": math.nan, "rate": 1.0}),
    (GammaFit, {"shape": 1.0, "rate": math.nan}),
    (LinkGains, {"direct": math.nan, "ap_ris": 1.0, "ris_ac": 1.0}),
    (LinkGains, {"direct": 1.0, "ap_ris": math.nan, "ris_ac": 1.0}),
    (LinkGains, {"direct": 1.0, "ap_ris": 1.0, "ris_ac": math.nan}),
    (LinkGains, {"direct": math.inf, "ap_ris": 1.0, "ris_ac": 1.0}),
    (LinkGains, {"direct": 1.0, "ap_ris": math.inf, "ris_ac": 1.0}),
    (LinkGains, {"direct": 1.0, "ap_ris": 1.0, "ris_ac": math.inf}),
    (RadioConfig, {"tx_power": math.nan}),
    (RadioConfig, {"noise_density": math.nan}),
    (RadioConfig, {"bandwidth": math.nan}),
    (RadioConfig, {"noise_figure": math.nan}),
    (Geometry, {"ap": (math.nan, 0.0)}),
    (Geometry, {"ac": (100.0, math.nan)}),
    (Geometry, {"ris": (math.nan, 5.0)}),
    (Geometry, {"ap_height": math.nan}),
    (ScenarioConfig, {"direct_exponent": math.nan}),
], ids=["fit-shape", "fit-rate", "gains-direct", "gains-ap_ris",
        "gains-ris_ac", "gains-direct-inf", "gains-ap_ris-inf",
        "gains-ris_ac-inf", "radio-tx_power", "radio-noise_density",
        "radio-bandwidth", "radio-noise_figure", "geometry-ap",
        "geometry-ac", "geometry-ris", "geometry-ap_height",
        "scenario-direct_exponent"])
def test_constructors_reject_nan(make, kwargs):
    # every range check is written so that NaN fails it, and a gain must
    # be finite
    with pytest.raises(DomainError):
        make(**kwargs)


@pytest.mark.parametrize("call", [
    lambda: gamma_cdf(math.nan, 1.0, 1.0),
    lambda: gamma_cdf(1.0, math.nan, 1.0),
    lambda: gamma_cdf(1.0, 1.0, math.nan),
    lambda: gamma_cdf(1.0, 1.0, [0.5, math.nan]),
    lambda: path_loss_gain(math.nan),
    lambda: sample_snr(LinkGains(1.0, 1.0, 1.0), 4, Perfect(), math.nan),
    lambda: avg_blocklength(math.nan, 1.0, 240, 1e-9),
    lambda: avg_blocklength(1.0, math.nan, 240, 1e-9),
    lambda: log_gamma_kummer_u(math.nan, 1.0, 1.0),
    lambda: log_gamma_kummer_u(1.0, math.nan, 1.0),
    lambda: log_gamma_kummer_u(1.0, 1.0, math.nan),
], ids=["gamma_cdf-shape", "gamma_cdf-rate", "gamma_cdf-x", "gamma_cdf-x-array",
        "path_loss-distance", "sample_snr-rho", "blocklength-c1",
        "blocklength-c2", "kummer-a", "kummer-b", "kummer-z"])
def test_scalar_checks_reject_nan(call):
    with pytest.raises(DomainError):
        call()
