"""Finite-blocklength metrics: per-sample forms and Gamma averages."""

import dataclasses
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import special as sp

from risfbl import experiments, fbl, specfun
from risfbl.channel import GammaFit
from risfbl.experiments import (
    N_GRID,
    ScenarioConfig,
    phase_from_label,
)
from risfbl.fbl import (
    PacketConfig,
    avg_bler,
    avg_bler_detail,
    avg_blocklength,
    avg_rate_exact,
    avg_rate_lower_bound,
    c1_avg_capacity,
    c2_avg_sqrt_dispersion,
    linearization_params,
)
from risfbl.specfun import DEFAULT_POLICY, LOG2E, DomainError, EvalPolicy, NonConvergenceError, inv_q, q_function

import oracles
from test_specfun import probe_drops, settled_and_alone

WIDE_POLICY = EvalPolicy(rel_tol=1e-9)


def gl_reference(fit, lin, panels):
    """The average-BLER reference's integral on ``panels`` even 12-point
    Gauss-Legendre panels of the ramp, apart from the library's rule."""
    x, w = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(lin.kappa0, lin.kappa1, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * x).ravel()
    return -lin.xi0 * float((half * w).ravel() @ sp.gammainc(
        fit.shape, fit.rate * nodes))


def gamma_averages_ref(shape, mean, dps=40):
    """The three Gamma averages of ``fbl._gamma_averages`` by mpmath, in
    t = ln(gamma / mean) with breakpoints every 2 sd out to 40 sd."""
    import mpmath as mp
    with mp.workdps(dps):
        a, m = mp.mpf(shape), mp.mpf(mean)
        c = a * mp.log(a) - a - mp.loggamma(a)
        pts = [k / mp.sqrt(a) for k in range(-40, 41, 2)]
        fs = (lambda g: mp.log1p(g), lambda g: mp.sqrt(1 - 1 / (1 + g) ** 2),
              lambda g: 1 - 1 / (1 + g) ** 2)
        return [float(mp.quad(
            lambda t: f(m * mp.exp(t)) * mp.exp(a * (t - mp.expm1(t)) + c), pts))
            for f in fs]


SERIES_CASES = [
    (0.5, 0.05), (2.0, 1.0), (10.0, 10.0), (50.0, 0.05), (200.0, 10.0),
    (0.2, 10.0), (0.1, 1e-3), (5000.0, 1.0)]


class TestInstantaneous:
    """The per-sample forms in (C, sqrt(V)) that the Gamma averages and
    the Monte Carlo share."""

    def test_capacity_known(self):
        assert fbl._capacity_sqrt_dispersion(1.0)[0] == pytest.approx(1.0)
        assert fbl._capacity_sqrt_dispersion(15.0)[0] == pytest.approx(4.0)

    def test_dispersion_limits(self):
        assert fbl._capacity_sqrt_dispersion(0.0)[1] == 0.0
        assert fbl._capacity_sqrt_dispersion(1e9)[1] ** 2 == pytest.approx(
            LOG2E ** 2, rel=1e-8)
        _, sqrt_v = fbl._capacity_sqrt_dispersion(np.geomspace(1e-3, 1e3, 50))
        assert np.all(np.diff(sqrt_v) > 0)
        assert np.all(sqrt_v < LOG2E)

    def test_rate_at_reference_point(self):
        # gamma = 10, r = 300, eps = 1e-9: C = log2(11), V = (log2 e)^2 (1 - 1/121)
        v = LOG2E ** 2 * (1.0 - 1.0 / 121.0)
        expect = math.log2(11.0) - inv_q(1e-9) * math.sqrt(v / 300.0)
        assert fbl._rate(*fbl._capacity_sqrt_dispersion(10.0), 300,
                         1e-9) == pytest.approx(expect, rel=1e-13)

    def test_bler_is_q_of_normalized_gap(self):
        g, r, L = 10.0, 300, 240
        v = LOG2E ** 2 * (1.0 - 1.0 / (1.0 + g) ** 2)
        f = math.sqrt(r / v) * (math.log2(1.0 + g) - L / r)
        assert fbl._bler(*fbl._capacity_sqrt_dispersion(g), r, L) == pytest.approx(
            q_function(f), rel=1e-13, abs=0)

    def test_bler_edge_cases(self):
        def bler(g):
            return fbl._bler(*fbl._capacity_sqrt_dispersion(g), 300, 240)

        assert bler(0.0) == 1.0
        assert bler(1e9) == 0.0
        # at the capacity threshold the argument is zero
        assert bler(2.0 ** 0.8 - 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_blocklength_solves_rate_equation(self):
        g, L, eps = 5.0, 240, 1e-7
        c, sqrt_v = fbl._capacity_sqrt_dispersion(g)
        r = fbl._blocklength(c, sqrt_v, L, eps)
        lhs = c * r - inv_q(eps) * sqrt_v * math.sqrt(r) - L
        assert lhs == pytest.approx(0.0, abs=1e-9 * L)

    def test_blocklength_decreasing_in_snr(self):
        g = np.geomspace(0.5, 100.0, 40)
        r = fbl._blocklength(*fbl._capacity_sqrt_dispersion(g), 240, 1e-9)
        assert np.all(np.diff(r) < 0)

    @pytest.mark.parametrize("g", [1e-300, 1e-20, 1e-10, 1e-3, 1.0, 1e3])
    def test_matches_mpmath_down_to_tiny_snr(self, g):
        # log2(1 + gamma) rounds 1 + gamma first and reads 0 below 1.1e-16
        import mpmath as mp

        r, L, eps = 300, 240, 1e-9
        with mp.workdps(40):
            ln_1p = mp.log1p(mp.mpf(g))
            c = ln_1p / mp.log(2)
            v = -mp.expm1(-2 * ln_1p) / mp.log(2) ** 2
            q = mp.mpf(inv_q(eps))
            rate = c - q * mp.sqrt(v / r)
            bler = mp.erfc(mp.sqrt(r / v) * (c - mp.mpf(L) / r) / mp.sqrt(2)) / 2
            length = ((q * mp.sqrt(v) + mp.sqrt(q * q * v + 4 * c * L)) / (2 * c)) ** 2
        # abs=0: pytest's default abs of 1e-12 would pass any tiny value
        got_c, sqrt_v = fbl._capacity_sqrt_dispersion(g)
        assert got_c == pytest.approx(float(c), rel=1e-14, abs=0)
        assert sqrt_v == pytest.approx(float(mp.sqrt(v)), rel=1e-14, abs=0)
        assert fbl._rate(got_c, sqrt_v, r, eps) == pytest.approx(
            float(rate), rel=1e-14, abs=0)
        assert fbl._bler(got_c, sqrt_v, r, L) == pytest.approx(
            float(bler), rel=1e-14, abs=0)
        assert fbl._blocklength(got_c, sqrt_v, L, eps) == pytest.approx(
            float(length), rel=1e-14, abs=0)


class TestSeriesAverages:
    @pytest.mark.parametrize("shape,rate", SERIES_CASES)
    def test_c1_matches_oracle(self, shape, rate):
        import mpmath as mp
        ref = float(oracles.gamma_expect(shape, rate,
                                         lambda u: mp.log(1 + u) / mp.log(2)))
        got = c1_avg_capacity(GammaFit(shape, rate), WIDE_POLICY)
        assert got == pytest.approx(ref, rel=1e-7)

    @pytest.mark.parametrize("shape,rate", SERIES_CASES)
    def test_c2_matches_oracle(self, shape, rate):
        import mpmath as mp
        ref = float(oracles.gamma_expect(
            shape, rate, lambda u: mp.sqrt(1 - 1 / (1 + u) ** 2) / mp.log(2)))
        got = c2_avg_sqrt_dispersion(GammaFit(shape, rate), WIDE_POLICY)
        assert got == pytest.approx(ref, rel=1e-7)

    # the default scenario's fits where 100 terms of each series settle
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_c1_matches_paper_series(self, n):
        fit = ScenarioConfig(n_elements=n).fit()
        assert c1_avg_capacity(fit) == pytest.approx(
            oracles.c1_series(fit, 100), rel=1e-9, abs=0)

    @pytest.mark.parametrize("n", [64, 256, 2048])
    def test_c2_matches_paper_series(self, n):
        fit = ScenarioConfig(n_elements=n).fit()
        assert c2_avg_sqrt_dispersion(fit) == pytest.approx(
            oracles.c2_series(fit, 100), rel=1e-9, abs=0)

    def test_c2_bounded_by_log2e(self):
        for shape, rate in ((0.5, 5.0), (300.0, 0.01)):
            c2 = c2_avg_sqrt_dispersion(GammaFit(shape, rate), WIDE_POLICY)
            assert 0.0 <= c2 <= LOG2E

    def test_nonconvergence_raises(self, monkeypatch):
        # the 48- and 96-interval sums differ by more than 1e-300
        monkeypatch.setattr(specfun, "_N_MAX", specfun._N0)
        fbl._gamma_averages.cache_clear()
        tight = EvalPolicy(rel_tol=1e-300)
        with pytest.raises(NonConvergenceError, match="settle at 96 intervals"):
            c1_avg_capacity(GammaFit(100.0, 0.01), tight)

    @pytest.mark.parametrize("shape", [3e3, 3e5, 3e6])
    def test_large_shape_at_tight_tolerance(self, shape):
        # the log density about its peak carries no rounding error of size
        # shape ln(shape) 1e-16, so rel_tol 1e-14 settles on the truth
        fbl._gamma_averages.cache_clear()
        got = fbl._gamma_averages(GammaFit(shape, shape), EvalPolicy(1e-14))
        assert got == pytest.approx(gamma_averages_ref(shape, 1.0), rel=2e-14)

    def test_rate_assembly(self):
        fit = GammaFit(50.0, 0.5)
        c1 = c1_avg_capacity(fit, WIDE_POLICY)
        c2 = c2_avg_sqrt_dispersion(fit, WIDE_POLICY)
        r = avg_rate_exact(fit, 300, 1e-9, WIDE_POLICY)
        assert r == pytest.approx(c1 - inv_q(1e-9) / math.sqrt(300.0) * c2,
                                  rel=1e-12)


class TestRateBounds:
    @pytest.mark.parametrize("shape,rate", [
        (5.0, 0.01), (50.0, 0.05), (200.0, 0.2), (20.0, 0.1)])
    def test_lower_bound_below_exact(self, shape, rate):
        fit = GammaFit(shape, rate)
        lb = avg_rate_lower_bound(fit, 300, 1e-9, WIDE_POLICY)
        ex = avg_rate_exact(fit, 300, 1e-9, WIDE_POLICY)
        assert lb <= ex + 1e-12
        # tight for well-hardened channels
        if shape >= 50:
            assert lb == pytest.approx(ex, rel=2e-3)

    def test_dispersion_bound_term(self):
        # the bound's dispersion factor is (1 - E[(1+g)^-2]/2) / ln 2
        shape, rate = 5.0, 0.1
        ref = float(oracles.gamma_expect(shape, rate, lambda u: (1 + u) ** -2))
        bound = (1.0 - ref / 2.0) / math.log(2.0)
        fit = GammaFit(shape, rate)
        lb = avg_rate_lower_bound(fit, 300, 1e-9, WIDE_POLICY)
        c1_lb = math.log2(1.0 + shape ** 2 / (rate * (shape + 1.0)))
        recovered = (c1_lb - lb) * math.sqrt(300.0) / inv_q(1e-9)
        assert recovered == pytest.approx(bound, rel=1e-9)

    @pytest.mark.parametrize("shape,rate", [(0.1, 1e-3), (0.5, 1e-4), (0.75, 0.01)])
    def test_oracle_matches_hyperu(self, shape, rate):
        # below shape 1 the oracle's quadrature meets the density's endpoint
        # singularity with g(0) = 1; E[(1+g)^-2] has a closed form
        import mpmath as mp
        with mp.workdps(40):
            ref = mp.power(rate, shape) * mp.hyperu(shape, shape - 1, rate)
        got = oracles.gamma_expect(shape, rate, lambda u: (1 + u) ** -2)
        assert float(got) == pytest.approx(float(ref), rel=1e-13)

    @pytest.mark.parametrize("shape,rate", SERIES_CASES)
    def test_dispersion_factor_matches_hyperu(self, shape, rate):
        # E[(1+g)^-2] = rate^shape U(shape, shape - 1, rate) in closed form
        import mpmath as mp
        with mp.workdps(30):
            ref = float(mp.power(rate, shape) * mp.hyperu(shape, shape - 1, rate))
        bound = (1.0 - ref / 2.0) / math.log(2.0)
        lb = avg_rate_lower_bound(GammaFit(shape, rate), 300, 1e-9, WIDE_POLICY)
        c1_lb = math.log2(1.0 + shape ** 2 / (rate * (shape + 1.0)))
        recovered = (c1_lb - lb) * math.sqrt(300.0) / inv_q(1e-9)
        assert recovered == pytest.approx(bound, rel=1e-9)

    def test_taylor_close_at_high_shape(self):
        fit = GammaFit(500.0, 5.0)
        assert oracles.avg_rate_taylor(fit) == pytest.approx(
            c1_avg_capacity(fit, WIDE_POLICY), rel=1e-3)


class TestSharedAverages:
    """C1, C2 and the lower bound of one fit share one cached quadrature."""

    @staticmethod
    def _metrics(fit, order):
        calls = {
            "exact": lambda: avg_rate_exact(fit, 300, 1e-9),
            "bound": lambda: avg_rate_lower_bound(fit, 300, 1e-9),
            "c1": lambda: c1_avg_capacity(fit),
            "c2": lambda: c2_avg_sqrt_dispersion(fit),
        }
        return {name: calls[name]() for name in order}

    def test_one_kernel_call_per_fit(self, monkeypatch):
        kernel = fbl._log_integral
        calls = []

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        # Kummer U reaches the kernel through specfun's global
        monkeypatch.setattr(fbl, "_log_integral", counting)
        monkeypatch.setattr(specfun, "_log_integral", counting)
        fbl._gamma_averages.cache_clear()
        self._metrics(GammaFit(30.0, 0.2), ("exact", "bound", "c1", "c2"))
        assert len(calls) == 1

    @pytest.mark.parametrize("shape,rate", SERIES_CASES)
    def test_integrand_calls_bounded(self, monkeypatch, shape, rate):
        # the probes, the first grid, then at most one call per halving
        sizes = []
        kernel = fbl._log_integral

        def counting(log_f, policy, v_peak):
            def counted(v):
                sizes.append(np.size(v))
                return log_f(v)
            return kernel(counted, policy, v_peak)

        monkeypatch.setattr(fbl, "_log_integral", counting)
        fbl._gamma_averages.cache_clear()
        c1_avg_capacity(GammaFit(shape, rate), WIDE_POLICY)
        assert len(sizes) <= 2 + math.log2(specfun._N_MAX // specfun._N0)
        assert min(sizes) > 1

    @pytest.mark.parametrize("shape,rate", SERIES_CASES)
    def test_one_grid_per_refinement(self, monkeypatch, shape, rate):
        # the probes start at the density's peak, t = 0; from there on each
        # refinement is evaluated once, for the stack of all three
        # averages, on the nodes it adds: no node twice
        seen, shapes = [], []
        kernel = fbl._log_integral

        def counting(log_f, policy, v_peak):
            def counted(v):
                seen.append(np.copy(v))
                out = log_f(v)
                shapes.append(out.shape)
                return out
            return kernel(counted, policy, v_peak)

        monkeypatch.setattr(fbl, "_log_integral", counting)
        fbl._gamma_averages.cache_clear()
        c1_avg_capacity(GammaFit(shape, rate), WIDE_POLICY)
        assert np.array_equal(seen[0], specfun._PROBE_STEPS)
        n0 = specfun._N0
        assert [v.size for v in seen[1:]] == [n0 + 1] + [
            n0 * 2 ** k for k in range(len(seen) - 2)]
        assert shapes == [(3, v.size) for v in seen]
        nodes = np.concatenate(seen[1:])
        assert np.unique(nodes).size == nodes.size

    @pytest.mark.parametrize("shape,rate", SERIES_CASES)
    def test_shared_step_sums_equal_alone(self, monkeypatch, shape, rate):
        # the settled sums, built from the nodes of all the calls, are
        # those the last refinement's grid gives when evaluated on its own
        fit = GammaFit(shape, rate)

        def run():
            fbl._gamma_averages.cache_clear()
            c1_avg_capacity(fit)

        settled, alone = settled_and_alone(monkeypatch, run)
        assert settled == pytest.approx(alone, rel=1e-14, abs=0)

    @pytest.mark.parametrize("shape,rate", SERIES_CASES)
    def test_probe_cap_never_binds(self, monkeypatch, shape, rate):
        # all three averages fall by _DROP before the last limit probe
        seen = []
        kernel = fbl._log_integral

        def capturing(log_f, policy, v_peak):
            seen.append((log_f, v_peak))
            return kernel(log_f, policy, v_peak)

        monkeypatch.setattr(fbl, "_log_integral", capturing)
        fbl._gamma_averages.cache_clear()
        c1_avg_capacity(GammaFit(shape, rate), WIDE_POLICY)
        assert probe_drops(*seen[0]).all()

    @pytest.mark.parametrize("shape,rate", SERIES_CASES)
    def test_rate_at_half_bler_is_c1(self, shape, rate):
        # Q^-1(0.5) = 0 exactly, so the general formula returns C1 as is
        fit = GammaFit(shape, rate)
        assert inv_q(0.5) == 0.0
        assert avg_rate_exact(fit, 300, 0.5, WIDE_POLICY) == c1_avg_capacity(
            fit, WIDE_POLICY)

    def test_values_independent_of_cache_and_order(self):
        fit = GammaFit(7.5, 0.03)
        order = ("exact", "bound", "c1", "c2")
        fbl._gamma_averages.cache_clear()
        cold = self._metrics(fit, order)
        warm = self._metrics(fit, order)
        fbl._gamma_averages.cache_clear()
        reverse = self._metrics(fit, order[::-1])
        for name in order:
            assert cold[name] == warm[name] == reverse[name]

    def test_threads_share_the_cache(self):
        # more threads than cores and more fits than cache entries, so
        # lookups, fills and evictions interleave
        fits = [GammaFit(2.0 + k, 0.1) for k in range(40)]
        order = ("exact", "bound", "c1", "c2")
        fbl._gamma_averages.cache_clear()
        serial = [self._metrics(fit, order) for fit in fits]
        fbl._gamma_averages.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as ex:
                futures = [ex.submit(self._metrics, fit, order)
                           for fit in fits * 2]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial * 2


@pytest.mark.parametrize("call", [
    lambda r: avg_rate_exact(GammaFit(30.0, 0.2), r, 1e-9),
    lambda r: avg_rate_lower_bound(GammaFit(30.0, 0.2), r, 1e-9),
    lambda r: avg_bler(GammaFit(30.0, 0.2), r, 50),
], ids=("rate_exact", "rate_lower_bound", "avg_bler"))
def test_normal_approximation_needs_100_uses(call):
    # one rule for every function of a blocklength: below 100 the normal
    # approximation is not used, and 0 or a negative count fails as a domain
    # error rather than a division by zero or a math domain error
    for r in (0, -5, 99):
        with pytest.raises(DomainError, match="blocklength >= 100"):
            call(r)
    assert isinstance(call(100), float)


@pytest.mark.parametrize("call", [
    lambda bits: PacketConfig(info_bits=bits),
    lambda bits: linearization_params(300, bits),
    lambda bits: avg_blocklength(1.0, 0.5, bits, 1e-9),
], ids=("PacketConfig", "linearization_params", "avg_blocklength"))
def test_packet_needs_one_info_bit(call):
    # one rule for every function of a payload: 0 or a negative count is a
    # domain error, not a nan with a RuntimeWarning or a finite blocklength
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bits in (0, -5):
            with pytest.raises(DomainError, match="info_bits must be >= 1"):
                call(bits)


def test_blocklength_of_one_info_bit_is_finite():
    assert math.isfinite(avg_blocklength(1.0, 0.5, 1, 1e-9))


class TestAvgBler:
    def test_linearization_reference_values(self):
        lin = linearization_params(300, 240)
        assert lin.xi1 == pytest.approx(2.0 ** 0.8 - 1.0, rel=1e-14)
        assert lin.xi0 == pytest.approx(
            -math.sqrt(300.0 / (2.0 * math.pi * (2.0 ** 1.6 - 1.0))), rel=1e-14)
        assert lin.kappa0 == pytest.approx(lin.xi1 + 1.0 / (2.0 * lin.xi0), rel=1e-14)
        assert 0.0 < lin.kappa0 < lin.xi1 < lin.kappa1

    def test_linearized_q_shape(self):
        lin = linearization_params(300, 240)
        g = np.linspace(0.0, 2.0, 400)
        y = oracles.linearized_q(g, lin)
        assert y[0] == 1.0 and y[-1] == 0.0
        assert np.all(np.diff(y) <= 0)
        assert oracles.linearized_q(lin.xi1, lin) == pytest.approx(0.5, rel=1e-12)

    def test_validity_error_for_tiny_payload(self):
        with pytest.raises(DomainError, match="linearized-Q approximation "
                           "invalid: kappa0 = .* <= 0"):
            linearization_params(300, 1)

    @pytest.mark.parametrize("shape,rate,r,L", [
        (0.5, 10.0, 300, 240), (2.0, 0.5, 300, 240),
        (205.94, 771.6, 300, 240), (50.0, 0.05, 300, 240),
        (0.05, 50.0, 300, 240), (0.05, 5.0, 300, 240)])
    def test_matches_oracle(self, shape, rate, r, L):
        ref = float(oracles.bler_expect(shape, rate, linearization_params(r, L)))
        got = avg_bler(GammaFit(shape, rate), r, L)
        assert got == pytest.approx(ref, rel=1e-9, abs=0)
        assert not avg_bler_detail(GammaFit(shape, rate), r, L).flagged

    def test_detail_consistency(self):
        # every oracle point with a representable BLER: the by-parts
        # reference alone must reproduce the closed form there
        for (shape, rate, r, L), frozen in oracles.FROZEN.items():
            if frozen[3] is None:
                continue
            det = avg_bler_detail(GammaFit(shape, rate), r, L)
            assert not det.flagged, (shape, rate)
            assert det.value == det.closed_form
            assert det.reference == pytest.approx(
                det.closed_form, rel=1e-9, abs=0), (shape, rate)

    def test_narrow_step_resolved(self):
        # at shape 1e5, the largest the incomplete gamma path accepts, the
        # step of P(shape, rate u), mean +- 12 sd (sd = mean / sqrt(shape)
        # ~ 2.3e-3), is a quarter of the ramp (~0.21)
        lin = linearization_params(300, 240)
        for mean in np.linspace(lin.kappa0, lin.kappa1, 20):
            fit = GammaFit(1e5, 1e5 / mean)
            det = avg_bler_detail(fit, 300, 240)
            assert not det.flagged, mean
            assert abs(det.reference - gl_reference(fit, lin, 2000)) <= 1e-9, mean

    @pytest.mark.parametrize("shape,mean_at", [
        (2.0, 0.5), (1e7, 0.5), (1e7, 0.0), (1e7, 1.0)])
    def test_reference_shared_step_sums_equal_alone(self, monkeypatch, shape,
                                                    mean_at):
        # with the step wide and narrow, mid-ramp and at either end, the
        # settled sum in t is the one its last grid gives on its own
        lin = linearization_params(300, 240)
        k0, k1 = lin.kappa0, lin.kappa1
        fit = GammaFit(shape, shape / (k0 + mean_at * (k1 - k0)))
        settled, alone = settled_and_alone(
            monkeypatch, lambda: fbl._avg_bler_reference(fit, lin))
        assert settled == pytest.approx(alone, rel=1e-14, abs=0)

    @pytest.mark.parametrize("phase", ["perfect", "1bit", "2bit", "3bit",
                                       "uniform:0.25"])
    def test_reference_settles_early_on_figure_fits(self, monkeypatch, phase):
        # the default scenario's fits settle in the first call, one
        # 97-node gammainc evaluation, on the sum 200 Gauss-Legendre
        # panels give, relative above the guard's 1e-300 floor: below it
        # P's nodes are subnormal
        lin = linearization_params(300, 240)
        scenario = ScenarioConfig(phase=phase_from_label(phase))
        settled, sizes = fbl._settled_sums, []

        def counting(integrand, lo, hi, tol, what):
            def counted(t):
                sizes.append(t.size)
                return integrand(t)
            return settled(counted, lo, hi, tol, what)

        monkeypatch.setattr(fbl, "_settled_sums", counting)
        for n in N_GRID:
            fit = dataclasses.replace(scenario, n_elements=n).fit()
            sizes.clear()
            ref = fbl._avg_bler_reference(fit, lin)
            fine = min(gl_reference(fit, lin, 200), 1.0)
            assert abs(ref - fine) <= 1e-10 * max(fine, 1e-300), n
            assert sizes == [specfun._N0 + 1], n

    def test_reference_raises_when_unsettled(self, monkeypatch):
        # at shape 1e4 with the mean mid-ramp, where the step is narrower
        # than the ramp, the 96 -> 192 interval change is 1.7e-5 relative,
        # above the 1e-8 the halving asks for
        lin = linearization_params(300, 240)
        fit = GammaFit(1e4, 1e4 / 0.75)
        monkeypatch.setattr(specfun, "_N_MAX", 2 * specfun._N0)
        with pytest.raises(NonConvergenceError, match="settle at 192 intervals"):
            fbl._avg_bler_reference(fit, lin)

    @pytest.mark.parametrize("n_max", [96, 192])
    def test_reference_raises_at_end_of_schedule(self, monkeypatch, n_max):
        # the same fit with the finest grid at the first call's, and one
        # halving past it: NonConvergenceError names the last count tried
        lin = linearization_params(300, 240)
        fit = GammaFit(1e4, 1e4 / 0.75)
        monkeypatch.setattr(specfun, "_N_MAX", n_max)
        with pytest.raises(NonConvergenceError, match=f"settle at {n_max} intervals"):
            fbl._avg_bler_reference(fit, lin)

    def test_nonfinite_closed_form_flagged(self):
        # mean ~ 1e309: a / b overflows and the closed form is inf * 0;
        # the reference, 0, is returned without a RuntimeWarning
        det = avg_bler_detail(GammaFit(1e5, 1e-304), 300, 240)
        assert math.isnan(det.closed_form)
        assert det.flagged
        assert det.value == det.reference == 0.0
        assert avg_bler(GammaFit(1e5, 1e-304), 300, 240) == 0.0

    def test_shape_limit(self):
        # both BLER forms take scipy's incomplete gamma, trusted up to the
        # shape gamma_cdf accepts
        limit = specfun._GAMMAINC_MAX_SHAPE
        assert 0.0 < avg_bler(GammaFit(limit, limit / 0.75), 300, 240) < 1.0
        above = math.nextafter(limit, math.inf)
        for fn in (avg_bler, avg_bler_detail):
            with pytest.raises(DomainError, match="shape <= 100000"):
                fn(GammaFit(above, above / 0.75), 300, 240)

    def test_saturates_to_one_at_low_snr(self):
        assert avg_bler(GammaFit(200.0, 800.0), 300, 240) == pytest.approx(
            1.0, abs=1e-12)

    def test_range(self):
        for shape, rate in ((0.5, 1e-4), (1.0, 5.0), (100.0, 1.0)):
            v = avg_bler(GammaFit(shape, rate), 300, 240)
            assert 0.0 <= v <= 1.0


def figure_cells(figure_id):
    """(case tag, axis value, cell scenario) of each default-scenario cell
    of a swept figure."""
    spec = experiments._FIGURES[figure_id]
    base = dataclasses.replace(ScenarioConfig(), **spec.pins)
    grid, place = experiments._AXES[spec.axis]
    return [(tag, v, place(dataclasses.replace(base, **fields), v))
            for v in grid for tag, fields in spec.cases]


class TestSettleDepth:
    # cells whose Gamma averages take a second call of 96 midpoints
    LATE = {
        "fig4": {("perfect", 16), ("2bit", 16), ("1bit", 16), ("perfect", 24),
                 ("2bit", 24), ("1bit", 24), ("1bit", 32), ("1bit", 96)},
        "fig5": set(),
        "fig8": {("", 16), ("", 24)},
    }

    @pytest.mark.parametrize("figure_id", ["fig4", "fig5", "fig8"])
    def test_figure_cells_settle_at_first_step(self, monkeypatch, figure_id):
        # after the probes, the Gamma averages of every default-scenario
        # cell, at the cell's policy, settle in the first 97-node call of
        # the stack or in one more of 96 midpoints, and the average-BLER
        # reference in one 97-node gammainc call
        gamma, ref = [], []
        kernel, settled = fbl._log_integral, fbl._settled_sums

        def counting_kernel(log_f, policy, v_peak):
            def counted(v):
                gamma.append(v.size)
                return log_f(v)
            return kernel(counted, policy, v_peak)

        def counting_settled(integrand, lo, hi, tol, what):
            def counted(u):
                ref.append(u.size)
                return integrand(u)
            return settled(counted, lo, hi, tol, what)

        monkeypatch.setattr(fbl, "_log_integral", counting_kernel)
        monkeypatch.setattr(fbl, "_settled_sums", counting_settled)
        probes = specfun._PROBE_STEPS.size
        for tag, v, cell in figure_cells(figure_id):
            gamma.clear()
            ref.clear()
            fit = cell.fit()
            fbl._gamma_averages.cache_clear()
            c1_avg_capacity(fit, cell.policy)
            avg_bler(fit, cell.packet.blocklength, cell.packet.info_bits)
            late = [96] if (tag, v) in self.LATE[figure_id] else []
            assert gamma == [probes, 97] + late, (tag, v, fit.shape)
            assert ref == [97], (tag, v)


class TestAvgBlocklength:
    def test_root_property(self):
        c1, c2, L, eps = 2.5, 1.2, 240, 1e-9
        r = avg_blocklength(c1, c2, L, eps)
        assert c1 * r - inv_q(eps) * c2 * math.sqrt(r) - L == pytest.approx(
            0.0, abs=1e-10 * L)

    def test_zero_dispersion_limit(self):
        assert avg_blocklength(2.0, 0.0, 240, 1e-9) == pytest.approx(120.0)

    def test_more_capacity_needs_fewer_uses(self):
        rs = [avg_blocklength(c1, 1.3, 240, 1e-9) for c1 in (1.0, 2.0, 4.0)]
        assert rs[0] > rs[1] > rs[2]

    def test_domain(self):
        with pytest.raises(DomainError):
            avg_blocklength(0.0, 1.0, 240, 1e-9)
        with pytest.raises(DomainError):
            avg_blocklength(1.0, -1.0, 240, 1e-9)


class TestBundle:
    def test_packet_validation(self):
        with pytest.raises(DomainError):
            PacketConfig(info_bits=0)
        with pytest.raises(DomainError):
            PacketConfig(blocklength=50)
        with pytest.raises(DomainError):
            PacketConfig(target_bler=0.7)
