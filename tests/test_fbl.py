"""Finite-blocklength metrics: instantaneous forms and Gamma averages."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import special as sp

from risfbl import fbl, specfun
from risfbl.channel import GammaFit
from risfbl.fbl import (
    PacketConfig,
    ValidityError,
    avg_bler,
    avg_bler_detail,
    avg_blocklength,
    avg_rate_exact,
    avg_rate_lower_bound,
    c1_avg_capacity,
    c2_avg_sqrt_dispersion,
    capacity,
    dispersion,
    instantaneous_bler,
    instantaneous_blocklength,
    instantaneous_rate,
    linearization_params,
)
from risfbl.specfun import DEFAULT_POLICY, LOG2E, DomainError, EvalPolicy, NonConvergenceError, inv_q, q_function

import oracles

WIDE_POLICY = EvalPolicy(rel_tol=1e-9)

SERIES_CASES = [
    (0.5, 0.05), (2.0, 1.0), (10.0, 10.0), (50.0, 0.05), (200.0, 10.0),
    (0.2, 10.0), (0.1, 1e-3), (5000.0, 1.0)]


class TestInstantaneous:
    def test_capacity_known(self):
        assert capacity(1.0) == pytest.approx(1.0)
        assert capacity(15.0) == pytest.approx(4.0)

    def test_dispersion_limits(self):
        assert dispersion(0.0) == 0.0
        assert dispersion(1e9) == pytest.approx(LOG2E ** 2, rel=1e-8)
        g = np.geomspace(1e-3, 1e3, 50)
        v = dispersion(g)
        assert np.all(np.diff(v) > 0)
        assert np.all(v < LOG2E ** 2)

    def test_rate_at_reference_point(self):
        # gamma = 10, r = 300, eps = 1e-9: C = log2(11), V = (log2 e)^2 (1 - 1/121)
        v = LOG2E ** 2 * (1.0 - 1.0 / 121.0)
        expect = math.log2(11.0) - inv_q(1e-9) * math.sqrt(v / 300.0)
        assert instantaneous_rate(10.0, 300, 1e-9) == pytest.approx(expect, rel=1e-13)

    def test_bler_is_q_of_normalized_gap(self):
        g, r, L = 10.0, 300, 240
        v = dispersion(g)
        f = math.sqrt(r / v) * (math.log2(1.0 + g) - L / r)
        assert instantaneous_bler(g, r, L) == pytest.approx(q_function(f), rel=1e-13)

    def test_bler_edge_cases(self):
        assert instantaneous_bler(0.0, 300, 240) == 1.0
        assert instantaneous_bler(1e9, 300, 240) == 0.0
        # at the capacity threshold the argument is zero
        g_star = 2.0 ** 0.8 - 1.0
        assert instantaneous_bler(g_star, 300, 240) == pytest.approx(0.5, rel=1e-12)

    def test_blocklength_solves_rate_equation(self):
        g, L, eps = 5.0, 240, 1e-7
        r = instantaneous_blocklength(g, L, eps)
        lhs = capacity(g) * r - inv_q(eps) * math.sqrt(dispersion(g) * r) - L
        assert lhs == pytest.approx(0.0, abs=1e-9 * L)

    def test_blocklength_decreasing_in_snr(self):
        g = np.geomspace(0.5, 100.0, 40)
        r = instantaneous_blocklength(g, 240, 1e-9)
        assert np.all(np.diff(r) < 0)


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

    def test_c2_bounded_by_log2e(self):
        for shape, rate in ((0.5, 5.0), (300.0, 0.01)):
            c2 = c2_avg_sqrt_dispersion(GammaFit(shape, rate), WIDE_POLICY)
            assert 0.0 <= c2 <= LOG2E

    def test_nonconvergence_raises(self):
        # refinement cannot settle the log integral to within 1e-300
        tight = EvalPolicy(rel_tol=1e-300)
        with pytest.raises(NonConvergenceError):
            c1_avg_capacity(GammaFit(100.0, 0.01), tight)

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
        # the probes, then two to five grids
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
        assert len(sizes) <= 6
        assert min(sizes) > 1

    @pytest.mark.parametrize("shape,rate", SERIES_CASES)
    def test_one_grid_per_refinement(self, monkeypatch, shape, rate):
        # the probes start at the density's peak, ln(shape); from there on
        # each grid is evaluated once, for the stack of all three averages
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
        assert np.array_equal(seen[0], math.log(shape) + specfun._PROBE_STEPS)
        assert 2 <= len(seen) - 1 <= 5
        assert shapes == [(3, v.size) for v in seen]
        assert len({v.size for v in seen[1:]}) == len(seen) - 1

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
        with pytest.raises(ValidityError):
            linearization_params(300, 1)

    @pytest.mark.parametrize("shape,rate,r,L", [
        (0.5, 10.0, 300, 240), (2.0, 0.5, 300, 240),
        (205.94, 771.6, 300, 240), (50.0, 0.05, 300, 240),
        (0.05, 50.0, 300, 240), (0.05, 5.0, 300, 240)])
    def test_matches_oracle(self, shape, rate, r, L):
        ref = float(oracles.bler_expect(shape, rate, linearization_params(r, L)))
        got = avg_bler(GammaFit(shape, rate), r, L)
        assert got == pytest.approx(ref, rel=1e-9)
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
            assert det.reference == pytest.approx(det.closed_form, rel=1e-9), (
                shape, rate)

    def test_narrow_step_resolved(self):
        # at shape 1e7 the step of P(shape, rate u), sd = mean / sqrt(shape)
        # ~ 2e-4 wide, is a fraction of an even panel of the ramp (~4e-3)
        lin = linearization_params(300, 240)
        un, uw = specfun._panel_grid(lin.kappa0, lin.kappa1, 24_000)
        for mean in np.linspace(lin.kappa0, lin.kappa1, 20):
            fit = GammaFit(1e7, 1e7 / mean)
            det = avg_bler_detail(fit, 300, 240)
            fine = -lin.xi0 * float(np.sum(uw * sp.gammainc(fit.shape,
                                                            fit.rate * un)))
            assert not det.flagged, mean
            assert abs(det.reference - fine) <= 1e-9, mean

    def test_saturates_to_one_at_low_snr(self):
        assert avg_bler(GammaFit(200.0, 800.0), 300, 240) == pytest.approx(
            1.0, abs=1e-12)

    def test_range(self):
        for shape, rate in ((0.5, 1e-4), (1.0, 5.0), (100.0, 1.0)):
            v = avg_bler(GammaFit(shape, rate), 300, 240)
            assert 0.0 <= v <= 1.0


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
