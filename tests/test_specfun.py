"""Special-function kernel tests against mpmath and scipy references."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from risfbl import specfun
from risfbl.specfun import (
    DEFAULT_POLICY,
    DomainError,
    EvalPolicy,
    NonConvergenceError,
    gamma_cdf,
    inv_q,
    log_gamma_kummer_u,
    q_function,
    sinc_norm,
)

import oracles


class TestEvalPolicy:
    def test_defaults(self):
        p = EvalPolicy()
        assert p.rel_tol == 1e-10

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0},
        {"rel_tol": 1.5},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(DomainError):
            EvalPolicy(**kwargs)


class TestBasicFunctions:
    def test_ln_gamma_matches_lgamma(self):
        for x in (0.5, 1.0, 7.3, 250.0, 5000.0):
            assert oracles.ln_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-14)

    def test_ln_gamma_domain(self):
        with pytest.raises(DomainError):
            oracles.ln_gamma(0.0)

    def test_upper_inc_gamma(self):
        import mpmath as mp
        for a, x in ((0.5, 0.2), (3.0, 5.0), (20.0, 1.0), (2.0, 0.0)):
            ref = float(mp.gammainc(a, x))
            assert oracles.upper_inc_gamma(a, x) == pytest.approx(ref, rel=1e-12)

    def test_upper_inc_gamma_hard_zero(self):
        # far tail underflows cleanly instead of raising
        assert oracles.upper_inc_gamma(1.0, 800.0) == 0.0

    def test_gamma_cdf_vectorized_monotone(self):
        x = np.linspace(0.0, 30.0, 100)
        c = gamma_cdf(2.5, 1.3, x)
        assert c[0] == 0.0
        assert np.all(np.diff(c) >= 0)
        assert c[-1] < 1.0
        assert gamma_cdf(2.5, 1.3, 5.0) == pytest.approx(
            float(sp.gammainc(2.5, 1.3 * 5.0)), rel=1e-14)

    def test_gamma_cdf_domain(self):
        with pytest.raises(DomainError):
            gamma_cdf(-1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            gamma_cdf(1.0, 1.0, -2.0)


class TestQFunction:
    def test_known_values(self):
        assert q_function(0.0) == pytest.approx(0.5, rel=1e-15)
        assert q_function(1.0) == pytest.approx(0.15865525393145705, rel=1e-13)
        # symmetry
        assert q_function(-2.0) + q_function(2.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("p", [0.5, 0.1, 1e-3, 1e-6, 1e-9, 1e-12])
    def test_inv_q_roundtrip(self, p):
        assert q_function(inv_q(p)) == pytest.approx(p, rel=1e-11)

    def test_inv_q_center(self):
        assert inv_q(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_inv_q_domain(self):
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(DomainError):
                inv_q(bad)

    @given(st.floats(min_value=-5.0, max_value=8.0))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_from_x(self, x):
        # below x = -5 the probability rounds onto the grid of doubles near 1
        # and the inverse cannot recover x to this tolerance from p alone
        p = q_function(x)
        assert inv_q(p) == pytest.approx(x, abs=1e-9)


class TestSeriesCoefficients:
    def test_sinc_values(self):
        assert sinc_norm(0.0) == 1.0
        assert sinc_norm(1.0) == pytest.approx(0.0, abs=1e-15)
        assert sinc_norm(0.5) == pytest.approx(2.0 / math.pi, rel=1e-14)


MPMATH_CASES = [
    (1.0, 1.0, 1.0),
    (2.0, 1.0, 3.0),
    (0.5, 0.2, 0.7),
    (1.0, -48.0, 3.0),
    (5.0, -3.5, 0.01),
    (80.0, 2.0, 0.5),
]
IDENTITY_CASES = [(1.5, 0.3), (4.0, 2.0), (30.0, 10.0)]


class TestKummerU:
    @pytest.mark.parametrize("a,b,z", MPMATH_CASES)
    def test_against_mpmath(self, a, b, z):
        assert oracles.kummer_u(a, b, z) == pytest.approx(
            oracles.kummer_u_ref(a, b, z), rel=1e-9)

    def test_identity_b_eq_a_plus_one(self):
        # U(a, a+1, z) = z^-a
        for a, z in IDENTITY_CASES:
            assert oracles.kummer_u(a, a + 1.0, z) == pytest.approx(z ** -a, rel=1e-10)

    def test_log_form_large_shape(self):
        # shape far beyond Gamma overflow
        got = log_gamma_kummer_u(2000.0, 101.0, 0.01)
        assert got == pytest.approx(
            oracles.log_gamma_u_ref(2000.0, 101.0, 0.01, dps=60), rel=1e-12)

    def test_nonconvergence_reports_last_change(self):
        # no refinement can move the log integral by less than 1e-300
        with pytest.raises(NonConvergenceError) as info:
            log_gamma_kummer_u(2e6, 101.0, 1.0, EvalPolicy(rel_tol=1e-300))
        match = re.search(r"last change ([0-9.e+-]+)\)", str(info.value))
        assert match is not None
        assert float(match.group(1)) > 0.0

    @pytest.mark.parametrize("a,b,z", MPMATH_CASES + [
        (a, a + 1.0, z) for a, z in IDENTITY_CASES] + [(2000.0, 101.0, 0.01)])
    def test_integrand_calls_bounded(self, monkeypatch, a, b, z):
        # one array call of log_f for the probes, then one per grid (two to five)
        sizes = []
        kernel = specfun._log_integral

        def counting(log_f, policy, v_peak):
            def counted(v):
                sizes.append(np.size(v))
                return log_f(v)
            return kernel(counted, policy, v_peak)

        monkeypatch.setattr(specfun, "_log_integral", counting)
        log_gamma_kummer_u(a, b, z)
        assert len(sizes) <= 6
        assert min(sizes) > 1

    def test_peak_is_stationary(self, monkeypatch):
        # the closed-form peak handed to the kernel is the maximum of h,
        # on both branches of the root formula (b - 1 - z above and below 0)
        seen = []
        kernel = specfun._log_integral

        def capturing(log_f, policy, v_peak):
            seen.append((log_f, v_peak))
            return kernel(log_f, policy, v_peak)

        monkeypatch.setattr(specfun, "_log_integral", capturing)
        cases = MPMATH_CASES + [(a, a + 1.0, z) for a, z in IDENTITY_CASES] + [
            (2000.0, 101.0, 0.01)]
        assert {b - 1.0 - z > 0 for a, b, z in cases} == {True, False}
        for a, b, z in cases:
            log_gamma_kummer_u(a, b, z)
            log_f, v_peak = seen[-1]
            left, peak, right = log_f(v_peak + np.array([-1e-4, 0.0, 1e-4]))[0]
            assert left <= peak and right <= peak, (a, b, z)

    def test_domain(self):
        with pytest.raises(DomainError):
            oracles.kummer_u(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            oracles.kummer_u(1.0, 1.0, 0.0)


class TestGenExpIntegral:
    def test_matches_exp1(self):
        assert oracles.gen_exp_integral(1.0, 0.8) == pytest.approx(
            float(sp.exp1(0.8)), rel=1e-10)

    @pytest.mark.parametrize("order,z", [(2.0, 0.5), (0.0, 1.2), (7.5, 3.0)])
    def test_against_mpmath(self, order, z):
        import mpmath as mp
        with mp.workdps(30):
            ref = float(mp.expint(order, z))
        assert oracles.gen_exp_integral(order, z) == pytest.approx(ref, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            oracles.gen_exp_integral(1.0, 0.0)
        with pytest.raises(DomainError):
            oracles.gen_exp_integral(-0.5, 1.0)
