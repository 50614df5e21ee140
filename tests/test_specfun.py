"""Special-function kernel tests against mpmath and scipy references."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from risfbl import fbl, specfun
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
        assert p.rel_tol == 1e-9

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

    def test_gamma_cdf_shape_limit(self):
        limit = specfun._GAMMAINC_MAX_SHAPE
        assert 0.0 < gamma_cdf(limit, 1.0, limit) < 1.0
        with pytest.raises(DomainError, match="shape <= 100000"):
            gamma_cdf(math.nextafter(limit, math.inf), 1.0, limit)

    def test_gammainc_trusted_at_shape_limit(self):
        # scipy's P agrees with a 40-digit series over the Gamma's bulk
        # and both tails, x = a (1 + t / sqrt(a)), t in -14..14, at the
        # largest shape gamma_cdf and the average-BLER path accept
        import mpmath as mp
        a = specfun._GAMMAINC_MAX_SHAPE
        with mp.workdps(40):
            for t in np.arange(-14.0, 14.5, 0.5):
                x = a * (1.0 + t / math.sqrt(a))
                ma, mx = mp.mpf(a), mp.mpf(x)
                ref = mp.exp(ma * mp.log(mx) - mx - mp.loggamma(ma + 1)) * mp.hyp1f1(
                    1, ma + 1, mx)
                assert float(sp.gammainc(a, x)) == pytest.approx(
                    float(ref), rel=1e-12, abs=0), t


class TestQFunction:
    def test_known_values(self):
        assert q_function(0.0) == pytest.approx(0.5, rel=1e-15)
        assert q_function(1.0) == pytest.approx(0.15865525393145705, rel=1e-13)
        # symmetry
        assert q_function(-2.0) + q_function(2.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("p", [0.5, 0.1, 1e-3, 1e-6, 1e-9, 1e-12])
    def test_inv_q_roundtrip(self, p):
        assert q_function(inv_q(p)) == pytest.approx(p, rel=1e-11, abs=0)

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


class TestSincNorm:
    def test_sinc_values(self):
        assert sinc_norm(0.0) == 1.0
        assert sinc_norm(1.0) == pytest.approx(0.0, abs=1e-15)
        assert sinc_norm(0.5) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_scalar_sinc_is_numpy_sinc(self):
        # same formula as np.sinc; libm sin and numpy's sin may differ by an ulp
        xs = [0.0, -0.0, 5e-324, 0.5, 1.0, 2.0]
        xs += np.random.default_rng(17).uniform(0.0, 2.0, 20_000).tolist()
        got = [sinc_norm(x) for x in xs]
        assert all(type(g) is float for g in got)
        assert sinc_norm(5e-324) == sinc_norm(-0.0) == 1.0
        np.testing.assert_array_max_ulp(np.array(got), np.sinc(xs), maxulp=2)
        assert sinc_norm(np.float64(0.3)) == sinc_norm(0.3)
        assert type(sinc_norm(np.float64(0.3))) is float


def probe_drops(log_f, v_peak):
    """Per integrand and side, whether it falls ``_DROP`` below its top at
    some limit probe before the last one: then the kernel's limits are
    those an unbounded run of probes would give."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        f = log_f(v_peak + specfun._PROBE_STEPS)
    top = f.max(axis=1)
    below = f[:, 1:].reshape(len(f), 2, -1) < (top - specfun._DROP)[:, None, None]
    return below[..., :-1].any(axis=2)


def trapezoid_alone(integrand, lo, hi, n):
    """The stack's trapezoidal sums on n even intervals of [lo, hi], from
    one evaluation of its own grid."""
    w = np.full(n + 1, (hi - lo) / n)
    w[[0, -1]] *= 0.5
    return (integrand(np.linspace(lo, hi, n + 1)) @ w).tolist()


def settled_and_alone(monkeypatch, run):
    """Run ``run()``, which makes one call of the nested trapezoidal rule,
    ``_settled_sums``.  Returns the sums that call settled on, and the
    sums the grid of its last refinement gives alone."""
    calls = []
    settled = specfun._settled_sums

    def recording(integrand, lo, hi, tol, what):
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return integrand(x)

        sums = settled(counted, lo, hi, tol, what)
        calls.append((sums, integrand, lo, hi, sum(sizes) - 1))
        return sums

    with monkeypatch.context() as m:
        # fbl imports the name; the kernel reads specfun's global
        m.setattr(specfun, "_settled_sums", recording)
        m.setattr(fbl, "_settled_sums", recording)
        run()
    (sums, integrand, lo, hi, n), = calls
    return sums, trapezoid_alone(integrand, lo, hi, n)


class TestSettledSums:
    """The nested trapezoidal rule's grids: even panels (intervals) of the
    limits, each refinement adding the midpoints of the last."""

    @staticmethod
    def _unsettled(monkeypatch, lo, hi, n_max):
        # x^2 + 1: every halving changes the sum by (hi - lo) h^2 / 8 > 0,
        # so no sum settles and every grid up to n_max panels is evaluated
        calls = []

        def integrand(x):
            calls.append(np.copy(x))
            return (x * x + 1.0)[None]

        monkeypatch.setattr(specfun, "_N_MAX", n_max)
        with pytest.raises(NonConvergenceError) as info:
            specfun._settled_sums(integrand, lo, hi, 1e-300, "test")
        return calls, str(info.value)

    @pytest.mark.parametrize("vl,vr,n", [
        (-3.2, 5.7, 256), (0.1, 0.9, 512), (-20.0, -1.0, 1024),
        (2.0, 2e3, 2048), (-7.0, 8.0, 4096), (0.5, 3.0, 648)])
    def test_matches_linspace_nodes(self, monkeypatch, vl, vr, n):
        # refined up to at most n panels, the nodes of all the calls are,
        # once each, those of np.linspace on [vl, vr], to 1e-15 of scale
        calls, message = self._unsettled(monkeypatch, vl, vr, n)
        panels = specfun._N0 * 2 ** int(math.log2(n / specfun._N0))
        assert f"did not settle at {panels} intervals" in message
        nodes = np.concatenate(calls)
        assert nodes.size == panels + 1 == np.unique(nodes).size
        ref = np.linspace(vl, vr, panels + 1)
        assert np.max(np.abs(np.sort(nodes) - ref)) <= 1e-15 * max(abs(vl), abs(vr))

    def test_sizes_side_by_side(self, monkeypatch):
        # the first call evaluates the _N0 + 1 even nodes, which give the
        # sums at _N0 / 2 and _N0 panels, each later call the midpoints
        n0 = specfun._N0
        calls, _ = self._unsettled(monkeypatch, -3.2, 5.7, 4 * n0)
        assert [x.size for x in calls] == [n0 + 1, n0, 2 * n0]
        np.testing.assert_allclose(calls[0], np.linspace(-3.2, 5.7, n0 + 1),
                                   rtol=0.0, atol=1e-15 * 5.7)
        # the first call's change is that of the two grids alone
        _, message = self._unsettled(monkeypatch, -3.2, 5.7, n0)
        coarse, fine = (trapezoid_alone(lambda x: (x * x + 1.0)[None],
                                        -3.2, 5.7, n)[0] for n in (n0 // 2, n0))
        shown = float(message.rpartition("last change ")[2].rstrip(")"))
        assert shown == pytest.approx(abs(fine - coarse) / fine, rel=1e-3)

    def test_all_sums_from_one_step(self):
        # at tol 1e-3, x^2 + 1 on [0, 1] settles at the first comparison
        # (48 against 96 intervals) but still changes by 1e-5 at the next;
        # e^(16 x) settles only at 384 intervals.  The stack ends there, and
        # both sums are those of the 384-interval grid
        def integrand(x):
            return np.stack([x * x + 1.0, np.exp(16.0 * x)])

        got = specfun._settled_sums(integrand, 0.0, 1.0, 1e-3, "test")
        alone = trapezoid_alone(integrand, 0.0, 1.0, 4 * specfun._N0)
        assert got == pytest.approx(alone, rel=1e-14, abs=0)

    @pytest.mark.parametrize("integrand,exact", [
        (lambda x: np.exp(-x * x), math.sqrt(math.pi)),
        (lambda x: 1.0 / np.cosh(x) ** 2, 2.0)])
    def test_exact_on_smooth_bumps(self, integrand, exact):
        # the trapezoidal rule converges exponentially on a smooth bump that
        # has vanished at both limits: a Gaussian and sech^2 over [-40, 40]
        (got,) = specfun._settled_sums(lambda x: integrand(x)[None], -40.0, 40.0,
                                       1e-15, "test")
        assert got == pytest.approx(exact, rel=1e-15)


MPMATH_CASES = [
    (1.0, 1.0, 1.0),
    (2.0, 1.0, 3.0),
    (0.5, 0.2, 0.7),
    (1.0, -48.0, 3.0),
    (5.0, -3.5, 0.01),
    (80.0, 2.0, 0.5),
]
IDENTITY_CASES = [(1.5, 0.3), (4.0, 2.0), (30.0, 10.0)]
KERNEL_CASES = MPMATH_CASES + [(a, a + 1.0, z) for a, z in IDENTITY_CASES] + [
    (2000.0, 101.0, 0.01)]


class TestKummerU:
    @pytest.mark.parametrize("a,b,z", MPMATH_CASES)
    def test_against_mpmath(self, a, b, z):
        assert oracles.kummer_u(a, b, z) == pytest.approx(
            oracles.kummer_u_ref(a, b, z), rel=1e-9, abs=0)

    def test_identity_b_eq_a_plus_one(self):
        # U(a, a+1, z) = z^-a
        for a, z in IDENTITY_CASES:
            assert oracles.kummer_u(a, a + 1.0, z) == pytest.approx(
                z ** -a, rel=1e-10, abs=0)

    def test_log_form_large_shape(self):
        # shape far beyond Gamma overflow
        got = log_gamma_kummer_u(2000.0, 101.0, 0.01)
        assert type(got) is float
        assert got == pytest.approx(
            oracles.log_gamma_u_ref(2000.0, 101.0, 0.01, dps=60), rel=1e-12)

    def test_nonconvergence_reports_last_change(self, monkeypatch):
        # no sum settles to 1e-300 by 192 intervals at this shape
        monkeypatch.setattr(specfun, "_N_MAX", 2 * specfun._N0)
        with pytest.raises(NonConvergenceError) as info:
            log_gamma_kummer_u(2e6, 101.0, 1.0, EvalPolicy(rel_tol=1e-300))
        match = re.search(r"did not settle at 192 intervals \(last change "
                          r"([0-9.e+-]+)\)", str(info.value))
        assert match is not None
        assert float(match.group(1)) > 0.0

    @pytest.mark.parametrize("b,z", [(0.5, 1.0), (-5.0, 10.0), (2.0, 0.1)])
    def test_small_a_settles(self, b, z):
        # at a = 0.06 the left tail exp(a v) falls by e^-70 only ~1200 in v
        # from the peak, so the bump fills a small part of the limits
        assert log_gamma_kummer_u(0.06, b, z) == pytest.approx(
            oracles.log_gamma_u_ref(0.06, b, z), rel=1e-14)

    def test_small_a_limit_raises(self):
        # at a = 0.05 the left tail is too long for the finest grid
        with pytest.raises(NonConvergenceError,
                           match="did not settle at 6144 intervals"):
            log_gamma_kummer_u(0.05, 0.5, 1.0)

    def test_log_integral_returns_python_floats(self):
        # a tuple of floats, one per integrand of the stack
        logs = specfun._log_integral(
            lambda v: np.stack((-v * v, -2.0 * v * v)), DEFAULT_POLICY, 0.0)
        assert type(logs) is tuple and [type(x) for x in logs] == [float, float]
        assert logs[0] == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)
        assert logs[1] == pytest.approx(0.5 * math.log(math.pi / 2.0), rel=1e-12)

    @pytest.mark.parametrize("peak", [math.nan, math.inf])
    def test_log_integral_rejects_non_finite_peak(self, peak):
        with pytest.raises(NonConvergenceError,
                           match="integrand peak is not finite"):
            specfun._log_integral(
                lambda v: np.stack((-v * v, np.full_like(v, peak))),
                DEFAULT_POLICY, 0.0)

    @pytest.mark.parametrize("a,b,z", KERNEL_CASES)
    def test_integrand_calls_bounded(self, monkeypatch, a, b, z):
        # one array call of log_f for the probes, then the first grid and
        # at most one call per halving up to _N_MAX intervals
        sizes = []
        kernel = specfun._log_integral

        def counting(log_f, policy, v_peak):
            def counted(v):
                sizes.append(np.size(v))
                return log_f(v)
            return kernel(counted, policy, v_peak)

        monkeypatch.setattr(specfun, "_log_integral", counting)
        log_gamma_kummer_u(a, b, z)
        assert len(sizes) <= 2 + math.log2(specfun._N_MAX // specfun._N0)
        assert min(sizes) > 1

    @pytest.mark.parametrize("a,b,z", KERNEL_CASES)
    def test_shared_step_sums_equal_alone(self, monkeypatch, a, b, z):
        # the settled sum, built from the nodes of all the calls, is the
        # one the last refinement's grid gives when evaluated on its own
        settled, alone = settled_and_alone(
            monkeypatch, lambda: log_gamma_kummer_u(a, b, z))
        assert settled == pytest.approx(alone, rel=1e-14)

    def test_peak_is_stationary(self, monkeypatch):
        # the closed-form peak handed to the kernel is the maximum of h,
        # on both branches of the root formula (b - 1 - z above and below 0)
        seen = []
        kernel = specfun._log_integral

        def capturing(log_f, policy, v_peak):
            seen.append((log_f, v_peak))
            return kernel(log_f, policy, v_peak)

        monkeypatch.setattr(specfun, "_log_integral", capturing)
        cases = KERNEL_CASES
        assert {b - 1.0 - z > 0 for a, b, z in cases} == {True, False}
        for a, b, z in cases:
            log_gamma_kummer_u(a, b, z)
            log_f, v_peak = seen[-1]
            left, peak, right = log_f(v_peak + np.array([-1e-4, 0.0, 1e-4]))[0]
            assert left <= peak and right <= peak, (a, b, z)

    def test_probe_cap_never_binds(self, monkeypatch):
        seen = []
        kernel = specfun._log_integral

        def capturing(log_f, policy, v_peak):
            seen.append((log_f, v_peak))
            return kernel(log_f, policy, v_peak)

        monkeypatch.setattr(specfun, "_log_integral", capturing)
        cases = KERNEL_CASES
        for a, b, z in cases:
            log_gamma_kummer_u(a, b, z)
            assert probe_drops(*seen[-1]).all(), (a, b, z)

    def test_tail_past_probes_raises(self):
        # the left tail exp(a v) falls by e^-70 only 7e7 from the peak,
        # past the last probe: no limit is taken there
        with pytest.raises(NonConvergenceError, match="within the probes"):
            log_gamma_kummer_u(1e-6, 1.0, 1.0)

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
