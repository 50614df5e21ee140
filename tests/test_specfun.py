"""Special-function kernel tests against mpmath and scipy references."""

import itertools
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
                    float(ref), rel=1e-12), t


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


def step_sums_shared_and_alone(monkeypatch, run):
    """Run ``run()``, which makes one call of the kernel's step evaluator,
    ``_step_sums``.  Returns that call's (integrand, edges, steps), the
    (panels, sums) pairs it read with its steps, and the same grids'
    pairs with each grid evaluated alone."""
    calls = []
    sums = specfun._step_sums

    def recording(integrand, edges, steps):
        steps = tuple(steps)
        calls.append(((integrand, edges, steps), []))
        for pair in sums(integrand, edges, steps):
            calls[-1][1].append(pair)
            yield pair

    with monkeypatch.context() as m:
        m.setattr(specfun, "_step_sums", recording)
        run()
    (args, shared), = calls
    integrand, edges, steps = args
    alone = tuple((counts,) for step in steps for counts in step)
    return args, shared, list(itertools.islice(
        sums(integrand, edges, alone), len(shared)))


class TestPanelGrid:
    @pytest.mark.parametrize("vl,vr,n", [
        (-3.2, 5.7, 256), (0.1, 0.9, 512), (-20.0, -1.0, 1024),
        (2.0, 2e3, 2048), (-7.0, 8.0, 4096), (0.5, 3.0, 648)])
    def test_matches_linspace_panels(self, vl, vr, n):
        # ceil(n / 12) panels of the unit pattern scaled onto [vl, vr]
        # against even edges from np.linspace on [vl, vr] itself, to 1e-15
        # of the interval's scale
        panels = math.ceil(n / 12)
        nodes, weights = specfun._panel_grid((vl, vr), (panels,))
        ref_nodes, ref_weights = specfun._gl_panels(
            np.linspace(vl, vr, panels + 1))
        assert nodes.size == ref_nodes.size == 12 * panels
        scale = max(abs(vl), abs(vr))
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15 * scale
        assert np.max(np.abs(weights - ref_weights)) <= 1e-15 * (vr - vl)

    def test_sizes_side_by_side(self):
        # several grids, on one piece, three and two: each one's nodes in
        # turn, then each one's weights, the same bytes as that grid's own
        for edges, counts in (
                ((-3.2, 5.7), ((22,), (43,), (86,))),
                ((0.3, 0.31, 0.5, 0.9), ((1, 2, 1), (1, 6, 1))),
                ((0.3, 0.5, 0.9), ((3, 1), (7, 1), (15, 1)))):
            nodes, *weights = specfun._panel_grid(edges, *counts)
            end = 0
            for c, w in zip(counts, weights):
                alone_nodes, alone_weights = specfun._panel_grid(edges, c)
                assert np.array_equal(nodes[end:end + w.size], alone_nodes)
                assert np.array_equal(w, alone_weights)
                end += w.size
            assert end == nodes.size

    @given(st.floats(0.1, 5.0),
           st.lists(st.tuples(st.floats(0.1, 3.0), st.integers(1, 5)),
                    min_size=1, max_size=4),
           st.integers(0, 23))
    @settings(max_examples=100, deadline=None)
    def test_pieces_integrate_polynomials(self, start, pieces, k):
        # 12-point Gauss-Legendre is exact to degree 23: each piece of a
        # grid integrates x^k over itself to rounding
        edges = list(itertools.accumulate([start] + [gap for gap, _ in pieces]))
        counts = tuple(m for _, m in pieces)
        nodes, weights = specfun._panel_grid(tuple(edges), counts)
        assert nodes.size == weights.size == 12 * sum(counts)
        for a, b in zip(edges, edges[1:]):
            inside = (nodes > a) & (nodes < b)
            got = float(weights[inside] @ nodes[inside] ** k)
            # (b^(k+1) - a^(k+1)) / (k+1), as a sum of positive terms
            want = (b - a) * sum(a ** j * b ** (k - j)
                                 for j in range(k + 1)) / (k + 1)
            assert got == pytest.approx(want, rel=1e-13), (a, b)

    def test_cached_pattern_is_read_only(self):
        for counts in (((22,),), ((1, 6, 1), (1, 14, 1))):
            un, uw, at, _ = specfun._unit_pattern(*counts)
            for a in (un, uw) + ((at,) if at is not None else ()):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a.flat[0] = 0
        for edges, counts in (((-1.0, 2.0), (22,)), ((-1.0, 0.5, 2.0), (3, 5))):
            first = specfun._panel_grid(edges, counts)
            kept = [a.copy() for a in first]
            for a in first:
                a[:] = np.nan
            for a, b in zip(specfun._panel_grid(edges, counts), kept):
                assert np.array_equal(a, b)


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
            oracles.kummer_u_ref(a, b, z), rel=1e-9)

    def test_identity_b_eq_a_plus_one(self):
        # U(a, a+1, z) = z^-a
        for a, z in IDENTITY_CASES:
            assert oracles.kummer_u(a, a + 1.0, z) == pytest.approx(z ** -a, rel=1e-10)

    def test_log_form_large_shape(self):
        # shape far beyond Gamma overflow
        got = log_gamma_kummer_u(2000.0, 101.0, 0.01)
        assert type(got) is float
        assert got == pytest.approx(
            oracles.log_gamma_u_ref(2000.0, 101.0, 0.01, dps=60), rel=1e-12)

    def test_nonconvergence_reports_last_change(self):
        # no refinement can move the log integral by less than 1e-300
        with pytest.raises(NonConvergenceError) as info:
            log_gamma_kummer_u(2e6, 101.0, 1.0, EvalPolicy(rel_tol=1e-300))
        match = re.search(r"did not settle at 342 panels \(last change "
                          r"([0-9.e+-]+)\)", str(info.value))
        assert match is not None
        assert float(match.group(1)) > 0.0

    def test_log_integral_returns_python_floats(self):
        # a tuple of floats, one per integrand of the stack
        logs = specfun._log_integral(
            lambda v: np.stack((-v * v, -2.0 * v * v)), DEFAULT_POLICY, 0.0)
        assert type(logs) is tuple and [type(x) for x in logs] == [float, float]
        assert logs[0] == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)
        assert logs[1] == pytest.approx(0.5 * math.log(math.pi / 2.0), rel=1e-12)

    @pytest.mark.parametrize("a,b,z", KERNEL_CASES)
    def test_integrand_calls_bounded(self, monkeypatch, a, b, z):
        # one array call of log_f for the probes, then one per refinement
        # step (one to four)
        sizes = []
        kernel = specfun._log_integral

        def counting(log_f, policy, v_peak):
            def counted(v):
                sizes.append(np.size(v))
                return log_f(v)
            return kernel(counted, policy, v_peak)

        monkeypatch.setattr(specfun, "_log_integral", counting)
        log_gamma_kummer_u(a, b, z)
        assert len(sizes) <= 1 + len(specfun._STEPS)
        assert min(sizes) > 1

    @pytest.mark.parametrize("a,b,z", KERNEL_CASES)
    def test_shared_step_sums_equal_alone(self, monkeypatch, a, b, z):
        # each grid's sum from a step shared with another grid is the one
        # that grid gives when evaluated on its own
        _, shared, alone = step_sums_shared_and_alone(
            monkeypatch, lambda: log_gamma_kummer_u(a, b, z))
        assert [n for n, _ in shared[:2]] == [sum(c) for c in specfun._STEPS[0]]
        assert shared == alone

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
