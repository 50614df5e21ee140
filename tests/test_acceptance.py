"""
Acceptance gate
===============
Ten end-to-end criteria, one test each.  Every test prints a single
PASS/FAIL line (run pytest with ``-s`` to see them) and then asserts,
so the suite stays red if any criterion regresses.
"""

import dataclasses
import math
import time

import numpy as np

from risfbl.channel import (
    Geometry,
    Perfect,
    QuantizedBits,
    RadioConfig,
    UniformSpread,
    asymptotic_trend,
    fit_snr,
    link_gains,
    moments_X,
    snr_scale,
)
from risfbl.experiments import (
    N_GRID,
    D_GRID,
    ScenarioConfig,
    required_elements,
    run_figure,
)
from risfbl.fbl import (
    avg_bler,
    avg_rate_exact,
    avg_rate_lower_bound,
    c1_avg_capacity,
    c2_avg_sqrt_dispersion,
)
from risfbl.montecarlo import McConfig, empirical_stats, ks_distance, mc_avg_metrics, sample_snr
from risfbl.specfun import LOG2E, EvalPolicy, inv_q
from risfbl.channel import GammaFit

import oracles

RHO = snr_scale(RadioConfig())
POLICY = EvalPolicy(rel_tol=1e-9)
MC10K = McConfig(n_samples=10_000)
FAST_MC = McConfig(n_samples=500)


def nodirect_gains():
    return link_gains(Geometry(), direct_link=False)


def report(num, ok, text):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}", flush=True)
    assert ok, f"criterion {num:02d}: {text}"


def test_criterion_01_required_elements_anchors():
    t0 = time.perf_counter()
    s = ScenarioConfig(mc=FAST_MC)
    got = {}
    for label, phase, anchor in (("perfect", Perfect(), 190),
                                 ("1bit", QuantizedBits(1), 290),
                                 ("2bit", QuantizedBits(2), 200)):
        s_p = dataclasses.replace(s, phase=phase)
        n = required_elements(1e-9, s_p)
        got[label] = (n, anchor, abs(n - anchor) / anchor)
    dt = time.perf_counter() - t0
    ok = all(err <= 0.10 for _, _, err in got.values()) and dt < 30.0
    detail = ", ".join(f"{k}: N*={n} vs {a} ({e:.1%})"
                       for k, (n, a, e) in got.items())
    report(1, ok, f"element counts for 1e-9 BLER within 10% "
                  f"[{detail}] in {dt:.1f}s")


def test_criterion_02_median_snr_gaps():
    t0 = time.perf_counter()
    g = nodirect_gains()
    meds = {}
    for i, (label, phase) in enumerate((("perfect", Perfect()),
                                        ("1bit", QuantizedBits(1)),
                                        ("2bit", QuantizedBits(2)),
                                        ("3bit", QuantizedBits(3)))):
        cfg = dataclasses.replace(MC10K, stream_id=i)
        s = sample_snr(g, 1024, phase, RHO, cfg)
        meds[label] = float(np.median(s))
    gaps = {k: 10.0 * math.log10(meds["perfect"] / meds[k])
            for k in ("1bit", "2bit", "3bit")}
    expect = {"1bit": 3.9, "2bit": 0.9, "3bit": 0.2}
    dt = time.perf_counter() - t0
    ok = all(abs(gaps[k] - expect[k]) <= 0.3 for k in expect) and dt < 30.0
    detail = ", ".join(f"{k}: {gaps[k]:.2f} dB vs {expect[k]} dB" for k in expect)
    report(2, ok, f"median SNR loss from quantization at N=1024 "
                  f"[{detail}] in {dt:.1f}s")


def test_criterion_03_gamma_fit_ks():
    g = nodirect_gains()
    phases = (("perfect", Perfect()), ("uniform0.25", UniformSpread(0.25)),
              ("1bit", QuantizedBits(1)), ("2bit", QuantizedBits(2)))
    worst = ("", 0.0)
    for i, ((label, phase), n) in enumerate(
            (c, n) for n in (256, 1024) for c in phases):
        cfg = dataclasses.replace(MC10K, stream_id=i)
        s = sample_snr(g, n, phase, RHO, cfg)
        d = ks_distance(s, fit_snr(g, n, phase, RHO))
        if d > worst[1]:
            worst = (f"{label}@N={n}", d)
    ok = worst[1] < 0.03
    report(3, ok, f"Gamma fit KS distance < 0.03 over phase models and "
                  f"N in {{256, 1024}} (worst {worst[0]}: {worst[1]:.4f})")


def test_criterion_04_closed_forms_vs_frozen_oracle():
    t0 = time.perf_counter()
    worst = {"c1": 0.0, "c2": 0.0, "bound": 0.0, "bler": 0.0}
    zero_ok = True
    for (shape, rate, r, L), (c1_ref, c2_ref, bd_ref, bl_ref) in \
            oracles.FROZEN.items():
        fit = GammaFit(shape, rate)
        c1 = c1_avg_capacity(fit, POLICY)
        c2 = c2_avg_sqrt_dispersion(fit, POLICY)
        lb = avg_rate_lower_bound(fit, 300, 1e-9, POLICY)
        c1_lb = math.log2(1.0 + shape ** 2 / (rate * (shape + 1.0)))
        bound = (c1_lb - lb) * math.sqrt(300.0) / inv_q(1e-9)
        bl = avg_bler(fit, r, L)
        worst["c1"] = max(worst["c1"], abs(c1 / c1_ref - 1.0))
        worst["c2"] = max(worst["c2"], abs(c2 / c2_ref - 1.0))
        worst["bound"] = max(worst["bound"], abs(bound / bd_ref - 1.0))
        if bl_ref is None:
            # oracle value underflows doubles (~1e-671); exact zero expected
            zero_ok = zero_ok and bl == 0.0
        else:
            worst["bler"] = max(worst["bler"], abs(bl / bl_ref - 1.0))
    dt = time.perf_counter() - t0
    ok = (worst["c1"] <= 1e-7 and worst["c2"] <= 1e-7
          and worst["bound"] <= 1e-7 and worst["bler"] <= 1e-9
          and zero_ok and dt < 10.0)
    report(4, ok, "closed forms vs frozen 20-point oracle "
                  f"(worst rel: c1 {worst['c1']:.1e}, c2 {worst['c2']:.1e}, "
                  f"bound {worst['bound']:.1e}, bler {worst['bler']:.1e}, "
                  f"underflow-to-zero {zero_ok}) in {dt:.1f}s")


def test_criterion_05_moments_vs_monte_carlo():
    checks, fails = 0, []
    stream = 0
    for direct in (False, True):
        g = link_gains(Geometry(), direct_link=direct)
        for n in (1, 16, 256):
            for label, phase in (("perfect", Perfect()),
                                 ("uniform0.25", UniformSpread(0.25)),
                                 ("1bit", QuantizedBits(1))):
                cfg = dataclasses.replace(MC10K, stream_id=stream)
                stream += 1
                s = sample_snr(g, n, phase, RHO, cfg) / RHO
                st = empirical_stats(s)
                an = moments_X(g, n, phase)
                checks += 2
                if abs(an.m1 - st.m1) > 4.0 * st.m1_se:
                    fails.append(f"m1 {label} N={n} direct={direct}")
                if abs(an.m2 - st.m2) > 4.0 * st.m2_se:
                    fails.append(f"m2 {label} N={n} direct={direct}")
    ok = not fails
    report(5, ok, f"analytic moments within 4 SE of Monte Carlo on "
                  f"{checks} checks" + (f" (failed: {fails})" if fails else ""))


def test_criterion_06_rate_vs_monte_carlo():
    # at N=64 the average rate crosses zero, so a pure relative tolerance
    # is ill-posed there; agreement then falls back to 3 MC standard errors
    g = nodirect_gains()
    worst = 0.0
    lb_ok = True
    agree = True
    for i, n in enumerate((64, 128, 256, 512, 1024)):
        fit = fit_snr(g, n, Perfect(), RHO)
        exact = avg_rate_exact(fit, 300, 1e-9, POLICY)
        lb = avg_rate_lower_bound(fit, 300, 1e-9, POLICY)
        cfg = dataclasses.replace(MC10K, stream_id=i)
        s = sample_snr(g, n, Perfect(), RHO, cfg)
        mc = mc_avg_metrics(s, ScenarioConfig().packet)
        gap = abs(exact - mc.avg_rate)
        agree = agree and gap <= max(0.01 * abs(mc.avg_rate),
                                     3.0 * mc.avg_rate_se)
        worst = max(worst, gap / max(abs(mc.avg_rate), 3.0 * mc.avg_rate_se))
        lb_ok = lb_ok and lb <= exact + 1e-12
    ok = agree and lb_ok
    report(6, ok, f"average rate vs Monte Carlo within 1% (or 3 SE near the "
                  f"zero crossing) over N=64..1024 (worst {worst:.2%}) and "
                  f"lower bound <= exact ({lb_ok})")


def test_criterion_07_scaling_laws():
    g = nodirect_gains()
    trend = asymptotic_trend(g, Perfect(), [256, 512, 1024, 2048, 4096])
    c2 = c2_avg_sqrt_dispersion(fit_snr(g, 1024, Perfect(), RHO), POLICY)
    ok = (abs(trend["mean_slope"] - 2.0) <= 0.1
          and abs(trend["variance_slope"] - 3.0) <= 0.15
          and abs(c2 / LOG2E - 1.0) <= 0.01)
    report(7, ok, f"mean SNR ~ N^{trend['mean_slope']:.3f}, "
                  f"variance ~ N^{trend['variance_slope']:.3f}, "
                  f"sqrt-dispersion at N=1024 is {c2:.4f} "
                  f"vs log2(e) = {LOG2E:.4f}")


def test_criterion_08_blocklength_ordering():
    t = run_figure("fig7", ScenarioConfig(mc=FAST_MC))
    labels = ("1bit", "2bit", "3bit", "perfect")
    cols = {k: np.array(t.columns[f"blocklength_{k}"]) for k in labels}
    decreasing = all(np.all(np.diff(cols[k]) < 0) for k in labels)
    ordered = bool(np.all(cols["1bit"] > cols["2bit"])
                   and np.all(cols["2bit"] > cols["3bit"])
                   and np.all(cols["3bit"] > cols["perfect"]))
    ok = decreasing and ordered
    report(8, ok, f"average blocklength strictly decreasing in N "
                  f"({decreasing}) and ordered 1bit > 2bit > 3bit > perfect "
                  f"({ordered})")


def test_criterion_09_placement_extremes():
    s = ScenarioConfig(mc=FAST_MC)
    f5 = run_figure("fig5", s)
    b = np.array(f5.columns["bler_perfect"])
    d = list(D_GRID)
    mid_is_worst = b[d.index(50)] >= np.max(b)
    f6 = run_figure("fig6b", s)
    r = np.array(f6.columns["rate"])
    edges_beat_mid = (r[d.index(5)] > r[d.index(50)]
                      and r[d.index(95)] > r[d.index(50)])
    ok = bool(mid_is_worst and edges_beat_mid)
    report(9, ok, f"mid-path placement is worst: BLER peaks at d=50 "
                  f"({mid_is_worst}), rate at d=5/95 beats d=50 "
                  f"({edges_beat_mid})")


def test_criterion_10_determinism():
    s = ScenarioConfig(mc=FAST_MC)
    a = run_figure("fig8", s, workers=1).to_csv()
    b = run_figure("fig8", s, workers=1).to_csv()
    c = run_figure("fig8", s, workers=4).to_csv()
    ok = a == b == c
    report(10, ok, f"figure tables byte-identical across repeat runs "
                   f"({a == b}) and worker counts 1 vs 4 ({a == c})")
