"""
Benchmark workloads and their output checks
===========================================
Two workloads, each one pass of user-visible work through the public
API (see README.md for why each exists):

  mc_points        20 Monte Carlo points: fig8's 15 element counts
                   N = 16..2048 at perfect phase (fit -> C2 -> sampler
                   -> MC averages), then fig2a's five phase models at
                   N = 1024 (fit -> Gamma CDF -> sampler -> ECDF)
  analytic_points  132 closed-form points (fit -> exact rate -> lower
                   bound -> BLER) plus three required_elements searches,
                   no Monte Carlo

An op is one MC point, one analytic point or one required_elements
call.  It fails on an exception or a failed check.  The checks compare
analytic values with ``reference.json`` (recorded from ``run_figure``
and the point functions by ``make_reference.py``) to 1e-7 relative,
require the recorded required_elements results exactly, and hold the
Monte Carlo values to statistical bounds, so a rewrite that keeps the
numbers passes and a broken result does not.

Each workload also names the reference kernel (yardstick.py) that gauges
the host's speed around its ops.
"""

import dataclasses
import json
import random
from pathlib import Path

import numpy as np

from risfbl import channel, experiments, fbl, montecarlo, specfun
from risfbl.channel import Perfect, QuantizedBits, UniformSpread
from risfbl.experiments import D_GRID, N_GRID, ScenarioConfig
from risfbl.montecarlo import McConfig

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

REL_TOL = 1e-7          # analytic values against the recorded reference
SQRT_DISP_TOL = 0.01    # fig8: MC sqrt-dispersion against C2
ECDF_TOL = 0.03         # fig2a: max |ECDF - CDF|, criterion 03's KS bound
ANCHOR_TOL = 0.10       # required_elements: criterion 01's band
TARGET_BLER = 1e-9

# workload -> reference kernel of yardstick.py
KERNEL = {"mc_points": "sampler", "analytic_points": "series"}

# fig2a's cases: element count, phase models in its stream-id order
FIG2A_N = 1024
FIG2A_PHASES = (("perfect", Perfect()), ("3bit", QuantizedBits(3)),
                ("2bit", QuantizedBits(2)), ("1bit", QuantizedBits(1)),
                ("uniform", UniformSpread(1.0)))

POINT_PHASES_N = (("perfect", Perfect()), ("1bit", QuantizedBits(1)),
                  ("2bit", QuantizedBits(2)), ("3bit", QuantizedBits(3)),
                  ("uniform0.25", UniformSpread(0.25)))
POINT_PHASES_D = (("perfect", Perfect()), ("2bit", QuantizedBits(2)),
                  ("1bit", QuantizedBits(1)))
POINT_N_FOR_D = 512
# criterion 01 anchors: elements needed for 1e-9 average BLER
ANCHORS = (("perfect", Perfect(), 190), ("1bit", QuantizedBits(1), 290),
           ("2bit", QuantizedBits(2), 200))


@dataclasses.dataclass(frozen=True)
class Point:
    key: str
    gains: channel.LinkGains
    n: int
    phase: channel.PhaseModel


def analytic_point_list():
    """The 132 points in canonical order, keyed as in reference.json."""
    base = ScenarioConfig()
    pts = [Point(f"N:{lbl}:{n}", base.gains(), n, ph)
           for lbl, ph in POINT_PHASES_N for n in N_GRID]
    for lbl, ph in POINT_PHASES_D:
        for d in D_GRID:
            geo = dataclasses.replace(base.geometry, ris=(float(d), 10.0))
            pts.append(Point(f"D:{lbl}:{d}", channel.link_gains(
                geo, direct_link=False), POINT_N_FOR_D, ph))
    return pts


POINT_COLUMNS = ("rate_exact", "rate_lower_bound", "avg_bler")


def eval_point(p: Point, scenario: ScenarioConfig):
    """One point: what a ``risfbl rate`` plus ``risfbl bler`` call computes."""
    pkt = scenario.packet
    fit = channel.fit_snr(p.gains, p.n, p.phase, scenario.rho())
    exact = fbl.avg_rate_exact(fit, pkt.blocklength, pkt.target_bler,
                               scenario.policy)
    lb = fbl.avg_rate_lower_bound(fit, pkt.blocklength, pkt.target_bler,
                                  scenario.policy)
    bler = fbl.avg_bler(fit, pkt.blocklength, pkt.info_bits)
    return [exact, lb, bler]


def fig8_point(scenario: ScenarioConfig, n: int, mc: McConfig):
    """One N of fig8: (C2, MC sqrt-dispersion), as its builder computes it."""
    gains = scenario.gains()
    fit = channel.fit_snr(gains, n, scenario.phase, scenario.rho())
    c2 = fbl.c2_avg_sqrt_dispersion(fit, scenario.policy)
    samples = montecarlo.sample_snr(gains, n, scenario.phase, scenario.rho(), mc)
    return c2, montecarlo.mc_avg_metrics(samples, scenario.packet).avg_sqrt_dispersion


def fig2a_snr_grid(scenario: ScenarioConfig):
    """fig2a's SNR axis: spans every case's Gamma fit."""
    means = [channel.fit_snr(scenario.gains(), FIG2A_N, ph, scenario.rho()).mean
             for _, ph in FIG2A_PHASES]
    return np.geomspace(min(means) * 1e-2, max(means) * 3.0, 200)


def fig2a_case(scenario: ScenarioConfig, phase, snr, mc: McConfig):
    """One case of fig2a: (Gamma CDF, MC ECDF) on the SNR axis."""
    gains = scenario.gains()
    fit = channel.fit_snr(gains, FIG2A_N, phase, scenario.rho())
    cdf = specfun.gamma_cdf(fit.shape, fit.rate, snr)
    samples = montecarlo.sample_snr(gains, FIG2A_N, phase, scenario.rho(), mc)
    ecdf = np.searchsorted(np.sort(samples), snr, side="right") / samples.size
    return cdf, ecdf


def load_reference(path=REFERENCE_PATH):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Checks: each returns a list of failure messages, empty when the output holds
# ---------------------------------------------------------------------------

def _close(a, b):
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_fig8_point(i, out, ref):
    n = N_GRID[i]
    c2, mc = out
    want = ref["fig8"]["sqrt_dispersion"][i]
    if not _close(c2, want):
        return [f"fig8 N={n}: sqrt_dispersion = {c2!r}, reference {want!r}"]
    if not abs(mc - c2) <= SQRT_DISP_TOL * abs(c2):
        return [f"fig8 N={n}: sqrt_dispersion_mc {mc!r} off C2 {c2!r} "
                f"by > {SQRT_DISP_TOL:.0%}"]
    return []


def check_fig2a_case(label, out, ref):
    cdf, ecdf = (list(col) for col in out)
    want = ref["fig2a"][f"cdf_{label}"]
    if len(cdf) != len(want) or len(ecdf) != len(want):
        return [f"fig2a {label}: {len(cdf)} CDF and {len(ecdf)} ECDF "
                f"values, reference has {len(want)}"]
    bad = [i for i, (g, w) in enumerate(zip(cdf, want)) if not _close(g, w)]
    if bad:
        i = bad[0]
        return [f"fig2a {label}: cdf[{i}] = {cdf[i]!r}, reference {want[i]!r} "
                f"({len(bad)} off by > {REL_TOL:g} rel)"]
    gap = max(abs(e - c) for e, c in zip(ecdf, cdf))
    if not gap <= ECDF_TOL:
        return [f"fig2a {label}: max |ECDF - CDF| = {gap:.4f} > {ECDF_TOL}"]
    return []


def check_point(key, values, ref):
    want = ref["analytic_points"].get(key)
    if want is None:
        return [f"analytic_points: no reference for {key}"]
    return [f"analytic_points {key}: {name} = {got!r}, reference {exp!r}"
            for name, got, exp in zip(POINT_COLUMNS, values, want)
            if not _close(got, exp)]


def check_required(label, n_found, anchor, ref):
    """N* must equal the recorded search result and sit in the anchor band."""
    errs = []
    want = ref["required_elements"].get(label)
    if n_found != want:
        errs.append(f"required_elements {label}: N*={n_found!r}, "
                    f"reference {want!r}")
    if not abs(n_found - anchor) <= ANCHOR_TOL * anchor:
        errs.append(f"required_elements {label}: N*={n_found!r} outside "
                    f"{ANCHOR_TOL:.0%} of {anchor}")
    return errs


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Op:
    """One timed library call plus the check of its output."""

    name: str
    call: object            # () -> output; this is what is timed
    check: object           # output -> list of failure messages
    is_query: bool = True    # counts towards the query latency percentiles
    span: str | None = None  # span the tracer opens around the call, for
                             # calls that are not a traced library function


def _mc_ops(seed, ref, n_samples):
    scenario = ScenarioConfig()
    # stream ids as fig8 and fig2a assign them: the case's list position
    mc = lambda stream: McConfig(seed=seed, n_samples=n_samples, stream_id=stream)
    ops = [Op(f"fig8:N{n}", lambda i=i, n=n: fig8_point(scenario, n, mc(i)),
              lambda out, i=i: check_fig8_point(i, out, ref), span="bench.fig8")
           for i, n in enumerate(N_GRID)]
    snr = fig2a_snr_grid(scenario)
    ops += [Op(f"fig2a:{label}",
               lambda i=i, ph=ph: fig2a_case(scenario, ph, snr, mc(i)),
               lambda out, label=label: check_fig2a_case(label, out, ref),
               span="bench.fig2a")
            for i, (label, ph) in enumerate(FIG2A_PHASES)]
    return ops


def build_ops(workload, seed, ref, small=False):
    """The ops of one pass, built once from the seed.

    ``small`` shrinks the inputs for a smoke test: 64 MC samples, six
    analytic points.  Its MC outputs are not expected to pass the checks.
    """
    if workload == "mc_points":
        return _mc_ops(seed, ref, 64 if small else McConfig().n_samples)
    if workload != "analytic_points":
        raise ValueError(f"unknown workload {workload!r}")
    scenario = ScenarioConfig()
    points = analytic_point_list()
    random.Random(seed).shuffle(points)
    if small:
        points = points[:6]
    ops = [Op(p.key, lambda p=p: eval_point(p, scenario),
              lambda v, k=p.key: check_point(k, v, ref), span="bench.query")
           for p in points]
    for label, phase, anchor in ANCHORS:
        s = dataclasses.replace(scenario, phase=phase)
        ops.append(Op(f"required_elements:{label}",
                      lambda s=s: experiments.required_elements(TARGET_BLER, s),
                      lambda n, lbl=label, a=anchor: check_required(lbl, n, a, ref),
                      is_query=False))
    return ops
