"""
Scenario registry and figure harness
====================================
Binds the default simulation parameters (transmit power 200 mW, noise
-174 dBm/Hz, 3 dB noise figure, 200 kHz, 240 info bits over 300 channel
uses at target error 1e-9) to the analytics and Monte Carlo modules and
reproduces the reference result tables: SNR CDFs, average rate, average
block error probability, and average blocklength sweeps over element
count and RIS position.

The RIS position used for the element-count sweeps, (91, 5), was
calibrated once against the 190-element perfect-phase reliability
anchor and then frozen; see the README for the procedure.  Position
sweeps place the RIS at (d, 10) per the tabulated scenario.
"""

import csv
import dataclasses
import hashlib
import io
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .specfun import DomainError, EvalPolicy, gamma_cdf
from .channel import (
    Geometry,
    LinkGains,
    PATH_LOSS_EXPONENT,
    Perfect,
    PhaseModel,
    QuantizedBits,
    RadioConfig,
    UniformSpread,
    fit_snr,
    link_gains,
    snr_scale,
)
from .fbl import (
    PacketConfig,
    avg_bler,
    avg_blocklength,
    avg_rate_exact,
    avg_rate_lower_bound,
    c1_avg_capacity,
    c2_avg_sqrt_dispersion,
)
from .montecarlo import McConfig, mc_avg_metrics, sample_snr


class BracketError(RuntimeError):
    """Requested threshold not reachable inside the search bracket."""


FIGURE_POLICY = EvalPolicy(rel_tol=1e-9)

N_GRID = (16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048)
D_GRID = tuple(range(5, 100, 5))

FIGURE_IDS = ("fig2a", "fig2b", "fig3", "fig4", "fig5",
              "fig6a", "fig6b", "fig7", "fig8")


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully-resolved simulation scenario."""

    geometry: Geometry = Geometry()
    radio: RadioConfig = RadioConfig()
    packet: PacketConfig = PacketConfig()
    n_elements: int = 512
    phase: PhaseModel = Perfect()
    direct_link: bool = False
    direct_exponent: float = PATH_LOSS_EXPONENT
    mc: McConfig = McConfig()
    policy: EvalPolicy = FIGURE_POLICY

    def __post_init__(self):
        if self.n_elements < 0:
            raise DomainError("n_elements must be >= 0")
        if self.direct_exponent < 2.0:
            raise DomainError("direct_exponent must be >= 2")

    def gains(self) -> LinkGains:
        return link_gains(self.geometry, direct_link=self.direct_link,
                          direct_exponent=self.direct_exponent)

    def rho(self) -> float:
        return snr_scale(self.radio)

    def fit(self, n_elements=None, phase=None):
        n = self.n_elements if n_elements is None else n_elements
        p = self.phase if phase is None else phase
        return fit_snr(self.gains(), n, p, self.rho())


def phase_label(phase: PhaseModel) -> str:
    if isinstance(phase, Perfect):
        return "perfect"
    if isinstance(phase, UniformSpread):
        return f"uniform{phase.spread:g}"
    return f"{phase.bits}bit"


def scenario_to_dict(s: ScenarioConfig) -> dict:
    """Flat JSON-ready view of a scenario (linear units throughout)."""
    d = {
        "ap": list(s.geometry.ap),
        "ac": list(s.geometry.ac),
        "ris": list(s.geometry.ris),
        "ap_height": s.geometry.ap_height,
        "use_3d": s.geometry.use_3d,
        "tx_power": s.radio.tx_power,
        "noise_density": s.radio.noise_density,
        "bandwidth": s.radio.bandwidth,
        "noise_figure": s.radio.noise_figure,
        "carrier_frequency": s.radio.carrier_frequency,
        "info_bits": s.packet.info_bits,
        "blocklength": s.packet.blocklength,
        "target_bler": s.packet.target_bler,
        "n_elements": s.n_elements,
        "direct_link": s.direct_link,
        "direct_exponent": s.direct_exponent,
        "n_samples": s.mc.n_samples,
        "seed": s.mc.seed,
        "stream_id": s.mc.stream_id,
        "chunk": s.mc.chunk,
        "rel_tol": s.policy.rel_tol,
        "quadrature_points": s.policy.quadrature_points,
    }
    if isinstance(s.phase, Perfect):
        d["phase"] = "perfect"
    elif isinstance(s.phase, UniformSpread):
        d["phase"] = "uniform"
        d["phase_spread"] = s.phase.spread
    else:
        d["phase"] = "quantized"
        d["phase_bits"] = s.phase.bits
    return d


@dataclass
class ResultTable:
    """Columnar figure data plus the configuration that produced it."""

    figure_id: str
    columns: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        names = list(self.columns)
        n_rows = len(next(iter(self.columns.values())))
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(names)
        for i in range(n_rows):
            w.writerow(format(self.columns[c][i], ".17g") for c in names)
        return buf.getvalue()

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_csv().encode()).hexdigest()

    def write(self, csv_path) -> None:
        text = self.to_csv()
        with open(csv_path, "w") as f:
            f.write(text)
        sidecar = dict(self.meta)
        sidecar["figure_id"] = self.figure_id
        sidecar["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        with open(str(csv_path) + ".json", "w") as f:
            json.dump(sidecar, f, indent=2, sort_keys=True)
            f.write("\n")


def _table(figure_id, scenario, columns) -> ResultTable:
    meta = {
        "scenario": scenario_to_dict(scenario),
        "seed": scenario.mc.seed,
        "n_samples": scenario.mc.n_samples,
    }
    return ResultTable(figure_id=figure_id, columns=columns, meta=meta)


def _pmap(fn, items, workers):
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def _mc_cfg(scenario, stream_id):
    return dataclasses.replace(scenario.mc, stream_id=stream_id)


# ---------------------------------------------------------------------------
# Figure builders
# ---------------------------------------------------------------------------

_CDF_PHASES_2A = (("perfect", Perfect()), ("3bit", QuantizedBits(3)),
                  ("2bit", QuantizedBits(2)), ("1bit", QuantizedBits(1)),
                  ("uniform", UniformSpread(1.0)))


def _cdf_columns(figure_id, scenario, cases, workers):
    """Shared CDF machinery: analytic Gamma CDF and MC ECDF per case."""
    rho = scenario.rho()

    fits, gains_by_case = {}, {}
    for label, phase, direct in cases:
        g = link_gains(scenario.geometry, direct_link=direct,
                       direct_exponent=scenario.direct_exponent)
        gains_by_case[label] = g
        fits[label] = fit_snr(g, scenario.n_elements, phase, rho)

    lo = min(f.mean for f in fits.values()) * 1e-2
    hi = max(f.mean for f in fits.values()) * 3.0
    snr = np.geomspace(lo, hi, 200)
    cols = {"snr_db": list(10.0 * np.log10(snr))}

    def one(item):
        idx, (label, phase, direct) = item
        fit = fits[label]
        analytic = gamma_cdf(fit.shape, fit.rate, snr)
        samples = sample_snr(gains_by_case[label], scenario.n_elements, phase,
                             rho, _mc_cfg(scenario, idx))
        ecdf = np.searchsorted(np.sort(samples), snr, side="right") / samples.size
        return label, analytic, ecdf

    for label, analytic, ecdf in _pmap(one, list(enumerate(cases)), workers):
        cols[f"cdf_{label}"] = list(analytic)
        cols[f"cdf_{label}_mc"] = list(ecdf)
    return _table(figure_id, scenario, cols)


def _fig2a(scenario, workers):
    scenario = dataclasses.replace(scenario, direct_link=False, n_elements=1024)
    cases = [(lbl, ph, False) for lbl, ph in _CDF_PHASES_2A]
    return _cdf_columns("fig2a", scenario, cases, workers)


def _fig2b(scenario, workers):
    scenario = dataclasses.replace(scenario, n_elements=1024)
    cases = [
        ("reflector_nodirect", UniformSpread(1.0), False),
        ("perfect_nodirect", Perfect(), False),
        ("perfect_direct", Perfect(), True),
        ("1bit_direct", QuantizedBits(1), True),
        ("2bit_direct", QuantizedBits(2), True),
    ]
    return _cdf_columns("fig2b", scenario, cases, workers)


def _fig3(scenario, workers):
    scenario = dataclasses.replace(scenario, direct_link=False)
    gains = scenario.gains()
    rho = scenario.rho()
    pkt = scenario.packet

    def one(item):
        idx, n = item
        fit = fit_snr(gains, n, scenario.phase, rho)
        exact = avg_rate_exact(fit, pkt.blocklength, pkt.target_bler,
                               scenario.policy)
        lb = avg_rate_lower_bound(fit, pkt.blocklength, pkt.target_bler,
                                  scenario.policy)
        shannon = c1_avg_capacity(fit, scenario.policy)
        samples = sample_snr(gains, n, scenario.phase, rho,
                             _mc_cfg(scenario, idx))
        mc = mc_avg_metrics(samples, pkt)
        return exact, lb, shannon, mc.avg_rate, mc.avg_rate_se

    rows = _pmap(one, list(enumerate(N_GRID)), workers)
    cols = {"n_elements": [float(n) for n in N_GRID]}
    for j, name in enumerate(("rate_exact", "rate_lower_bound",
                              "capacity_shannon", "rate_mc", "rate_mc_se")):
        cols[name] = [r[j] for r in rows]
    return _table("fig3", scenario, cols)


_BLER_PHASES = (("perfect", Perfect()), ("2bit", QuantizedBits(2)),
                ("1bit", QuantizedBits(1)))


def _fig4(scenario, workers):
    scenario = dataclasses.replace(scenario, direct_link=False)
    gains = scenario.gains()
    rho = scenario.rho()
    pkt = scenario.packet

    def one(item):
        idx, (n, (label, phase)) = item
        fit = fit_snr(gains, n, phase, rho)
        analytic = avg_bler(fit, pkt.blocklength, pkt.info_bits)
        samples = sample_snr(gains, n, phase, rho, _mc_cfg(scenario, idx))
        mc = mc_avg_metrics(samples, pkt)
        return label, n, analytic, mc.avg_bler

    items = [(n, c) for n in N_GRID for c in _BLER_PHASES]
    rows = _pmap(one, list(enumerate(items)), workers)
    cols = {"n_elements": [float(n) for n in N_GRID]}
    for label, _ in _BLER_PHASES:
        got = [r for r in rows if r[0] == label]
        cols[f"bler_{label}"] = [r[2] for r in got]
        cols[f"bler_{label}_mc"] = [r[3] for r in got]
    return _table("fig4", scenario, cols)


def _fig5(scenario, workers):
    scenario = dataclasses.replace(scenario, direct_link=False, n_elements=512)
    rho = scenario.rho()
    pkt = scenario.packet

    def one(item):
        idx, (d, (label, phase)) = item
        geo = dataclasses.replace(scenario.geometry, ris=(float(d), 10.0))
        gains = link_gains(geo, direct_link=False)
        fit = fit_snr(gains, scenario.n_elements, phase, rho)
        analytic = avg_bler(fit, pkt.blocklength, pkt.info_bits)
        samples = sample_snr(gains, scenario.n_elements, phase, rho,
                             _mc_cfg(scenario, idx))
        mc = mc_avg_metrics(samples, pkt)
        return label, analytic, mc.avg_bler

    items = [(d, c) for d in D_GRID for c in _BLER_PHASES]
    rows = _pmap(one, list(enumerate(items)), workers)
    cols = {"ris_distance_m": [float(d) for d in D_GRID]}
    for label, _ in _BLER_PHASES:
        got = [r for r in rows if r[0] == label]
        cols[f"bler_{label}"] = [r[1] for r in got]
        cols[f"bler_{label}_mc"] = [r[2] for r in got]
    return _table("fig5", scenario, cols)


def _fig6(figure_id, scenario, workers):
    direct = figure_id == "fig6a"
    scenario = dataclasses.replace(scenario, direct_link=direct)
    rho = scenario.rho()
    pkt = scenario.packet
    exponents = (scenario.direct_exponent,) if not direct else (3.6, 3.8, 4.0)

    def one(item):
        idx, (d, exp) = item
        geo = dataclasses.replace(scenario.geometry, ris=(float(d), 10.0))
        gains = link_gains(geo, direct_link=direct, direct_exponent=exp)
        fit = fit_snr(gains, scenario.n_elements, scenario.phase, rho)
        exact = avg_rate_exact(fit, pkt.blocklength, pkt.target_bler,
                               scenario.policy)
        samples = sample_snr(gains, scenario.n_elements, scenario.phase, rho,
                             _mc_cfg(scenario, idx))
        mc = mc_avg_metrics(samples, pkt)
        return exp, exact, mc.avg_rate

    items = [(d, e) for d in D_GRID for e in exponents]
    rows = _pmap(one, list(enumerate(items)), workers)
    cols = {"ris_distance_m": [float(d) for d in D_GRID]}
    for e in exponents:
        got = [r for r in rows if r[0] == e]
        tag = f"_ple{e:g}" if direct else ""
        cols[f"rate{tag}"] = [r[1] for r in got]
        cols[f"rate{tag}_mc"] = [r[2] for r in got]
    return _table(figure_id, scenario, cols)


_FIG7_PHASES = (("1bit", QuantizedBits(1)), ("2bit", QuantizedBits(2)),
                ("3bit", QuantizedBits(3)), ("perfect", Perfect()))


def _fig7(scenario, workers):
    scenario = dataclasses.replace(scenario, direct_link=False)
    gains = scenario.gains()
    rho = scenario.rho()
    pkt = scenario.packet

    def one(item):
        idx, (n, (label, phase)) = item
        fit = fit_snr(gains, n, phase, rho)
        c1 = c1_avg_capacity(fit, scenario.policy)
        c2 = c2_avg_sqrt_dispersion(fit, scenario.policy)
        analytic = avg_blocklength(c1, c2, pkt.info_bits, pkt.target_bler)
        samples = sample_snr(gains, n, phase, rho, _mc_cfg(scenario, idx))
        mc = mc_avg_metrics(samples, pkt)
        mc_val = avg_blocklength(mc.avg_capacity, mc.avg_sqrt_dispersion,
                                 pkt.info_bits, pkt.target_bler)
        return label, analytic, mc_val

    items = [(n, c) for n in N_GRID for c in _FIG7_PHASES]
    rows = _pmap(one, list(enumerate(items)), workers)
    cols = {"n_elements": [float(n) for n in N_GRID]}
    for label, _ in _FIG7_PHASES:
        got = [r for r in rows if r[0] == label]
        cols[f"blocklength_{label}"] = [r[1] for r in got]
        cols[f"blocklength_{label}_mc"] = [r[2] for r in got]
    return _table("fig7", scenario, cols)


def _fig8(scenario, workers):
    scenario = dataclasses.replace(scenario, direct_link=False)
    gains = scenario.gains()
    rho = scenario.rho()

    def one(item):
        idx, n = item
        fit = fit_snr(gains, n, scenario.phase, rho)
        c2 = c2_avg_sqrt_dispersion(fit, scenario.policy)
        samples = sample_snr(gains, n, scenario.phase, rho,
                             _mc_cfg(scenario, idx))
        mc = mc_avg_metrics(samples, scenario.packet)
        return c2, mc.avg_sqrt_dispersion

    rows = _pmap(one, list(enumerate(N_GRID)), workers)
    cols = {
        "n_elements": [float(n) for n in N_GRID],
        "sqrt_dispersion": [r[0] for r in rows],
        "sqrt_dispersion_mc": [r[1] for r in rows],
    }
    return _table("fig8", scenario, cols)


_BUILDERS = {
    "fig2a": _fig2a,
    "fig2b": _fig2b,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6a": lambda s, w: _fig6("fig6a", s, w),
    "fig6b": lambda s, w: _fig6("fig6b", s, w),
    "fig7": _fig7,
    "fig8": _fig8,
}


def run_figure(figure_id: str, scenario: ScenarioConfig = ScenarioConfig(),
               workers: int = 1) -> ResultTable:
    """Produce the data table for one figure.

    The scenario provides the non-swept parameters; each builder pins
    the swept axis and any figure-specific fields (element count for
    CDFs, direct-link flag, phase-model set).
    """
    if figure_id not in _BUILDERS:
        raise DomainError(
            f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")
    return _BUILDERS[figure_id](scenario, max(int(workers), 1))


# ---------------------------------------------------------------------------
# Element-count search
# ---------------------------------------------------------------------------

N_SEARCH_CAP = 8192


def required_elements(target_bler: float,
                      scenario: ScenarioConfig = ScenarioConfig(),
                      n_cap: int = N_SEARCH_CAP) -> int:
    """Smallest N with avg_bler(fit(N)) <= target_bler, by integer bisection."""
    if not 0.0 < target_bler < 1.0:
        raise DomainError("target_bler must lie in (0, 1)")
    pkt = scenario.packet

    def bler(n):
        return avg_bler(scenario.fit(n_elements=n), pkt.blocklength,
                        pkt.info_bits)

    lo = 1
    if bler(lo) <= target_bler:
        return lo
    hi_val = bler(n_cap)
    if hi_val > target_bler:
        raise BracketError(
            f"avg_bler at N={n_cap} is {hi_val:.3e} > target {target_bler:.3e}")
    hi = n_cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bler(mid) <= target_bler:
            hi = mid
        else:
            lo = mid
    return hi
