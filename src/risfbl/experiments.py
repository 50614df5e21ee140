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

Each figure is a spec in one table: the scenario fields it pins, its
cases and, for sweeps, its axis and metric columns.  Two engines run
the specs, one for SNR CDFs and one for N or d sweeps.  A Monte Carlo
cell's stream id is its position in the figure's cell order: the case
index for CDFs, axis-major (axis value, case) for sweeps.
"""

import csv
import dataclasses
import hashlib
import io
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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


# the only type each flag and count key accepts; nothing is coerced to it
_KEY_TYPES = {"use_3d": bool, "direct_link": bool, **dict.fromkeys((
    "info_bits", "blocklength", "n_elements", "n_samples", "seed",
    "stream_id", "chunk", "phase_bits"), int)}


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Inverse of ``scenario_to_dict``; keys left out keep their defaults.

    A uniform phase without ``phase_spread`` gets 0.25, a quantized one
    without ``phase_bits`` gets 2.  Flags take only booleans and counts
    only integers, as JSON writes them.  Raises DomainError for an
    unknown key, an unknown phase model, or a value of the wrong type or
    one that does not convert or validate.
    """
    merged = scenario_to_dict(ScenarioConfig())
    unknown = sorted(set(d) - set(merged) - {"phase_spread", "phase_bits"})
    if unknown:
        raise DomainError(f"unknown config key(s): {', '.join(unknown)}")
    merged.update(d)
    for key, kind in _KEY_TYPES.items():
        value = merged.get(key, 0)  # phase_bits may be absent
        if type(value) is not kind:
            raise DomainError(f"{key} must be {kind.__name__}, got {value!r}")
    try:
        kind = merged["phase"]
        if kind == "perfect":
            phase = Perfect()
        elif kind == "uniform":
            phase = UniformSpread(float(merged.get("phase_spread", 0.25)))
        elif kind == "quantized":
            phase = QuantizedBits(merged.get("phase_bits", 2))
        else:
            raise DomainError(
                f"phase must be perfect, uniform, or quantized; got {kind!r}")
        return ScenarioConfig(
            geometry=Geometry(
                ap=tuple(merged["ap"]), ac=tuple(merged["ac"]),
                ris=tuple(merged["ris"]), ap_height=float(merged["ap_height"]),
                use_3d=merged["use_3d"]),
            radio=RadioConfig(
                tx_power=float(merged["tx_power"]),
                noise_density=float(merged["noise_density"]),
                bandwidth=float(merged["bandwidth"]),
                noise_figure=float(merged["noise_figure"]),
                carrier_frequency=float(merged["carrier_frequency"])),
            packet=PacketConfig(
                info_bits=merged["info_bits"],
                blocklength=merged["blocklength"],
                target_bler=float(merged["target_bler"])),
            n_elements=merged["n_elements"],
            phase=phase,
            direct_link=merged["direct_link"],
            direct_exponent=float(merged["direct_exponent"]),
            mc=McConfig(
                n_samples=merged["n_samples"], seed=merged["seed"],
                stream_id=merged["stream_id"], chunk=merged["chunk"]),
            policy=EvalPolicy(rel_tol=float(merged["rel_tol"])),
        )
    except (ValueError, TypeError) as exc:
        raise DomainError(str(exc)) from exc


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


def _pmap(fn, items, workers):
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def _mc_cfg(scenario, stream_id):
    return dataclasses.replace(scenario.mc, stream_id=stream_id)


# ---------------------------------------------------------------------------
# Figure specs and engines
# ---------------------------------------------------------------------------

class _Figure(NamedTuple):
    """One figure as data.

    ``pins`` are the scenario fields the figure fixes.  A case is a column
    tag plus the scenario fields it sets (phase, direct link, direct
    exponent); the rest are the scenario's.  ``analytic`` and ``mc`` hold
    (column template, metric of (fit or MC averages, cell scenario)).
    Metrics call library functions by name inside their bodies, never as
    stored objects, so a function swapped into this module's globals
    (bench/tracer.py times them that way) is the one that runs.
    """

    engine: Callable
    pins: dict
    cases: tuple
    axis: str = ""
    analytic: tuple = ()
    mc: tuple = ()


def _cdf(spec, scenario, workers):
    """Analytic Gamma CDF and MC ECDF of the SNR per case, on one grid."""
    cells = [dataclasses.replace(scenario, **fields)
             for _, fields in spec.cases]
    fits = [cell.fit() for cell in cells]
    lo = min(f.mean for f in fits) * 1e-2
    hi = max(f.mean for f in fits) * 3.0
    snr = np.geomspace(lo, hi, 200)

    def one(idx):
        cell, fit = cells[idx], fits[idx]
        analytic = gamma_cdf(fit.shape, fit.rate, snr)
        samples = sample_snr(cell.gains(), cell.n_elements, cell.phase,
                             cell.rho(), _mc_cfg(cell, idx))
        ecdf = np.searchsorted(np.sort(samples), snr, side="right") / samples.size
        return analytic, ecdf

    cols = {"snr_db": list(10.0 * np.log10(snr))}
    rows = _pmap(one, range(len(cells)), workers)
    for (tag, _), (analytic, ecdf) in zip(spec.cases, rows):
        cols[f"cdf_{tag}"] = list(analytic)
        cols[f"cdf_{tag}_mc"] = list(ecdf)
    return cols


def _at_distance(s, d):
    return dataclasses.replace(
        s, geometry=dataclasses.replace(s.geometry, ris=(float(d), 10.0)))


_AXES = {
    "n_elements": (N_GRID, lambda s, n: dataclasses.replace(s, n_elements=n)),
    "ris_distance_m": (D_GRID, _at_distance),
}


def _sweep(spec, scenario, workers):
    """Analytic and MC metrics per (axis value, case) cell.

    A cell's stream id is its position in axis-major order.
    """
    grid, place = _AXES[spec.axis]
    cells = [place(dataclasses.replace(scenario, **fields), v)
             for v in grid for _, fields in spec.cases]

    def one(idx):
        cell = cells[idx]
        fit = cell.fit()
        row = [metric(fit, cell) for _, metric in spec.analytic]
        samples = sample_snr(cell.gains(), cell.n_elements, cell.phase,
                             cell.rho(), _mc_cfg(cell, idx))
        mc = mc_avg_metrics(samples, cell.packet)
        return row + [metric(mc, cell) for _, metric in spec.mc]

    rows = _pmap(one, range(len(cells)), workers)
    cols = {spec.axis: [float(v) for v in grid]}
    k = len(spec.cases)
    for j, (tag, _) in enumerate(spec.cases):
        for m, (name, _) in enumerate(spec.analytic + spec.mc):
            cols[name.format(tag)] = [r[m] for r in rows[j::k]]
    return cols


def _rate_exact(fit, s):
    return avg_rate_exact(fit, s.packet.blocklength, s.packet.target_bler,
                          s.policy)


def _bler(fit, s):
    return avg_bler(fit, s.packet.blocklength, s.packet.info_bits)


def _blocklength(fit, s):
    c1 = c1_avg_capacity(fit, s.policy)
    c2 = c2_avg_sqrt_dispersion(fit, s.policy)
    return avg_blocklength(c1, c2, s.packet.info_bits, s.packet.target_bler)


def _blocklength_mc(mc, s):
    return avg_blocklength(mc.avg_capacity, mc.avg_sqrt_dispersion,
                           s.packet.info_bits, s.packet.target_bler)


_FIGURES = {
    "fig2a": _Figure(_cdf, {"direct_link": False, "n_elements": 1024}, (
        ("perfect", {"phase": Perfect()}),
        ("3bit", {"phase": QuantizedBits(3)}),
        ("2bit", {"phase": QuantizedBits(2)}),
        ("1bit", {"phase": QuantizedBits(1)}),
        ("uniform", {"phase": UniformSpread(1.0)}))),
    "fig2b": _Figure(_cdf, {"n_elements": 1024}, (
        ("reflector_nodirect",
         {"phase": UniformSpread(1.0), "direct_link": False}),
        ("perfect_nodirect", {"phase": Perfect(), "direct_link": False}),
        ("perfect_direct", {"phase": Perfect(), "direct_link": True}),
        ("1bit_direct", {"phase": QuantizedBits(1), "direct_link": True}),
        ("2bit_direct", {"phase": QuantizedBits(2), "direct_link": True}))),
    "fig3": _Figure(
        _sweep, {"direct_link": False}, (("", {}),), "n_elements",
        (("rate_exact", _rate_exact),
         ("rate_lower_bound", lambda fit, s: avg_rate_lower_bound(
             fit, s.packet.blocklength, s.packet.target_bler, s.policy)),
         ("capacity_shannon", lambda fit, s: c1_avg_capacity(fit, s.policy))),
        (("rate_mc", lambda mc, s: mc.avg_rate),
         ("rate_mc_se", lambda mc, s: mc.avg_rate_se))),
    "fig4": _Figure(
        _sweep, {"direct_link": False}, (
            ("perfect", {"phase": Perfect()}),
            ("2bit", {"phase": QuantizedBits(2)}),
            ("1bit", {"phase": QuantizedBits(1)})), "n_elements",
        (("bler_{}", _bler),),
        (("bler_{}_mc", lambda mc, s: mc.avg_bler),)),
    "fig5": _Figure(
        _sweep, {"direct_link": False, "n_elements": 512}, (
            ("perfect", {"phase": Perfect()}),
            ("2bit", {"phase": QuantizedBits(2)}),
            ("1bit", {"phase": QuantizedBits(1)})), "ris_distance_m",
        (("bler_{}", _bler),),
        (("bler_{}_mc", lambda mc, s: mc.avg_bler),)),
    "fig6a": _Figure(
        _sweep, {"direct_link": True}, (
            ("_ple3.6", {"direct_exponent": 3.6}),
            ("_ple3.8", {"direct_exponent": 3.8}),
            ("_ple4", {"direct_exponent": 4.0})), "ris_distance_m",
        (("rate{}", _rate_exact),),
        (("rate{}_mc", lambda mc, s: mc.avg_rate),)),
    "fig6b": _Figure(
        _sweep, {"direct_link": False}, (("", {}),), "ris_distance_m",
        (("rate{}", _rate_exact),),
        (("rate{}_mc", lambda mc, s: mc.avg_rate),)),
    "fig7": _Figure(
        _sweep, {"direct_link": False}, (
            ("1bit", {"phase": QuantizedBits(1)}),
            ("2bit", {"phase": QuantizedBits(2)}),
            ("3bit", {"phase": QuantizedBits(3)}),
            ("perfect", {"phase": Perfect()})), "n_elements",
        (("blocklength_{}", _blocklength),),
        (("blocklength_{}_mc", _blocklength_mc),)),
    "fig8": _Figure(
        _sweep, {"direct_link": False}, (("", {}),), "n_elements",
        (("sqrt_dispersion",
          lambda fit, s: c2_avg_sqrt_dispersion(fit, s.policy)),),
        (("sqrt_dispersion_mc", lambda mc, s: mc.avg_sqrt_dispersion),)),
}

FIGURE_IDS = tuple(_FIGURES)


def run_figure(figure_id: str, scenario: ScenarioConfig = ScenarioConfig(),
               workers: int = 1) -> ResultTable:
    """Produce the data table for one figure.

    The scenario provides the non-swept parameters; the figure's spec
    pins its own fields (element count for CDFs, direct-link flag), and
    the table's sidecar records the pinned scenario.
    """
    if figure_id not in _FIGURES:
        raise DomainError(
            f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")
    spec = _FIGURES[figure_id]
    scenario = dataclasses.replace(scenario, **spec.pins)
    meta = {
        "scenario": scenario_to_dict(scenario),
        "seed": scenario.mc.seed,
        "n_samples": scenario.mc.n_samples,
    }
    columns = spec.engine(spec, scenario, max(int(workers), 1))
    return ResultTable(figure_id=figure_id, columns=columns, meta=meta)


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
