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
cell's stream id is a hash of its name (figure id, case tag and, for
sweeps, axis value), so it does not depend on where the cell sits.
"""

import csv
import dataclasses
import hashlib
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

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
        if not self.direct_exponent >= 2.0:
            raise DomainError("direct_exponent must be >= 2")

    def gains(self) -> LinkGains:
        return link_gains(self.geometry, direct_link=self.direct_link,
                          direct_exponent=self.direct_exponent)

    def rho(self) -> float:
        return snr_scale(self.radio)

    def fit(self, n_elements=None):
        n = self.n_elements if n_elements is None else n_elements
        return fit_snr(self.gains(), n, self.phase, self.rho())


def phase_label(phase: PhaseModel) -> str:
    """The phase model as one string: "perfect", "<b>bit" or
    "uniform:<spread>", the spread written with repr so that
    ``phase_from_label`` reads it back exactly."""
    if isinstance(phase, Perfect):
        return "perfect"
    if isinstance(phase, UniformSpread):
        return f"uniform:{phase.spread!r}"
    return f"{phase.bits}bit"


def phase_from_label(text: str) -> PhaseModel:
    """Inverse of ``phase_label``; a bare "uniform" has spread 0.25."""
    if text == "perfect":
        return Perfect()
    if text.endswith("bit") and text[:-3].isdecimal():
        return QuantizedBits(int(text[:-3]))
    if text == "uniform":
        return UniformSpread(0.25)
    if text.startswith("uniform:"):
        try:
            spread = float(text[len("uniform:"):])
        except ValueError:
            raise DomainError(
                f"uniform spread must be a number; got {text!r}") from None
        return UniformSpread(spread)
    raise DomainError(
        f"phase must be perfect, <b>bit, or uniform[:spread]; got {text!r}")


# A flat key is the name of a field of ScenarioConfig or of one of its
# sections, and the type of the field's default is the only JSON type the
# key takes: bool a flag, int a count, float a finite int or float (stored
# as float), a tuple a position of exactly two finite ints or floats
# (kept as given), and the phase model its ``phase_label`` string.
_SECTIONS = ("geometry", "radio", "packet", "mc", "policy")


def _flat_fields(s: ScenarioConfig):
    """(section or None, key, JSON value) for every flat key."""
    for f in dataclasses.fields(s):
        value = getattr(s, f.name)
        if f.name in _SECTIONS:
            for g in dataclasses.fields(value):
                yield f.name, g.name, getattr(value, g.name)
        else:
            yield None, f.name, (phase_label(value) if f.name == "phase"
                                 else value)


def scenario_to_dict(s: ScenarioConfig) -> dict:
    """Flat JSON-ready view of a scenario (linear units throughout)."""
    return {key: list(value) if isinstance(value, tuple) else value
            for _, key, value in _flat_fields(s)}


def _typed(key, value, default):
    """``value`` as the flat key with this default takes it, or DomainError."""
    if type(default) is tuple:
        if type(value) not in (list, tuple) or len(value) != 2:
            raise DomainError(f"{key} must be two numbers, got {value!r}")
        for v in value:
            _typed(key, v, 0.0)
        return tuple(value)
    kinds = (int, float) if type(default) is float else (type(default),)
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise DomainError(f"{key} must be {names}, got {value!r}")
    if type(default) is not float:
        return value
    if not math.isfinite(value):
        raise DomainError(f"{key} must be finite, got {value!r}")
    return float(value)


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Inverse of ``scenario_to_dict``; keys left out keep their defaults.

    A key takes only the JSON type of its field's default (see
    ``_SECTIONS``).  Raises DomainError for an unknown key, an unknown
    phase model, or a value of the wrong type or one that does not
    validate.
    """
    default = ScenarioConfig()
    unknown = sorted(set(d) - set(scenario_to_dict(default)))
    if unknown:
        raise DomainError(f"unknown config key(s): {', '.join(unknown)}")
    try:
        changes = {name: {} for name in (None,) + _SECTIONS}
        for section, key, value in _flat_fields(default):
            if key in d:
                value = _typed(key, d[key], value)
                changes[section][key] = (phase_from_label(value)
                                         if key == "phase" else value)
        sections = {name: dataclasses.replace(getattr(default, name),
                                              **changes[name])
                    for name in _SECTIONS}
        return dataclasses.replace(default, **changes[None], **sections)
    except (ValueError, TypeError, OverflowError) as exc:
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


def _mc_cfg(scenario, *name):
    """The scenario's MC config with the stream id of the cell ``name``:
    the 8-byte BLAKE2b digest of "figure id/case tag[/axis value]" as a
    big-endian integer, shifted right to 63 bits, XOR the scenario's
    ``stream_id`` (so the default 0 leaves the hash as it is)."""
    key = "/".join(map(str, name)).encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    cell_id = int.from_bytes(digest, "big") >> 1
    return dataclasses.replace(
        scenario.mc, stream_id=cell_id ^ scenario.mc.stream_id)


# ---------------------------------------------------------------------------
# Cell metrics
# ---------------------------------------------------------------------------
# The closed-form averages of one cell, each a function of (Gamma fit, cell
# scenario), shared by the figure specs, the element search and the CLI's
# records.  They call library functions by name inside their bodies, never
# as stored objects, so a function swapped into this module's globals
# (bench/tracer.py times them that way) is the one that runs.

def rate_exact(fit, s):
    return avg_rate_exact(fit, s.packet.blocklength, s.packet.target_bler,
                          s.policy)


def rate_lower_bound(fit, s):
    return avg_rate_lower_bound(fit, s.packet.blocklength,
                                s.packet.target_bler, s.policy)


def capacity_shannon(fit, s):
    return c1_avg_capacity(fit, s.policy)


def sqrt_dispersion(fit, s):
    return c2_avg_sqrt_dispersion(fit, s.policy)


def bler(fit, s):
    return avg_bler(fit, s.packet.blocklength, s.packet.info_bits)


def blocklength(fit, s):
    return avg_blocklength(capacity_shannon(fit, s), sqrt_dispersion(fit, s),
                           s.packet.info_bits, s.packet.target_bler)


# ---------------------------------------------------------------------------
# Figure specs and engines
# ---------------------------------------------------------------------------

class _Figure(NamedTuple):
    """One figure as data.

    ``pins`` are the scenario fields the figure fixes.  A case is a column
    tag plus the scenario fields it sets (phase, direct link, direct
    exponent); the rest are the scenario's.  A figure with an ``axis``
    sweeps it, one without is an SNR CDF.  ``analytic`` and ``mc`` hold
    (column template, metric of (fit or MC averages, cell scenario)); the
    analytic ones are the cell metrics above.
    """

    pins: dict
    cases: tuple
    axis: str = ""
    analytic: tuple = ()
    mc: tuple = ()


def _cdf(figure_id, spec, scenario, workers):
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
                             cell.rho(),
                             _mc_cfg(cell, figure_id, spec.cases[idx][0]))
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


def _sweep(figure_id, spec, scenario, workers):
    """Analytic and MC metrics per (axis value, case) cell, axis-major."""
    grid, place = _AXES[spec.axis]
    cells = [(place(dataclasses.replace(scenario, **fields), v), tag, v)
             for v in grid for tag, fields in spec.cases]

    def one(item):
        cell, tag, v = item
        fit = cell.fit()
        row = [metric(fit, cell) for _, metric in spec.analytic]
        samples = sample_snr(cell.gains(), cell.n_elements, cell.phase,
                             cell.rho(), _mc_cfg(cell, figure_id, tag, float(v)))
        mc = mc_avg_metrics(samples, cell.packet)
        return row + [metric(mc, cell) for _, metric in spec.mc]

    rows = _pmap(one, cells, workers)
    cols = {spec.axis: [float(v) for v in grid]}
    k = len(spec.cases)
    for j, (tag, _) in enumerate(spec.cases):
        for m, (name, _) in enumerate(spec.analytic + spec.mc):
            cols[name.format(tag)] = [r[m] for r in rows[j::k]]
    return cols


def _blocklength_mc(mc, s):
    return avg_blocklength(mc.avg_capacity, mc.avg_sqrt_dispersion,
                           s.packet.info_bits, s.packet.target_bler)


_FIGURES = {
    "fig2a": _Figure({"direct_link": False, "n_elements": 1024}, (
        ("perfect", {"phase": Perfect()}),
        ("3bit", {"phase": QuantizedBits(3)}),
        ("2bit", {"phase": QuantizedBits(2)}),
        ("1bit", {"phase": QuantizedBits(1)}),
        ("uniform", {"phase": UniformSpread(1.0)}))),
    "fig2b": _Figure({"n_elements": 1024}, (
        ("reflector_nodirect",
         {"phase": UniformSpread(1.0), "direct_link": False}),
        ("perfect_nodirect", {"phase": Perfect(), "direct_link": False}),
        ("perfect_direct", {"phase": Perfect(), "direct_link": True}),
        ("1bit_direct", {"phase": QuantizedBits(1), "direct_link": True}),
        ("2bit_direct", {"phase": QuantizedBits(2), "direct_link": True}))),
    "fig3": _Figure(
        {"direct_link": False}, (("", {}),), "n_elements",
        (("rate_exact", rate_exact),
         ("rate_lower_bound", rate_lower_bound),
         ("capacity_shannon", capacity_shannon)),
        (("rate_mc", lambda mc, s: mc.avg_rate),
         ("rate_mc_se", lambda mc, s: mc.avg_rate_se))),
    "fig4": _Figure(
        {"direct_link": False}, (
            ("perfect", {"phase": Perfect()}),
            ("2bit", {"phase": QuantizedBits(2)}),
            ("1bit", {"phase": QuantizedBits(1)})), "n_elements",
        (("bler_{}", bler),),
        (("bler_{}_mc", lambda mc, s: mc.avg_bler),)),
    "fig5": _Figure(
        {"direct_link": False, "n_elements": 512}, (
            ("perfect", {"phase": Perfect()}),
            ("2bit", {"phase": QuantizedBits(2)}),
            ("1bit", {"phase": QuantizedBits(1)})), "ris_distance_m",
        (("bler_{}", bler),),
        (("bler_{}_mc", lambda mc, s: mc.avg_bler),)),
    "fig6a": _Figure(
        {"direct_link": True}, (
            ("_ple3.6", {"direct_exponent": 3.6}),
            ("_ple3.8", {"direct_exponent": 3.8}),
            ("_ple4", {"direct_exponent": 4.0})), "ris_distance_m",
        (("rate{}", rate_exact),),
        (("rate{}_mc", lambda mc, s: mc.avg_rate),)),
    "fig6b": _Figure(
        {"direct_link": False}, (("", {}),), "ris_distance_m",
        (("rate{}", rate_exact),),
        (("rate{}_mc", lambda mc, s: mc.avg_rate),)),
    "fig7": _Figure(
        {"direct_link": False}, (
            ("1bit", {"phase": QuantizedBits(1)}),
            ("2bit", {"phase": QuantizedBits(2)}),
            ("3bit", {"phase": QuantizedBits(3)}),
            ("perfect", {"phase": Perfect()})), "n_elements",
        (("blocklength_{}", blocklength),),
        (("blocklength_{}_mc", _blocklength_mc),)),
    "fig8": _Figure(
        {"direct_link": False}, (("", {}),), "n_elements",
        (("sqrt_dispersion", sqrt_dispersion),),
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
    engine = _sweep if spec.axis else _cdf
    columns = engine(figure_id, spec, scenario, max(int(workers), 1))
    return ResultTable(figure_id=figure_id, columns=columns, meta=meta)


# ---------------------------------------------------------------------------
# Element-count search
# ---------------------------------------------------------------------------

N_SEARCH_CAP = 8192


def required_elements(target_bler: float,
                      scenario: ScenarioConfig = ScenarioConfig()) -> int:
    """Smallest N with avg_bler(fit(N)) <= target_bler, by integer bisection."""
    if not 0.0 < target_bler < 1.0:
        raise DomainError("target_bler must lie in (0, 1)")

    def bler_at(n):
        return bler(scenario.fit(n_elements=n), scenario)

    lo, hi = 1, N_SEARCH_CAP
    if bler_at(lo) <= target_bler:
        return lo
    hi_val = bler_at(hi)
    if hi_val > target_bler:
        raise BracketError(
            f"avg_bler at N={hi} is {hi_val:.3e} > target {target_bler:.3e}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bler_at(mid) <= target_bler:
            hi = mid
        else:
            lo = mid
    return hi
