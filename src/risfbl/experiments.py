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
cell draws its own scenario's samples, so the cases at one N are paired
draws that differ only in the phase rotation, and a sweep cell is one
``cell_record`` of its scenario, as a ``risfbl`` record is.
The specs name Monte Carlo means only; ``montecarlo`` adds the standard
error of each that has one, ECDF points included, as the ``_se`` column.
"""

import bisect
import csv
import dataclasses
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .specfun import DEFAULT_POLICY, DomainError, NonConvergenceError, gamma_cdf
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
    _check_target_bler,
    avg_bler,
    avg_blocklength,
    avg_rate_exact,
    avg_rate_lower_bound,
    c1_avg_capacity,
    c2_avg_sqrt_dispersion,
)
from .montecarlo import McConfig, ecdf, mc_avg_metrics, sample_snr, with_se


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
    policy = DEFAULT_POLICY  # not a field: bench/workloads.py, worker.py read it

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

    def fit(self):
        return fit_snr(self.gains(), self.n_elements, self.phase, self.rho())

    def samples(self):
        """The scenario's Monte Carlo SNR draw."""
        return sample_snr(self.gains(), self.n_elements, self.phase,
                          self.rho(), self.mc)


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
    """Inverse of ``phase_label``; its digits are ASCII ones only."""
    if text == "perfect":
        return Perfect()
    if text.isascii() and text.endswith("bit") and text[:-3].isdecimal():
        return QuantizedBits(int(text[:-3]))
    if text.isascii() and text.startswith("uniform:"):
        try:
            spread = float(text[len("uniform:"):])
        except ValueError:
            raise DomainError(
                f"uniform spread must be a number; got {text!r}") from None
        return UniformSpread(spread)
    raise DomainError(
        f"phase must be perfect, <b>bit, or uniform:<spread>; got {text!r}")


# A flat key is the name of a field of ScenarioConfig or of one of its
# sections, and the type of the field's default is the only JSON type the
# key takes: bool a flag, int a count, float a finite int or float (stored
# as float), a tuple a position of exactly two finite ints or floats
# (kept as given), and the phase model its ``phase_label`` string.
_SECTIONS = ("geometry", "radio", "packet", "mc")


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


# a "_db" key gives its power-like field in dB relative to 1 W (or 1 W/Hz)
_DB_KEYS = {"tx_power_db": "tx_power", "noise_density_db": "noise_density",
            "noise_figure_db": "noise_figure"}


def scenario_from_dict(d: dict,
                       base: ScenarioConfig = ScenarioConfig()) -> ScenarioConfig:
    """Inverse of ``scenario_to_dict``; keys left out keep ``base``'s values.

    A key takes only the JSON type of its field's default (see
    ``_SECTIONS``); a ``_db`` key of ``_DB_KEYS`` sets its linear key to
    10^(value/10).  Raises DomainError for a ``d`` that is not a dict, an
    unknown key, a key given with its ``_db`` key, an unknown phase
    model, or a value of the wrong type or one that does not validate.
    """
    if not isinstance(d, dict):
        raise DomainError(f"a scenario is a JSON object, not {type(d).__name__}")
    d = dict(d)
    for db_key, key in _DB_KEYS.items():
        if db_key in d:
            if key in d:
                raise DomainError(f"{key} and {db_key} are both given")
            try:
                d[key] = 10.0 ** (_typed(db_key, d.pop(db_key), 0.0) / 10.0)
            except OverflowError as exc:
                raise DomainError(f"{db_key}: {exc}") from None
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
        sections = {name: dataclasses.replace(getattr(base, name),
                                              **changes[name])
                    for name in _SECTIONS}
        return dataclasses.replace(base, **changes[None], **sections)
    except (ValueError, TypeError, OverflowError) as exc:
        raise DomainError(str(exc)) from exc


def _cell(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else str(x)


def csv_text(columns: dict) -> str:
    """Equal-length columns as CSV: a header row, then one row per index,
    each float with 17 significant digits and any other cell as ``str``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    w.writerows(map(_cell, row) for row in zip(*columns.values(), strict=True))
    return buf.getvalue()


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@dataclass
class ResultTable:
    """Columnar figure data plus the configuration that produced it."""

    figure_id: str
    columns: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        return csv_text(self.columns)

    def _json(self, **fields) -> str:
        """The meta, the figure id, the SHA-256 of the CSV text and the
        versions, plus ``fields``, as JSON text."""
        import platform

        import scipy  # the version only; scipy loads its submodules lazily

        # versions sit outside the hashed table, as MC bytes move with the
        # host's CPU: numpy's AVX-512 log (in E = -ln(1 - U)) differs from
        # glibc's by an ulp, and glibc's FMA-variant sin moves the cis table
        umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
        versions = {"python": platform.python_version(),
                    "numpy": np.__version__,
                    "scipy": scipy.__version__,
                    "libc": platform.libc_ver(),
                    "numpy_simd": [t for t in umath.__cpu_dispatch__
                                   if umath.__cpu_features__[t]]}
        return json_text({
            **self.meta, "figure_id": self.figure_id,
            "sha256": hashlib.sha256(self.to_csv().encode()).hexdigest(),
            "versions": versions, **fields})

    def to_json(self) -> str:
        return self._json(
            columns={k: list(v) for k, v in self.columns.items()})

    def write(self, csv_path) -> None:
        with open(csv_path, "w") as f:
            f.write(self.to_csv())
        with open(str(csv_path) + ".json", "w") as f:
            f.write(self._json())


def _pmap(fn, items, workers):
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


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


def cell_record(s, analytic=(), mc=(), samples=None) -> dict:
    """Each (key, cell metric) of ``analytic`` at the scenario's fit, then
    each (key, ``McAverages`` mean) of ``mc`` over ``samples`` (default:
    the scenario's draw, taken after the fit) with its ``_se``."""
    fit = s.fit()
    record = {key: metric(fit, s) for key, metric in analytic}
    if mc:
        samples = s.samples() if samples is None else samples
        record |= with_se(mc_avg_metrics(samples, s.packet), mc)
    return record


# ---------------------------------------------------------------------------
# Figure specs and engines
# ---------------------------------------------------------------------------

class _Figure(NamedTuple):
    """One figure as data.

    ``pins`` are the scenario fields the figure fixes.  A case is a column
    tag plus the scenario fields it sets (phase, direct link, direct
    exponent); the rest are the scenario's.  A figure with an ``axis``
    sweeps it, one without is an SNR CDF.  ``analytic`` holds (column
    template, cell metric above); ``mc`` holds (column template, name of
    an ``McAverages`` mean), and the mean's SE, where it has one, follows
    as the column ``_se``.
    """

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
    snr = np.geomspace(min(f.mean for f in fits) * 1e-2,
                       max(f.mean for f in fits) * 3.0, 200)

    def one(idx):
        (tag, _), cell, fit = spec.cases[idx], cells[idx], fits[idx]
        mc, mc_se = ecdf(cell.samples(), snr)
        return {f"cdf_{tag}": list(gamma_cdf(fit.shape, fit.rate, snr)),
                f"cdf_{tag}_mc": list(mc), f"cdf_{tag}_mc_se": list(mc_se)}

    cols = {"snr_db": list(10.0 * np.log10(snr))}
    for row in _pmap(one, range(len(cells)), workers):
        cols |= row
    return cols


def _at_distance(s, d):
    return dataclasses.replace(
        s, geometry=dataclasses.replace(s.geometry, ris=(float(d), 10.0)))


_AXES = {
    "n_elements": (N_GRID, lambda s, n: dataclasses.replace(s, n_elements=n)),
    "ris_distance_m": (D_GRID, _at_distance),
}


def _sweep(spec, scenario, workers):
    """Analytic and MC metrics per (axis value, case) cell, axis-major."""
    grid, place = _AXES[spec.axis]
    cells = [(place(dataclasses.replace(scenario, **fields), v), tag)
             for v in grid for tag, fields in spec.cases]

    def one(item):
        cell, tag = item
        return cell_record(
            cell, [(name.format(tag), metric) for name, metric in spec.analytic],
            [(name.format(tag), mean) for name, mean in spec.mc])

    cols = {spec.axis: [float(v) for v in grid]}
    for row in _pmap(one, cells, workers):  # axis-major: case order kept
        for name, value in row.items():
            cols.setdefault(name, []).append(value)
    return cols


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
        (("rate_mc", "avg_rate"),)),
    "fig4": _Figure(
        {"direct_link": False}, (
            ("perfect", {"phase": Perfect()}),
            ("2bit", {"phase": QuantizedBits(2)}),
            ("1bit", {"phase": QuantizedBits(1)})), "n_elements",
        (("bler_{}", bler),),
        (("bler_{}_mc", "avg_bler"),)),
    "fig5": _Figure(
        {"direct_link": False, "n_elements": 512}, (
            ("perfect", {"phase": Perfect()}),
            ("2bit", {"phase": QuantizedBits(2)}),
            ("1bit", {"phase": QuantizedBits(1)})), "ris_distance_m",
        (("bler_{}", bler),),
        (("bler_{}_mc", "avg_bler"),)),
    "fig6a": _Figure(
        {"direct_link": True}, (
            ("_ple3.6", {"direct_exponent": 3.6}),
            ("_ple3.8", {"direct_exponent": 3.8}),
            ("_ple4", {"direct_exponent": 4.0})), "ris_distance_m",
        (("rate{}", rate_exact),),
        (("rate{}_mc", "avg_rate"),)),
    "fig6b": _Figure(
        {"direct_link": False}, (("", {}),), "ris_distance_m",
        (("rate{}", rate_exact),),
        (("rate{}_mc", "avg_rate"),)),
    "fig7": _Figure(
        {"direct_link": False}, (
            ("1bit", {"phase": QuantizedBits(1)}),
            ("2bit", {"phase": QuantizedBits(2)}),
            ("3bit", {"phase": QuantizedBits(3)}),
            ("perfect", {"phase": Perfect()})), "n_elements",
        (("blocklength_{}", blocklength),),
        (("blocklength_{}_mc", "avg_blocklength"),)),
    "fig8": _Figure(
        {"direct_link": False}, (("", {}),), "n_elements",
        (("sqrt_dispersion", sqrt_dispersion),),
        (("sqrt_dispersion_mc", "avg_sqrt_dispersion"),)),
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
    engine = _sweep if spec.axis else _cdf
    columns = engine(spec, scenario, max(int(workers), 1))
    return ResultTable(figure_id=figure_id, columns=columns,
                       meta={"scenario": scenario_to_dict(scenario)})


# ---------------------------------------------------------------------------
# Element-count search
# ---------------------------------------------------------------------------

N_SEARCH_CAP = 8192


def required_elements(target_bler: float,
                      scenario: ScenarioConfig = ScenarioConfig()) -> int:
    """Smallest N in [1, N_SEARCH_CAP] with avg_bler(fit(N)) <= target_bler.

    The average BLER falls as N grows.  Once the cap is known to reach the
    target, ``bisect`` finds the first N that does, in log2(N_SEARCH_CAP) = 13
    more BLER evaluations.  Raises NonConvergenceError if the cap does not
    reach it.
    """
    _check_target_bler(target_bler)
    gains, rho = scenario.gains(), scenario.rho()

    def bler_at(n):
        return bler(fit_snr(gains, n, scenario.phase, rho), scenario)

    cap_val = bler_at(N_SEARCH_CAP)
    if cap_val > target_bler:
        raise NonConvergenceError(
            f"avg_bler at N={N_SEARCH_CAP} is {cap_val:.3e} > target {target_bler:.3e}")
    return bisect.bisect_left(range(N_SEARCH_CAP), True, lo=1,
                              key=lambda n: bler_at(n) <= target_bler)
