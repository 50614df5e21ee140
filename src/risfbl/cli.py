"""
Command-line front end
======================
Thin wrapper over the library: loads a flat JSON scenario config (the
keys of ``experiments.scenario_to_dict``), applies key=value overrides
and the shorthand flags, and dispatches.  The one-row commands are a
table of record functions of the scenario, the closed-form ones picks of
the cell metrics of ``experiments``; each record is written with
the scenario's element count and seed as one CSV row or JSON object.
``figure`` writes a whole table and ``required-n`` the result of the
element search.  Floats keep full precision.

Exit codes: 0 success, 2 usage error, 3 config validation error,
4 numerical non-convergence.
"""

import argparse
import json
import math
import sys

from .specfun import DomainError, NonConvergenceError
from .channel import DegenerateMomentsError, gamma_fit, moments_X
from .fbl import ValidityError
from .montecarlo import empirical_stats, ks_distance, mc_avg_metrics, sample_snr
from .experiments import (
    BracketError,
    FIGURE_IDS,
    ScenarioConfig,
    bler,
    blocklength,
    rate_exact,
    rate_lower_bound,
    required_elements,
    run_figure,
    scenario_from_dict,
    sqrt_dispersion,
)

EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

_DB_KEYS = {
    "tx_power_db": "tx_power",
    "noise_density_db": "noise_density",
    "noise_figure_db": "noise_figure",
}


def _parse_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _resolve_db(cfg):
    for db_key, lin_key in _DB_KEYS.items():
        if db_key in cfg:
            value = cfg.pop(db_key)
            if type(value) not in (int, float):
                raise DomainError(f"{db_key} must be int or float, got {value!r}")
            try:
                cfg[lin_key] = 10.0 ** (value / 10.0)
            except OverflowError as exc:
                raise DomainError(f"{db_key}: {exc}") from None
    return cfg


def _scenario_from_args(args) -> ScenarioConfig:
    cfg = {}
    if args.config:
        with open(args.config) as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise DomainError("config file must hold a JSON object")
        cfg.update(loaded)
    for item in args.set or []:
        if "=" not in item:
            raise DomainError(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        cfg[key.strip()] = _parse_value(value)
    if args.n_elements is not None:
        cfg["n_elements"] = args.n_elements
    if args.no_direct or args.direct:
        cfg["direct_link"] = args.direct
    if args.phase is not None:
        cfg["phase"] = args.phase
    if args.seed is not None:
        cfg["seed"] = args.seed
    return scenario_from_dict(_resolve_db(cfg))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write(text, args):
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit_record(record: dict, args):
    """One-row result: CSV header+row or a JSON object."""
    if args.format == "json":
        text = json.dumps(record, indent=2, sort_keys=True,
                          default=lambda o: repr(o)) + "\n"
    else:
        keys = list(record)
        text = (",".join(keys) + "\n"
                + ",".join(_fmt(record[k]) for k in keys) + "\n")
    _write(text, args)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _fit(s):
    m = moments_X(s.gains(), s.n_elements, s.phase)
    fit = gamma_fit(m, s.rho())
    return {"m1": m.m1, "m2": m.m2, "shape": fit.shape, "rate": fit.rate,
            "snr_mean": fit.mean, "snr_mean_db": 10.0 * math.log10(fit.mean)}


def _metrics(**named):
    """Record of the named cell metrics at the scenario's Gamma fit."""
    def record(s):
        fit = s.fit()
        return {key: metric(fit, s) for key, metric in named.items()}
    return record


def _mc(s):
    samples = sample_snr(s.gains(), s.n_elements, s.phase, s.rho(), s.mc)
    stats = empirical_stats(samples / s.rho())
    avgs = mc_avg_metrics(samples, s.packet)
    return {
        "n_samples": stats.n,
        "m1_mc": stats.m1, "m1_se": stats.m1_se,
        "m2_mc": stats.m2, "m2_se": stats.m2_se,
        "ks_distance": ks_distance(samples, s.fit()),
        "avg_rate_mc": avgs.avg_rate, "avg_bler_mc": avgs.avg_bler,
        "avg_blocklength_mc": avgs.avg_blocklength,
    }


# one-row commands: name -> record of the scenario, written between its
# n_elements and seed
_RECORDS = {
    "fit": _fit,
    "rate": _metrics(avg_rate=rate_exact,
                     avg_rate_lower_bound=rate_lower_bound,
                     avg_sqrt_dispersion=sqrt_dispersion),
    "bler": _metrics(avg_bler=bler),
    "blocklength": _metrics(avg_blocklength=blocklength),
    "mc": _mc,
    "validate": lambda s: {"valid": True},
}


def _run(args):
    s = _scenario_from_args(args)
    if args.command == "figure":
        table = run_figure(args.figure_id, s, workers=args.workers)
        if args.format == "json":
            payload = dict(table.meta)
            payload["figure_id"] = table.figure_id
            payload["columns"] = {k: list(v) for k, v in table.columns.items()}
            _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args)
        elif args.output:
            table.write(args.output)
        else:
            _write(table.to_csv(), args)
    elif args.command == "required-n":
        target = args.target if args.target is not None else s.packet.target_bler
        _emit_record({"target_bler": target,
                      "required_elements": required_elements(target, s),
                      "seed": s.mc.seed}, args)
    else:
        _emit_record({"n_elements": s.n_elements, **_RECORDS[args.command](s),
                      "seed": s.mc.seed}, args)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="risfbl",
        description="Short-packet rate, reliability and blocklength analysis "
                    "for RIS-aided links.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="flat JSON scenario config")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
        sp.add_argument("--seed", type=int, help="Monte Carlo seed")
        sp.add_argument("--output", help="write to file instead of stdout")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--N", dest="n_elements", type=int,
                        help="RIS element count")
        sp.add_argument("--phase",
                        help="phase model, as the config key phase: perfect, "
                             "<b>bit with b in 1..52 (e.g. 2bit), or "
                             "uniform[:spread] with the spread a fraction "
                             "of pi (default 0.25)")
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--no-direct", action="store_true",
                       help="disable the direct AP-AC link")
        g.add_argument("--direct", action="store_true",
                       help="enable the direct AP-AC link")

    for name in _RECORDS:
        common(sub.add_parser(name))

    fp = sub.add_parser("figure")
    fp.add_argument("figure_id", choices=FIGURE_IDS)
    fp.add_argument("--workers", type=int, default=1)
    common(fp)

    rp = sub.add_parser("required-n")
    rp.add_argument("--target", type=float,
                    help="target average BLER (default: packet target)")
    common(rp)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return _run(args)
    except (DomainError, DegenerateMomentsError, ValidityError,
            FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergenceError, BracketError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
