"""
Command-line front end
======================
Thin wrapper over the library: loads a flat JSON scenario config,
applies key=value overrides, dispatches to the analytics, Monte Carlo,
or figure harness, and writes CSV or JSON with full float precision.

Exit codes: 0 success, 2 usage error, 3 config validation error,
4 numerical non-convergence.
"""

import argparse
import json
import math
import sys

from .specfun import DomainError, NonConvergenceError
from .channel import DegenerateMomentsError, moments_X
from .fbl import ValidityError, avg_bler, avg_metrics
from .montecarlo import empirical_stats, ks_distance, mc_avg_metrics, sample_snr
from .experiments import (
    BracketError,
    FIGURE_IDS,
    ScenarioConfig,
    required_elements,
    run_figure,
    scenario_from_dict,
)

EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

_DB_KEYS = {
    "tx_power_db": "tx_power",
    "noise_density_db": "noise_density",
    "noise_figure_db": "noise_figure",
}


class ConfigError(ValueError):
    pass


def _parse_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _resolve_db(cfg):
    for db_key, lin_key in _DB_KEYS.items():
        if db_key in cfg:
            cfg[lin_key] = 10.0 ** (float(cfg.pop(db_key)) / 10.0)
    return cfg


def _build_scenario(cfg: dict) -> ScenarioConfig:
    try:
        return scenario_from_dict(_resolve_db(dict(cfg)))
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _phase_from_flag(text):
    if text == "perfect":
        return {"phase": "perfect"}
    if text.endswith("bit") and text[:-3].isdigit():
        return {"phase": "quantized", "phase_bits": int(text[:-3])}
    if text.startswith("uniform"):
        rest = text[len("uniform"):]
        spread = rest.lstrip(":") if rest else 0.25
        return {"phase": "uniform", "phase_spread": spread}
    raise ConfigError(
        f"phase must be perfect, <b>bit, or uniform[:spread]; got {text!r}")


def _scenario_from_args(args) -> ScenarioConfig:
    cfg = {}
    if args.config:
        with open(args.config) as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg.update(loaded)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        cfg[key.strip()] = _parse_value(value)
    if getattr(args, "n_elements", None) is not None:
        cfg["n_elements"] = args.n_elements
    if getattr(args, "no_direct", False):
        cfg["direct_link"] = False
    if getattr(args, "direct", False):
        cfg["direct_link"] = True
    if getattr(args, "phase", None) is not None:
        cfg.pop("phase_bits", None)
        cfg.pop("phase_spread", None)
        cfg.update(_phase_from_flag(args.phase))
    if args.seed is not None:
        cfg["seed"] = args.seed
    return _build_scenario(cfg)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _emit_record(record: dict, args):
    """One-row result: CSV header+row or a JSON object."""
    if args.format == "json":
        text = json.dumps(record, indent=2, sort_keys=True,
                          default=lambda o: repr(o)) + "\n"
    else:
        keys = list(record)
        text = (",".join(keys) + "\n"
                + ",".join(_fmt(record[k]) for k in keys) + "\n")
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_fit(args):
    s = _scenario_from_args(args)
    m = moments_X(s.gains(), s.n_elements, s.phase)
    fit = s.fit()
    _emit_record({
        "n_elements": s.n_elements,
        "m1": m.m1, "m2": m.m2,
        "shape": fit.shape, "rate": fit.rate,
        "snr_mean": fit.mean, "snr_mean_db": 10.0 * math.log10(fit.mean),
        "seed": s.mc.seed,
    }, args)
    return 0


def _cmd_rate(args):
    s = _scenario_from_args(args)
    fit = s.fit()
    m = avg_metrics(fit, s.packet, s.policy)
    _emit_record({
        "n_elements": s.n_elements,
        "avg_rate": m.avg_rate,
        "avg_rate_lower_bound": m.avg_rate_lb,
        "avg_sqrt_dispersion": m.avg_sqrt_dispersion,
        "seed": s.mc.seed,
    }, args)
    return 0


def _cmd_bler(args):
    s = _scenario_from_args(args)
    val = avg_bler(s.fit(), s.packet.blocklength, s.packet.info_bits)
    _emit_record({"n_elements": s.n_elements, "avg_bler": val,
                  "seed": s.mc.seed}, args)
    return 0


def _cmd_blocklength(args):
    s = _scenario_from_args(args)
    m = avg_metrics(s.fit(), s.packet, s.policy)
    _emit_record({"n_elements": s.n_elements,
                  "avg_blocklength": m.avg_blocklength,
                  "seed": s.mc.seed}, args)
    return 0


def _cmd_mc(args):
    s = _scenario_from_args(args)
    samples = sample_snr(s.gains(), s.n_elements, s.phase, s.rho(), s.mc)
    stats = empirical_stats(samples / s.rho())
    fit = s.fit()
    avgs = mc_avg_metrics(samples, s.packet)
    _emit_record({
        "n_elements": s.n_elements, "n_samples": stats.n,
        "m1_mc": stats.m1, "m1_se": stats.m1_se,
        "m2_mc": stats.m2, "m2_se": stats.m2_se,
        "ks_distance": ks_distance(samples, fit),
        "avg_rate_mc": avgs.avg_rate, "avg_bler_mc": avgs.avg_bler,
        "avg_blocklength_mc": avgs.avg_blocklength,
        "seed": s.mc.seed,
    }, args)
    return 0


def _cmd_figure(args):
    s = _scenario_from_args(args)
    table = run_figure(args.figure_id, s, workers=args.workers)
    if args.format == "json":
        payload = dict(table.meta)
        payload["figure_id"] = table.figure_id
        payload["columns"] = {k: list(v) for k, v in table.columns.items()}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if args.output:
            with open(args.output, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
    elif args.output:
        table.write(args.output)
    else:
        sys.stdout.write(table.to_csv())
    return 0


def _cmd_required_n(args):
    s = _scenario_from_args(args)
    target = args.target if args.target is not None else s.packet.target_bler
    n_star = required_elements(target, s)
    _emit_record({"target_bler": target, "required_elements": n_star,
                  "seed": s.mc.seed}, args)
    return 0


def _cmd_validate(args):
    s = _scenario_from_args(args)
    _emit_record({"valid": True, "n_elements": s.n_elements,
                  "seed": s.mc.seed}, args)
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "rate": _cmd_rate,
    "bler": _cmd_bler,
    "blocklength": _cmd_blocklength,
    "mc": _cmd_mc,
    "figure": _cmd_figure,
    "required-n": _cmd_required_n,
    "validate": _cmd_validate,
}


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
                        help="perfect, <b>bit (e.g. 2bit), or uniform[:spread]")
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--no-direct", action="store_true",
                       help="disable the direct AP-AC link")
        g.add_argument("--direct", action="store_true",
                       help="enable the direct AP-AC link")

    for name in ("fit", "rate", "bler", "blocklength", "mc", "validate"):
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
        return _COMMANDS[args.command](args)
    except (ConfigError, DomainError, DegenerateMomentsError,
            ValidityError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergenceError, BracketError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
