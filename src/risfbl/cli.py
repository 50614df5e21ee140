"""
Command-line front end
======================
Thin wrapper over the library: reads the scenario in layers, each read
whole by ``experiments.scenario_from_dict`` over the last (the defaults,
a flat JSON config file, then the key=value overrides with the shorthand
flags, which win), and dispatches.  The one-row commands are a table of
record functions of the scenario, all but ``fit`` one ``cell_record`` of
``experiments``, as a figure cell is; each record is written with the
scenario's element count and seed as one CSV row or JSON object.
``figure`` writes a whole table and ``required-n`` the result of the
element search.  Every output goes through the CSV and JSON writers of
``experiments``, floats at full precision.

Exit codes: 0 success, 2 usage error, 3 config validation error
(``DomainError``, or a config file that cannot be read as JSON),
4 numerical non-convergence (``NonConvergenceError``).
"""

import argparse
import json
import math
import sys
from argparse import SUPPRESS

from .specfun import DomainError, NonConvergenceError
from .channel import gamma_fit, moments_X
from .montecarlo import empirical_stats, ks_distance
from .experiments import (
    FIGURE_IDS,
    ScenarioConfig,
    bler,
    blocklength,
    cell_record,
    csv_text,
    json_text,
    rate_exact,
    rate_lower_bound,
    required_elements,
    run_figure,
    scenario_from_dict,
    scenario_to_dict,
    sqrt_dispersion,
)

EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4


def _override(item):
    """One ``--set key=value`` as (key, JSON value, or else the text)."""
    key, eq, text = item.partition("=")
    if not eq:
        raise DomainError(f"override must be key=value, got {item!r}")
    try:
        return key.strip(), json.loads(text)
    except json.JSONDecodeError:
        return key.strip(), text


def _scenario_from_args(args) -> ScenarioConfig:
    s = ScenarioConfig()
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            s = scenario_from_dict(json.load(f), s)
    cfg = dict(map(_override, args.set or []))
    # a shorthand flag's dest is its config key, set only when it is given
    keys = scenario_to_dict(ScenarioConfig())
    cfg.update((k, v) for k, v in vars(args).items() if k in keys)
    return scenario_from_dict(cfg, s)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _fit(s):
    m = moments_X(s.gains(), s.n_elements, s.phase)
    fit = gamma_fit(m, s.rho())
    return {"m1": m.m1, "m2": m.m2, "shape": fit.shape, "rate": fit.rate,
            "snr_mean": fit.mean, "snr_mean_db": 10.0 * math.log10(fit.mean)}


def _mc(s):
    samples = s.samples()
    stats = empirical_stats(samples / s.rho())
    return {
        "n_samples": stats.n,
        "m1_mc": stats.m1, "m1_se": stats.m1_se,
        "m2_mc": stats.m2, "m2_se": stats.m2_se,
        **cell_record(
            s, [("ks_distance", lambda fit, _: ks_distance(samples, fit))],
            mc=[(f"{m}_mc", m) for m in (
                "avg_rate", "avg_bler", "avg_blocklength")], samples=samples),
    }


# one-row commands: name -> record of the scenario, written between its
# n_elements and seed
_RECORDS = {
    "fit": _fit,
    "rate": lambda s: cell_record(s, [
        ("avg_rate", rate_exact), ("avg_rate_lower_bound", rate_lower_bound),
        ("avg_sqrt_dispersion", sqrt_dispersion)]),
    "bler": lambda s: cell_record(s, [("avg_bler", bler)]),
    "blocklength": lambda s: cell_record(
        s, [("avg_blocklength", blocklength)]),
    "mc": _mc,
    # no metrics: its fit rejects a scenario without a channel
    "validate": lambda s: cell_record(s) | {"valid": True},
}


def _run(args):
    s = _scenario_from_args(args)
    as_json = args.format == "json"
    if args.command == "figure":
        table = run_figure(args.figure_id, s, workers=args.workers)
        if args.output and not as_json:
            table.write(args.output)  # with its sidecar
            return 0
        text = table.to_json() if as_json else table.to_csv()
    else:
        if args.command == "required-n":
            target = s.packet.target_bler
            record = {"target_bler": target,
                      "required_elements": required_elements(target, s)}
        else:
            record = {"n_elements": s.n_elements, **_RECORDS[args.command](s)}
        record["seed"] = s.mc.seed
        text = (json_text(record) if as_json
                else csv_text({k: [v] for k, v in record.items()}))
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
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
        sp.add_argument("--seed", type=int, default=SUPPRESS,
                        help="Monte Carlo seed")
        sp.add_argument("--output", help="write to file instead of stdout")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--N", dest="n_elements", type=int, default=SUPPRESS,
                        help="RIS element count")
        sp.add_argument("--phase", default=SUPPRESS,
                        help="phase model, as the config key phase: perfect, "
                             "<b>bit with b in 1..52 (e.g. 2bit), or "
                             "uniform:<spread> with the spread a fraction "
                             "of pi (e.g. uniform:0.25)")
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--no-direct", dest="direct_link", action="store_false",
                       default=SUPPRESS, help="disable the direct AP-AC link")
        g.add_argument("--direct", dest="direct_link", action="store_true",
                       default=SUPPRESS, help="enable the direct AP-AC link")

    for name in _RECORDS:
        common(sub.add_parser(name))

    fp = sub.add_parser("figure")
    fp.add_argument("figure_id", choices=FIGURE_IDS)
    fp.add_argument("--workers", type=int, default=1)
    common(fp)

    rp = sub.add_parser("required-n")
    rp.add_argument("--target", dest="target_bler", type=float,
                    default=SUPPRESS, help="target average BLER")
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
    except (DomainError, OSError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
