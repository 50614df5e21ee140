"""
Same-numbers report
===================
    python tools/same_numbers.py --against REF [--figures ID ...] [--n-samples N]

Computes one fixed set of library outputs in this checkout and in REF,
and reports, per column or field, whether the two trees give the same
bytes, how many cells changed and the largest relative drift; a field
of one tree only is reported as ``added`` (this checkout) or
``removed`` (REF).  The summary's drift is the largest over numeric
cells; fields with a changed cell that is not a number on both sides (a
hash, an error text, a list of another length) are listed on their own,
as ``non_numeric_fields``.  REF is
a directory holding a checkout, or a git ref of this repository (such
as ``HEAD^``), whose ``src/`` is exported with ``git archive`` into a
temporary directory.

The set:

  * each figure of ``run_figure`` (all nine by default) at ``--n-samples``
    (default 500), under the default scenario, ``--phase 2bit`` and
    ``--phase uniform:0.5 --direct``;
  * the closed-form values of the benchmark's ``analytic_points``;
  * the ``avg_bler_detail`` reference and guard flag at those points;
  * ``required_elements`` at the three anchors of the benchmark;
  * SHA-256 hashes of ``sample_snr`` over a few (N, phase, direct) cases;
  * the one-row records of ``risfbl fit|rate|bler|blocklength|mc`` (the
    last at ``n_samples`` = RECORD_N) over a few (N, phase, direct) cases,
    each key of a record its own field, so a renamed key reads as one
    field ``added`` and one ``removed``;
  * the exact text ``risfbl`` prints for each of those records, in CSV and
    in JSON, and for ``risfbl figure fig8 --format json``, so that a change
    of format reads as changed where the record values do not.

The point list and anchors are read from ``bench/workloads.py`` of this
checkout, for both trees.  Each tree is computed in its own subprocess,
with its own ``src/`` first on the path.  A part that raises records the
error, which is compared like a value.  The last line of stdout is one
JSON object.  This is a report, not a gate: the exit code is 0 whatever
the comparison shows, and non-zero only when the tool itself fails.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FIGURE_SCENARIOS = (
    ("default", {}),
    ("2bit", {"phase": "2bit"}),
    ("uniform:0.5-direct", {"phase": "uniform:0.5", "direct_link": True}),
)
# (N, phase, direct link) of the hashed sampler runs, at SAMPLE_N samples
SAMPLE_CASES = ((0, "perfect", True), (1, "1bit", True), (16, "perfect", False),
                (256, "2bit", False), (1024, "uniform:0.5", True))
SAMPLE_N = 2000
# (N, phase, direct link) of the CLI records; Gamma(301.5, 12.9) at N=768
# 2bit has a subnormal average BLER
RECORD_CASES = ((16, "perfect", False), (256, "1bit", True),
                (768, "2bit", False), (1024, "uniform:0.5", True))
RECORD_COMMANDS = ("fit", "rate", "bler", "blocklength", "mc")
RECORD_N = 500


# ---------------------------------------------------------------------------
# Child: compute the set in one tree
# ---------------------------------------------------------------------------

def _guarded(fn):
    try:
        return fn()
    except Exception:  # a part that raises is reported, not fatal
        return {"error": traceback.format_exc(limit=0).strip()}


def collect(src, figures, n_samples):
    """The set, as {group: {field: value or list of values}}."""
    import risfbl
    if Path(risfbl.__file__).resolve().parent.parent != Path(src).resolve():
        raise RuntimeError(f"imported {risfbl.__file__}, not the tree at {src}")
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from risfbl import channel, cli, experiments, fbl, montecarlo

    out = {}
    for fig in figures or experiments.FIGURE_IDS:
        for label, cfg in FIGURE_SCENARIOS:
            scenario = experiments.scenario_from_dict(
                dict(cfg, n_samples=n_samples))
            out[f"{fig} {label}"] = _guarded(lambda: {
                name: [float(v) for v in col] for name, col in
                experiments.run_figure(fig, scenario).columns.items()})

    def points():
        base = experiments.ScenarioConfig()
        rows = [workloads.eval_point(p, base)
                for p in workloads.analytic_point_list()]
        return {name: [float(r[j]) for r in rows]
                for j, name in enumerate(workloads.POINT_COLUMNS)}

    def details():
        base = experiments.ScenarioConfig()
        pkt = base.packet
        rows = [fbl.avg_bler_detail(
                    channel.fit_snr(p.gains, p.n, p.phase, base.rho()),
                    pkt.blocklength, pkt.info_bits)
                for p in workloads.analytic_point_list()]
        return {"reference": [r.reference for r in rows],
                "flagged": [r.flagged for r in rows]}

    def anchors():
        base = experiments.ScenarioConfig()
        return {label: experiments.required_elements(
                    workloads.TARGET_BLER, dataclasses.replace(base, phase=phase))
                for label, phase, _ in workloads.ANCHORS}

    def hashes():
        out = {}
        for n, phase, direct in SAMPLE_CASES:
            s = experiments.scenario_from_dict(
                {"n_elements": n, "phase": phase, "direct_link": direct,
                 "n_samples": SAMPLE_N})
            x = montecarlo.sample_snr(s.gains(), n, s.phase, s.rho(), s.mc)
            out[f"N{n} {phase} {'direct' if direct else 'nodirect'}"] = (
                hashlib.sha256(x.tobytes()).hexdigest())
        return out

    def record(command, n, phase, direct):
        s = experiments.scenario_from_dict(
            {"n_elements": n, "phase": phase, "direct_link": direct,
             "n_samples": RECORD_N})
        return cli._RECORDS[command](s)

    def record_text(command, n, phase, direct, fmt):
        return cli_text(cli.main, [
            command, "--N", str(n), "--phase", phase,
            "--direct" if direct else "--no-direct",
            "--set", f"n_samples={RECORD_N}", "--format", fmt])

    out["analytic_points"] = _guarded(points)
    out["avg_bler_detail"] = _guarded(details)
    out["required_elements"] = _guarded(anchors)
    out["sample_snr"] = _guarded(hashes)
    out["cli_records"] = record_fields({
        f"{command} N{n} {phase} {'direct' if direct else 'nodirect'}":
            _guarded(lambda: record(command, n, phase, direct))
        for command in RECORD_COMMANDS for n, phase, direct in RECORD_CASES})
    out["cli_text"] = {
        f"{command} N{n} {phase} {'direct' if direct else 'nodirect'} {fmt}":
            _guarded(lambda: record_text(command, n, phase, direct, fmt))
        for command in RECORD_COMMANDS for n, phase, direct in RECORD_CASES
        for fmt in ("csv", "json")}
    out["cli_text"]["figure fig8 json"] = _guarded(lambda: cli_text(
        cli.main, ["figure", "fig8", "--set", f"n_samples={n_samples}",
                   "--format", "json"]))
    return out


def cli_text(main, argv):
    """What ``main(argv)`` writes to stdout, or, when it fails, its exit
    code and what it writes to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue() if code == 0 else f"exit {code}\n{err.getvalue()}"


def record_fields(records):
    """{record name: record}, each record a dict, as one field per key."""
    return {f"{name} {key}": value
            for name, rec in records.items() for key, value in rec.items()}


# ---------------------------------------------------------------------------
# Parent: run both trees, compare
# ---------------------------------------------------------------------------

def run_tree(src, args):
    """The set computed in a subprocess that imports ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, __file__, "--collect", str(src),
           "--n-samples", str(args.n_samples)]
    if args.figures:
        cmd += ["--figures", *args.figures]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout)


def export_ref(ref, dest):
    """``src/`` of git ref ``ref`` of this repository, unpacked in ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          ref, "src"], stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar.stdout, check=True)
    return Path(dest) / "src"


def _same(a, b):
    """Byte-equal: equal and of one type, with NaN equal to NaN and 0.0
    unequal to -0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    return a == b


def _drift(a, b):
    """Relative drift of two cells that are not byte-equal; None where it
    has no meaning."""
    if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
        return None
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _fields(tree):
    return {(group, field) for group, fields in tree.items() for field in fields}


def compare(mine, theirs):
    """One row per field of both trees: (group, field, cells, changed, max
    drift), the drift None where a changed cell is not a number on both
    sides."""
    rows = []
    for group, field in sorted(_fields(mine) & _fields(theirs)):
        x, y = mine[group][field], theirs[group][field]
        if not (isinstance(x, list) and isinstance(y, list)
                and len(x) == len(y)):
            x, y = [x], [y]
        drifts = [_drift(u, v) for u, v in zip(x, y) if not _same(u, v)]
        worst = 0.0 if not drifts else None if None in drifts else max(drifts)
        rows.append((group, field, len(x), len(drifts), worst))
    return rows


def unpaired(mine, theirs):
    """(group, field, "added" or "removed") for each field of one tree only."""
    a, b = _fields(mine), _fields(theirs)
    return sorted([(g, f, "added") for g, f in a - b]
                  + [(g, f, "removed") for g, f in b - a])


def report(rows, one_sided, against):
    lines = list(one_sided)
    for group, field, cells, changed, worst in rows:
        if not changed:
            status = "byte-equal"
        else:
            drift = "n/a" if worst is None else f"{worst:.3g}"
            status = f"{changed} of {cells} changed, max rel drift {drift}"
        lines.append((group, field, status))
    for group, field, status in sorted(lines):
        print(f"{group:32s} {field:28s} {status}")
    summary = {
        "against": against,
        "fields": len(rows),
        "byte_equal_fields": sum(1 for r in rows if not r[3]),
        "cells": sum(r[2] for r in rows),
        "changed_cells": sum(r[3] for r in rows),
        "changed_fields": [f"{g}: {f}" for g, f, _, c, _ in rows if c],
        "non_numeric_fields": [f"{g}: {f}" for g, f, _, c, w in rows
                               if c and w is None],
        "added_fields": [f"{g}: {f}" for g, f, s in one_sided if s == "added"],
        "removed_fields": [f"{g}: {f}" for g, f, s in one_sided
                           if s == "removed"],
        "max_rel_drift": max((w for *_, w in rows if w is not None),
                             default=0.0),
    }
    print(json.dumps(summary))


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Compare library outputs of this checkout and REF, byte for byte.")
    ap.add_argument("--against", help="git ref or checkout directory")
    ap.add_argument("--figures", nargs="+",
                    help="figure ids (default: every figure of the tree)")
    ap.add_argument("--n-samples", type=int, default=500)
    ap.add_argument("--collect", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.collect:
        json.dump(collect(args.collect, args.figures, args.n_samples), sys.stdout)
        return 0
    if not args.against:
        ap.error("--against is required")
    mine = run_tree(ROOT / "src", args)
    with tempfile.TemporaryDirectory() as tmp:
        other = Path(args.against)
        src = (other / "src" if other.is_dir()
               else export_ref(args.against, tmp))
        theirs = run_tree(src, args)
    report(compare(mine, theirs), unpaired(mine, theirs), args.against)
    return 0


if __name__ == "__main__":
    sys.exit(main())
