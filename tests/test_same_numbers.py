"""The same-numbers report of tools/same_numbers.py."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_numbers.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_numbers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checkout_against_itself_is_byte_equal():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--against", str(ROOT), "--figures", "fig8",
         "--n-samples", "50"],
        capture_output=True, text=True, check=True, timeout=300)
    *lines, last = proc.stdout.strip().splitlines()
    summary = json.loads(last)
    assert summary["fields"] == summary["byte_equal_fields"] == len(lines)
    assert summary["changed_cells"] == 0 and summary["changed_fields"] == []
    assert summary["max_rel_drift"] == 0.0
    fig8 = [line for line in lines if line.startswith("fig8 ")]
    assert len(fig8) == 12  # four columns under each of three scenarios
    groups = [line.split()[0] for line in lines]
    assert groups.count("avg_bler_detail") == 2  # reference, flagged
    tool = load_tool()
    # one field per record key: fit 6, rate 3, bler 1, blocklength 1, mc 12
    assert groups.count("cli_records") == 23 * len(tool.RECORD_CASES)
    # each record's text in CSV and JSON, and one figure's JSON
    assert groups.count("cli_text") == (
        2 * len(tool.RECORD_COMMANDS) * len(tool.RECORD_CASES) + 1)
    assert all(line.endswith("byte-equal") for line in lines)


def test_compare_counts_changed_cells():
    tool = load_tool()
    mine = {"fig": {"a": [1.0, math.nan, 0.0, 2.0], "b": [1.0]},
            "hashes": {"h": "00"}, "errors": {"error": "ValueError: x"}}
    theirs = {"fig": {"a": [1.0, math.nan, -0.0, 2.0 + 2.0 ** -51], "b": [1.0]},
              "hashes": {"h": "01"}, "errors": {"error": "ValueError: x"}}
    rows = {(g, f): (cells, changed, worst)
            for g, f, cells, changed, worst in tool.compare(mine, theirs)}
    assert rows[("fig", "a")] == (4, 2, 2.0 ** -51 / (2.0 + 2.0 ** -51))
    assert rows[("fig", "b")] == (1, 0, 0.0)
    assert rows[("hashes", "h")] == (1, 1, None)
    assert rows[("errors", "error")] == (1, 0, 0.0)


def test_renamed_record_key_reads_added_and_removed():
    # the same value under a new key name is not byte-equal to the old one
    tool = load_tool()
    mine = {"cli_records": tool.record_fields(
        {"rate N16": {"avg_rate": 1.5, "avg_rate_new": 0.5}})}
    theirs = {"cli_records": tool.record_fields(
        {"rate N16": {"avg_rate": 1.5, "avg_rate_old": 0.5}})}
    rows = tool.compare(mine, theirs)
    assert rows == [("cli_records", "rate N16 avg_rate", 1, 0, 0.0)]
    assert tool.unpaired(mine, theirs) == [
        ("cli_records", "rate N16 avg_rate_new", "added"),
        ("cli_records", "rate N16 avg_rate_old", "removed")]


def test_changed_float_format_reads_as_changed_text(monkeypatch):
    # the record values stay byte-equal: only the text shows the format
    from risfbl import cli, experiments
    tool = load_tool()
    argv = ["bler", "--N", "16"]

    def collect():
        return {"cli_records": tool.record_fields(
                    {"bler": cli._RECORDS["bler"](experiments.ScenarioConfig(
                        n_elements=16))}),
                "cli_text": {"bler": tool.cli_text(cli.main, argv)}}

    theirs = collect()
    monkeypatch.setattr(experiments, "_cell", lambda x: (
        format(x, ".16g") if isinstance(x, float) else str(x)))
    rows = tool.compare(collect(), theirs)
    assert rows == [("cli_records", "bler avg_bler", 1, 0, 0.0),
                    ("cli_text", "bler", 1, 1, None)]
    assert tool.cli_text(cli.main, ["bler", "--N", "-1"]).startswith(
        "exit 3\nerror: config:")


def test_report_separates_added_removed_and_non_numeric(capsys):
    tool = load_tool()
    mine = {"fig": {"a": [1.0, 2.0], "a_se": [0.1, 0.2]},
            "hashes": {"h": "00"}}
    theirs = {"fig": {"a": [1.0, 2.5], "old": [3.0]},
              "hashes": {"h": "01"}, "gone": {"x": 1.0}}
    rows = tool.compare(mine, theirs)
    assert [(g, f) for g, f, *_ in rows] == [("fig", "a"), ("hashes", "h")]
    one_sided = tool.unpaired(mine, theirs)
    assert one_sided == [("fig", "a_se", "added"), ("fig", "old", "removed"),
                         ("gone", "x", "removed")]
    tool.report(rows, one_sided, "ref")
    *lines, last = capsys.readouterr().out.strip().splitlines()
    status = {tuple(line.split()[:2]): line.split(None, 2)[2] for line in lines}
    assert status[("fig", "a_se")] == "added"
    assert status[("fig", "old")] == "removed"
    assert status[("hashes", "h")].endswith("max rel drift n/a")
    summary = json.loads(last)
    assert summary["fields"] == 2 and summary["changed_cells"] == 2
    assert summary["changed_fields"] == ["fig: a", "hashes: h"]
    assert summary["non_numeric_fields"] == ["hashes: h"]
    assert summary["added_fields"] == ["fig: a_se"]
    assert summary["removed_fields"] == ["fig: old", "gone: x"]
    assert summary["max_rel_drift"] == 0.5 / 2.5
