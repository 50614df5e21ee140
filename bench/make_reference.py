"""Record the analytic reference values the benchmark checks against.

    PYTHONPATH=src python3 bench/make_reference.py

Writes bench/reference.json: the analytic columns of fig8 and fig2a at
the default scenario, as run_figure returns them, (rate_exact,
rate_lower_bound, avg_bler) for every analytic point, and the
required_elements(1e-9) result for each criterion 01 anchor.  Monte Carlo columns are not recorded; they are
held to statistical bounds instead.  Re-record only when a change is
meant to alter the analytic numbers, and say so in CHANGES.md.
"""

import dataclasses
import json
import sys

from risfbl.experiments import ScenarioConfig, required_elements, run_figure

import workloads as wl


def main():
    ref = {}
    for figure_id in ("fig8", "fig2a"):
        table = run_figure(figure_id, ScenarioConfig())
        ref[figure_id] = {k: v for k, v in table.columns.items()
                          if not k.endswith("_mc")}
    scenario = ScenarioConfig()
    ref["analytic_points"] = {p.key: wl.eval_point(p, scenario)
                              for p in wl.analytic_point_list()}
    ref["required_elements"] = {
        label: required_elements(wl.TARGET_BLER,
                                 dataclasses.replace(scenario, phase=phase))
        for label, phase, _ in wl.ANCHORS}
    with open(wl.REFERENCE_PATH, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    print(f"wrote {wl.REFERENCE_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
