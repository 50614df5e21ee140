"""
North-star baseline report (one shot, not a gated workload)
==========================================================
    python3 bench/report.py [--out .bench_out/north_star.json]

Times, once each at the default scenario with ``workers=1``: all nine
``run_figure`` ids, ``required_elements(1e-9)`` for perfect, 1-bit and
2-bit phase, and ``sample_snr`` at N = 16, 256 and 2048.  These are the
baseline numbers ROADMAP's north star quotes.  A full run takes several
minutes, which is why it is not one of the benchmark's workloads.  It
writes a JSON file with the timings and the environment block and prints
a table.
"""

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    ap = argparse.ArgumentParser(description="north-star baseline report")
    ap.add_argument("--out", default=str(ROOT / ".bench_out" / "north_star.json"))
    args = ap.parse_args(argv)

    # one BLAS thread, as in the benchmark; must be set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from risfbl.experiments import FIGURE_IDS, ScenarioConfig, required_elements, run_figure
    from risfbl.montecarlo import McConfig, sample_snr
    import worker
    import workloads as wl

    mc = McConfig()
    scenario = ScenarioConfig(mc=mc)
    timings = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        fn()
        timings[name] = time.perf_counter() - t0
        print(f"  {name:32s} {timings[name]:9.3f} s", flush=True)

    worker.warm_up()
    for fid in FIGURE_IDS:
        timed(f"run_figure.{fid}", lambda: run_figure(fid, scenario, workers=1))
    for label, phase, _ in wl.ANCHORS:
        s = dataclasses.replace(scenario, phase=phase)
        timed(f"required_elements.{label}",
              lambda: required_elements(wl.TARGET_BLER, s))
    for n in (16, 256, 2048):
        timed(f"sample_snr.N{n}", lambda: sample_snr(
            scenario.gains(), n, scenario.phase, scenario.rho(), mc))
    figures_total = sum(v for k, v in timings.items() if k.startswith("run_figure."))
    print(f"  {'all nine figures':32s} {figures_total:9.3f} s")

    report = {"timings_s": timings, "figures_total_s": figures_total,
              "n_samples": mc.n_samples, "workers": 1,
              "env": worker.environment(mc.seed, 0)}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
