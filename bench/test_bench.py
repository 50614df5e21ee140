"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

They check that the metric and workload names agree with BENCHMARK.json,
that every output check rejects a corrupted result, and that a
tiny-size run of each workload finishes, traced and untraced.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from risfbl.experiments import N_GRID, ScenarioConfig

import run
import tracer
import worker
import workloads as wl
import yardstick

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REF = wl.load_reference()


def _names(key):
    return sorted(m["name"] for m in SPEC[key])


def _fake_pass(latencies, queries=None, rss_kb=100_000):
    return {"latencies_ms": latencies,
            "scaled_ms": latencies,
            "queries": queries or list(latencies),
            "peak_rss_kb": rss_kb,
            "layers": tracer.layer_metrics([], 1.0)}


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------

def test_workload_names_match():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(wl.KERNEL)
    assert set(wl.KERNEL.values()) <= set(yardstick.KERNELS)


def test_end_to_end_names_match():
    p = _fake_pass({"a": 10.0, "b": 30.0})
    assert sorted(run.end_to_end_metrics([p], 0.5)) == _names("end_to_end")


def test_per_layer_names_match():
    p = _fake_pass({"a": 10.0})
    assert sorted(run.per_layer_metrics([p], [p])) == _names("per_layer")


def test_latency_is_per_op_median_of_scaled_times():
    a = _fake_pass({"x": 5.0, "y": 9.0})
    b = _fake_pass({"x": 7.0, "y": 4.0})
    c = _fake_pass({"x": 6.0, "y": 1.0})
    for p, raw in zip((a, b, c), (1e3, 2e3, 3e3)):
        p["latencies_ms"] = {k: raw for k in p["latencies_ms"]}
    m = run.end_to_end_metrics([a, b, c], 0.5)
    assert m["wall_s"] == pytest.approx(0.010)
    assert m["query_p50_ms"] == pytest.approx(5.0)
    assert run.pass_wall([a, b, c], "latencies_ms") == pytest.approx(4.0)


def test_trace_overhead_is_median_pair_ratio():
    untraced = [_fake_pass({"x": 10.0, "y": 4.0}), _fake_pass({"x": 20.0})]
    traced = [_fake_pass({"x": 11.0, "y": 3.6}), _fake_pass({"x": 24.0})]
    # op ratios 1.1, 0.9 and 1.2 (the host slowed the second pair);
    # the median ignores both outliers
    assert run.trace_overhead_pct(untraced, traced) == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# Output checks trip on corrupted results
# ---------------------------------------------------------------------------

def _good_fig8(i):
    c2 = REF["fig8"]["sqrt_dispersion"][i]
    return c2, c2 * 1.002


def _good_fig2a(label):
    cdf = list(REF["fig2a"][f"cdf_{label}"])
    return cdf, [min(1.0, x + 0.01) for x in cdf]


def test_mc_checks_accept_reference():
    for i in range(len(N_GRID)):
        assert wl.check_fig8_point(i, _good_fig8(i), REF) == []
    for label, _ in wl.FIG2A_PHASES:
        assert wl.check_fig2a_case(label, _good_fig2a(label), REF) == []


@pytest.mark.parametrize("fn", [
    lambda c2, mc: (c2 * (1 + 1e-6), mc),
    lambda c2, mc: (c2, c2 * 1.02),
    lambda c2, mc: (c2, float("nan")),
])
def test_fig8_check_rejects_corruption(fn):
    assert wl.check_fig8_point(3, fn(*_good_fig8(3)), REF)


@pytest.mark.parametrize("fn", [
    lambda cdf, ecdf: ([x * (1 + 1e-6) for x in cdf], ecdf),
    lambda cdf, ecdf: (cdf, [min(1.0, x + 0.05) for x in cdf]),
    lambda cdf, ecdf: (cdf, [float("nan")] * len(ecdf)),
    lambda cdf, ecdf: (cdf[:-1], ecdf[:-1]),
])
def test_fig2a_check_rejects_corruption(fn):
    assert wl.check_fig2a_case("1bit", fn(*_good_fig2a("1bit")), REF)


def test_mc_ops_reproduce_figure_axes():
    ops = wl.build_ops("mc_points", 7, REF, small=True)
    assert [op.name for op in ops] == (
        [f"fig8:N{n}" for n in N_GRID]
        + [f"fig2a:{label}" for label, _ in wl.FIG2A_PHASES])
    snr_db = 10.0 * np.log10(wl.fig2a_snr_grid(ScenarioConfig()))
    assert list(snr_db) == pytest.approx(REF["fig2a"]["snr_db"], rel=1e-12)


def test_point_check():
    key, want = next(iter(REF["analytic_points"].items()))
    assert wl.check_point(key, list(want), REF) == []
    for i in range(3):
        bad = list(want)
        bad[i] = bad[i] * (1 + 1e-6) if bad[i] else 1e-300
        assert wl.check_point(key, bad, REF)
    assert wl.check_point("N:perfect:17", list(want), REF)


def test_required_elements_check():
    for label, _, anchor in wl.ANCHORS:
        n = REF["required_elements"][label]
        assert wl.check_required(label, n, anchor, REF) == []
        assert wl.check_required(label, n + 1, anchor, REF)
        assert wl.check_required(label, n - 1, anchor, REF)
    # the recorded value must also stay in criterion 01's band
    far = dict(REF, required_elements={"perfect": 250})
    assert wl.check_required("perfect", 250, 190, far)


def test_op_that_raises_is_counted():
    def boom():
        raise RuntimeError("boom")
    ops = [wl.Op("ok", lambda: 1, lambda out: []),
           wl.Op("bad", boom, lambda out: []),
           wl.Op("wrong", lambda: 2, lambda out: ["wrong output"])]
    times, failed, messages = worker.run_pass(ops, "series")
    assert failed == 2 and len(messages) == 2
    assert set(times) == {"ok", "wrong"}
    assert all(scale > 0 for _, _, scale in times.values())


# ---------------------------------------------------------------------------
# Tiny-size runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(wl.KERNEL))
def test_small_traced_run(workload, tmp_path):
    res = worker.run(workload, seed=7, trace=1, small=True,
                     spans_path=tmp_path / "spans.jsonl")
    assert res["attempted"] == (9 if workload == "analytic_points" else 20)
    assert res["env"]["worker_threads"] == 0
    assert set(res["scaled_ms"]) == set(res["latencies_ms"])
    layers = res["layers"]
    spans = [json.loads(line) for line in open(tmp_path / "spans.jsonl")]
    assert all({"name", "start", "end", "parent", "thread"} <= set(s) for s in spans)
    if workload == "analytic_points":
        assert res["failed"] == 0
        assert layers["montecarlo.sample_snr.calls"] == 0
        assert layers["fbl.c1_avg_capacity.calls"] == 6
        assert layers["experiments.required_elements.bler_evals"] > 0
    else:
        n_draws = sum(N_GRID) + 5 * wl.FIG2A_N
        assert layers["montecarlo.sample_snr.calls"] == len(N_GRID) + 5
        assert layers["montecarlo.sample_snr.element_draws"] == 64 * n_draws
        assert layers["montecarlo.sample_snr.chunk_bytes_computed"] == 64 * 2048 * 16
        assert layers["montecarlo.mc_avg_metrics.busy_s"] > 0
        assert layers["specfun.gamma_cdf.busy_s"] > 0
        for p in tracer.SAMPLE_PHASES:
            assert layers[f"montecarlo.sample_snr.busy_s.{p}"] > 0


def test_tracer_restores_library():
    from risfbl import experiments, fbl, montecarlo
    before = (montecarlo.sample_snr, experiments.sample_snr, fbl.c1_avg_capacity)
    with tracer.Tracer().installed():
        assert montecarlo.sample_snr is not before[0]
        assert experiments.sample_snr is montecarlo.sample_snr
    assert (montecarlo.sample_snr, experiments.sample_snr,
            fbl.c1_avg_capacity) == before


def test_command_prints_result_line():
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "analytic_points", "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 135
    assert sorted(res["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())
