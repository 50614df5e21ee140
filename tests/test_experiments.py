"""Figure harness: tables, registry behavior, element search."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from risfbl.channel import Geometry, Perfect, QuantizedBits, UniformSpread
from risfbl.experiments import (
    BracketError,
    D_GRID,
    FIGURE_IDS,
    N_GRID,
    ResultTable,
    ScenarioConfig,
    phase_label,
    required_elements,
    run_figure,
    scenario_from_dict,
    scenario_to_dict,
)
from risfbl.montecarlo import McConfig
from risfbl.specfun import DomainError

FAST = ScenarioConfig(mc=McConfig(n_samples=500))


def _paired(fmt, tags):
    return [fmt.format(t) + s for t in tags for s in ("", "_mc")]


# exact ordered column names and row count of every figure
COLUMNS = {
    "fig2a": (["snr_db"] + _paired(
        "cdf_{}", ("perfect", "3bit", "2bit", "1bit", "uniform")), 200),
    "fig2b": (["snr_db"] + _paired(
        "cdf_{}", ("reflector_nodirect", "perfect_nodirect", "perfect_direct",
                   "1bit_direct", "2bit_direct")), 200),
    "fig3": (["n_elements", "rate_exact", "rate_lower_bound",
              "capacity_shannon", "rate_mc", "rate_mc_se"], len(N_GRID)),
    "fig4": (["n_elements"] + _paired("bler_{}", ("perfect", "2bit", "1bit")),
             len(N_GRID)),
    "fig5": (["ris_distance_m"]
             + _paired("bler_{}", ("perfect", "2bit", "1bit")), len(D_GRID)),
    "fig6a": (["ris_distance_m"] + _paired("rate_ple{}", ("3.6", "3.8", "4")),
              len(D_GRID)),
    "fig6b": (["ris_distance_m", "rate", "rate_mc"], len(D_GRID)),
    "fig7": (["n_elements"] + _paired(
        "blocklength_{}", ("1bit", "2bit", "3bit", "perfect")), len(N_GRID)),
    "fig8": (["n_elements", "sqrt_dispersion", "sqrt_dispersion_mc"],
             len(N_GRID)),
}


class TestScenario:
    def test_defaults_round_trip(self):
        d = scenario_to_dict(ScenarioConfig())
        assert d["n_elements"] == 512
        assert d["phase"] == "perfect"
        assert d["direct_link"] is False
        assert d["target_bler"] == 1e-9
        assert json.dumps(d)  # JSON-serializable

    def test_phase_serialization(self):
        s = ScenarioConfig(phase=QuantizedBits(3))
        d = scenario_to_dict(s)
        assert d["phase"] == "quantized" and d["phase_bits"] == 3

    def test_phase_labels(self):
        assert phase_label(Perfect()) == "perfect"
        assert phase_label(QuantizedBits(2)) == "2bit"

    def test_validation(self):
        with pytest.raises(DomainError):
            ScenarioConfig(n_elements=-1)
        with pytest.raises(DomainError):
            ScenarioConfig(direct_exponent=1.0)

    @pytest.mark.parametrize("scenario", [
        ScenarioConfig(),
        ScenarioConfig(phase=QuantizedBits(1)),
        ScenarioConfig(phase=QuantizedBits(3)),
        ScenarioConfig(phase=UniformSpread(0.5)),
        ScenarioConfig(direct_link=True, direct_exponent=3.8),
        ScenarioConfig(geometry=Geometry(ris=(40.0, 10.0)), n_elements=300),
        ScenarioConfig(mc=McConfig(n_samples=1234, seed=9, stream_id=5,
                                   chunk=128)),
    ], ids=["perfect", "1bit", "3bit", "uniform0.5", "direct", "ris", "mc"])
    def test_from_dict_inverts_to_dict(self, scenario):
        d = scenario_to_dict(scenario)
        assert scenario_from_dict(d) == scenario
        assert scenario_from_dict(json.loads(json.dumps(d))) == scenario

    def test_from_dict_phase_defaults(self):
        assert scenario_from_dict({"phase": "uniform"}).phase == UniformSpread(0.25)
        assert scenario_from_dict({"phase": "quantized"}).phase == QuantizedBits(2)

    @pytest.mark.parametrize("d", [
        {"bandwdith": 1e5}, {"phase": "sideways"},
        {"phase": "uniform", "phase_spread": "abc"},
        {"phase": "quantized", "phase_bits": "x"}, {"ap": 3},
        {"direct_link": "False"}, {"use_3d": "no"}, {"n_elements": 512.9},
        {"seed": True},
    ])
    def test_from_dict_rejects(self, d):
        with pytest.raises(DomainError):
            scenario_from_dict(d)


class TestResultTable:
    def test_csv_round_trips_full_precision(self):
        t = ResultTable(figure_id="x", columns={
            "a": [1.0 / 3.0, 2.0 ** -40], "b": [1e-300, 123456.789012345678]})
        lines = t.to_csv().strip().split("\n")
        assert lines[0] == "a,b"
        vals = [float(v) for v in lines[1].split(",")]
        assert vals[0] == 1.0 / 3.0
        assert vals[1] == 1e-300

    def test_write_emits_sidecar(self, tmp_path):
        t = run_figure("fig8", FAST)
        out = tmp_path / "fig8.csv"
        t.write(out)
        text = out.read_text()
        side = json.loads((tmp_path / "fig8.csv.json").read_text())
        assert side["sha256"] == hashlib.sha256(text.encode()).hexdigest()
        assert side["figure_id"] == "fig8"
        assert side["seed"] == FAST.mc.seed
        assert side["scenario"]["n_samples"] == 500
        # the sidecar rebuilds the scenario the figure ran, with its pins
        assert scenario_from_dict(side["scenario"]) == dataclasses.replace(
            FAST, direct_link=False)


class TestFigures:
    def test_unknown_figure(self):
        with pytest.raises(DomainError):
            run_figure("fig99", FAST)

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_columns(self, figure_id):
        names, n_rows = COLUMNS[figure_id]
        t = run_figure(figure_id, FAST)
        assert list(t.columns) == names
        assert all(len(c) == n_rows for c in t.columns.values())
        assert t.meta["n_samples"] == 500

    def test_fig8_workers_agree(self):
        a = run_figure("fig8", FAST, workers=1)
        b = run_figure("fig8", FAST, workers=3)
        assert a.to_csv() == b.to_csv()

    def test_fig4_workers_agree(self):
        # three cases per N: the regrouping by case must not depend on
        # the order in which threads finish
        a = run_figure("fig4", FAST, workers=1)
        b = run_figure("fig4", FAST, workers=2)
        assert a.to_csv() == b.to_csv()

    def test_fig4_bler_decreasing(self):
        t = run_figure("fig4", FAST)
        for label in ("perfect", "1bit", "2bit"):
            col = np.array(t.columns[f"bler_{label}"])
            assert np.all(np.diff(col) <= 0)

    def test_fig5_symmetric_in_d(self):
        t = run_figure("fig5", FAST)
        b = np.array(t.columns["bler_perfect"])
        assert np.allclose(b, b[::-1], rtol=1e-9)
        assert len(t.columns["ris_distance_m"]) == len(D_GRID)

    def test_fig2a_cdf_shape(self):
        t = run_figure("fig2a", dataclasses.replace(
            FAST, mc=McConfig(n_samples=2000)))
        for label in ("perfect", "1bit", "2bit", "3bit", "uniform"):
            c = np.array(t.columns[f"cdf_{label}"])
            assert np.all(np.diff(c) >= 0)
            assert c[0] < 0.02 and c[-1] > 0.99
            e = np.array(t.columns[f"cdf_{label}_mc"])
            assert np.max(np.abs(c - e)) < 0.05

    def test_all_ids_registered(self):
        assert FIGURE_IDS == ("fig2a", "fig2b", "fig3", "fig4", "fig5",
                              "fig6a", "fig6b", "fig7", "fig8")


class TestRequiredElements:
    def test_threshold_nesting(self):
        n_tight = required_elements(1e-9, FAST)
        n_loose = required_elements(1e-5, FAST)
        assert n_tight >= n_loose
        assert n_loose > 1

    def test_returned_n_is_minimal(self):
        from risfbl.fbl import avg_bler
        n = required_elements(1e-9, FAST)
        pkt = FAST.packet
        assert avg_bler(FAST.fit(n_elements=n), pkt.blocklength,
                        pkt.info_bits) <= 1e-9
        assert avg_bler(FAST.fit(n_elements=n - 1), pkt.blocklength,
                        pkt.info_bits) > 1e-9

    def test_unreachable_target(self):
        with pytest.raises(BracketError):
            required_elements(1e-9, FAST, n_cap=16)

    def test_bad_target(self):
        with pytest.raises(DomainError):
            required_elements(0.0, FAST)
