"""Figure harness: tables, registry behavior, element search."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risfbl import fbl
from risfbl.channel import (
    Geometry,
    Perfect,
    QuantizedBits,
    RadioConfig,
    UniformSpread,
)
from risfbl.experiments import (
    BracketError,
    D_GRID,
    FIGURE_IDS,
    N_GRID,
    ResultTable,
    ScenarioConfig,
    phase_from_label,
    phase_label,
    required_elements,
    run_figure,
    scenario_from_dict,
    scenario_to_dict,
)
from risfbl.montecarlo import McConfig, sample_snr
from risfbl.specfun import DomainError

FAST = ScenarioConfig(mc=McConfig(n_samples=500))

PHASES = st.one_of(
    st.just(Perfect()),
    st.builds(QuantizedBits, st.integers(1, 16)),
    st.builds(UniformSpread, st.floats(0.0, 1.0, exclude_min=True)))


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
        assert d["phase"] == "3bit"

    def test_phase_labels(self):
        assert phase_label(Perfect()) == "perfect"
        assert phase_label(QuantizedBits(2)) == "2bit"
        assert phase_label(UniformSpread(0.25)) == "uniform:0.25"
        # the spread is written in full, not rounded to six digits
        assert phase_label(UniformSpread(0.1 + 0.2)) == (
            "uniform:0.30000000000000004")

    @given(PHASES)
    def test_phase_label_round_trips(self, phase):
        assert phase_from_label(phase_label(phase)) == phase

    @settings(max_examples=50)
    @given(PHASES.filter(lambda p: p != Perfect()),
           st.floats(0.0, 1e3, exclude_min=True))
    def test_scenario_json_round_trips(self, phase, ap_height):
        s = ScenarioConfig(phase=phase,
                           geometry=Geometry(ap_height=ap_height))
        d = json.loads(json.dumps(scenario_to_dict(s)))
        assert scenario_from_dict(d) == s

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

    def test_key_set(self):
        # every config field is a key; a new field must be added here
        assert set(scenario_to_dict(ScenarioConfig())) == {
            "ap", "ac", "ris", "ap_height", "tx_power", "noise_density",
            "bandwidth", "noise_figure", "info_bits", "blocklength",
            "target_bler", "n_elements", "phase", "direct_link",
            "direct_exponent", "n_samples", "seed", "stream_id", "chunk",
            "rel_tol"}
        assert type(scenario_to_dict(ScenarioConfig())["phase"]) is str

    def test_from_dict_phase_defaults(self):
        assert scenario_from_dict({}).phase == Perfect()
        assert scenario_from_dict({"phase": "uniform"}).phase == UniformSpread(0.25)
        assert scenario_from_dict({"phase": "2bit"}).phase == QuantizedBits(2)

    @pytest.mark.parametrize("d", [
        {"bandwdith": 1e5}, {"phase": "sideways"},
        {"phase": "uniform:abc"},
        {"phase": "quantized"}, {"ap": 3},
        {"direct_link": "False"}, {"ap_height": "12.5"}, {"n_elements": 512.9},
        {"seed": True}, {"tx_power": True}, {"rel_tol": "1e-9"},
        {"ris": [True, 5]}, {"ap": [0.0, 0.0, 1.0]}, {"ac": "100,0"},
        {"seed": -1}, {"seed": 2 ** 64}, {"stream_id": -1},
        {"stream_id": 2 ** 64},
        {"phase": "uniform:1.5"},
        {"phase": 2},
        {"tx_power": float("nan")}, {"direct_exponent": float("inf")},
        {"ris": [float("nan"), 5]},
        {"phase": "0bit"}, {"phase": "uniform:0"}, {"phase": "uniform:nan"},
        {"phase": "uniform0.5"}, {"ap_height": -1.0},
        # retired keys
        {"phase_bits": 2}, {"phase_spread": 0.25}, {"use_3d": True},
        {"carrier_frequency": 1.9e9},
        # finer than a float64 phase resolves
        {"phase": "53bit"},
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
        scenario = dataclasses.replace(FAST, phase=UniformSpread(0.1 + 0.2))
        t = run_figure("fig8", scenario)
        out = tmp_path / "fig8.csv"
        t.write(out)
        text = out.read_text()
        side = json.loads((tmp_path / "fig8.csv.json").read_text())
        assert side["sha256"] == hashlib.sha256(text.encode()).hexdigest()
        assert side["figure_id"] == "fig8"
        assert side["seed"] == FAST.mc.seed
        assert side["scenario"]["n_samples"] == 500
        # the sidecar rebuilds the scenario the figure ran, with its pins
        assert side["scenario"]["phase"] == "uniform:0.30000000000000004"
        assert scenario_from_dict(side["scenario"]) == dataclasses.replace(
            scenario, direct_link=False)


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

    def test_fig3_workers_agree(self):
        # fig3's threads share the cached Gamma averages of each cell's fit
        fbl._gamma_averages.cache_clear()
        a = run_figure("fig3", FAST, workers=3)
        fbl._gamma_averages.cache_clear()
        b = run_figure("fig3", FAST, workers=1)
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

    def test_mc_stream_id_is_hashed_cell_name(self):
        # the 2-bit column of fig2a is sample_snr on the stream id hashed
        # from "fig2a/2bit", whatever the case's place in the figure
        scenario = dataclasses.replace(FAST, mc=McConfig(n_samples=2000))
        t = run_figure("fig2a", scenario)
        digest = hashlib.blake2b(b"fig2a/2bit", digest_size=8).digest()
        cfg = dataclasses.replace(
            scenario.mc, stream_id=int.from_bytes(digest, "big") >> 1)
        cell = dataclasses.replace(scenario, direct_link=False,
                                   n_elements=1024, phase=QuantizedBits(2))
        samples = np.sort(sample_snr(cell.gains(), 1024, cell.phase,
                                     cell.rho(), cfg))
        snr = 10.0 ** (np.array(t.columns["snr_db"]) / 10.0)
        ecdf = np.searchsorted(samples, snr, side="right") / samples.size
        assert np.array_equal(ecdf, t.columns["cdf_2bit_mc"])

    def test_configured_stream_id_changes_figure(self):
        # the scenario's stream_id is XORed into every cell's hashed id
        def fig8(stream_id):
            return run_figure("fig8", dataclasses.replace(
                FAST, mc=McConfig(n_samples=200, stream_id=stream_id))).to_csv()

        a, b = fig8(0), fig8(5)
        assert a != b
        assert a == fig8(0) and b == fig8(5)

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
            # avg BLER at the search cap, N = 8192, is 1.0 at 1 uW
            required_elements(1e-9, dataclasses.replace(
                FAST, radio=RadioConfig(tx_power=1e-6)))

    def test_bad_target(self):
        with pytest.raises(DomainError):
            required_elements(0.0, FAST)
