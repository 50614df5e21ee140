"""Figure harness: tables, registry behavior, element search."""

import ast
import dataclasses
import hashlib
import json
import platform
import re

import numpy as np
import pytest
import scipy
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
from risfbl.cli import main
from risfbl.experiments import (
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
from risfbl.specfun import DEFAULT_POLICY, DomainError, NonConvergenceError

FAST = ScenarioConfig(mc=McConfig(n_samples=500))

PHASES = st.one_of(
    st.just(Perfect()),
    st.builds(QuantizedBits, st.integers(1, 16)),
    st.builds(UniformSpread, st.floats(0.0, 1.0, exclude_min=True)))


def _with_se(fmt, tags):
    return [fmt.format(t) + s for t in tags for s in ("", "_mc", "_mc_se")]


# exact ordered column names and row count of every figure
COLUMNS = {
    "fig2a": (["snr_db"] + _with_se(
        "cdf_{}", ("perfect", "3bit", "2bit", "1bit", "uniform")), 200),
    "fig2b": (["snr_db"] + _with_se(
        "cdf_{}", ("reflector_nodirect", "perfect_nodirect", "perfect_direct",
                   "1bit_direct", "2bit_direct")), 200),
    "fig3": (["n_elements", "rate_exact", "rate_lower_bound",
              "capacity_shannon", "rate_mc", "rate_mc_se"], len(N_GRID)),
    "fig4": (["n_elements"]
             + _with_se("bler_{}", ("perfect", "2bit", "1bit")), len(N_GRID)),
    "fig5": (["ris_distance_m"]
             + _with_se("bler_{}", ("perfect", "2bit", "1bit")), len(D_GRID)),
    "fig6a": (["ris_distance_m"]
              + _with_se("rate_ple{}", ("3.6", "3.8", "4")), len(D_GRID)),
    "fig6b": (["ris_distance_m", "rate", "rate_mc", "rate_mc_se"], len(D_GRID)),
    "fig7": (["n_elements"] + _with_se(
        "blocklength_{}", ("1bit", "2bit", "3bit", "perfect")), len(N_GRID)),
    "fig8": (["n_elements", "sqrt_dispersion", "sqrt_dispersion_mc",
              "sqrt_dispersion_mc_se"], len(N_GRID)),
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
        ScenarioConfig(mc=McConfig(n_samples=1234, seed=9, stream_id=5)),
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
            "direct_exponent", "n_samples", "seed", "stream_id"}
        assert type(scenario_to_dict(ScenarioConfig())["phase"]) is str

    @pytest.mark.parametrize("d", [{"chunk": 128}, {"rel_tol": 1e-9}],
                             ids=("chunk", "rel_tol"))
    def test_implementation_knobs_are_unknown_keys(self, d):
        # the sampler's row cap and the quadrature tolerance are class
        # constants: neither a key nor a constructor argument
        with pytest.raises(DomainError, match=r"unknown config key\(s\)"):
            scenario_from_dict(d)
        with pytest.raises(TypeError):
            McConfig(chunk=1)
        with pytest.raises(TypeError):
            dataclasses.replace(ScenarioConfig(), policy=DEFAULT_POLICY)
        assert (McConfig().chunk, ScenarioConfig().policy) == (
            2000, DEFAULT_POLICY)

    def test_from_dict_phase_defaults(self):
        assert scenario_from_dict({}).phase == Perfect()
        assert (scenario_from_dict({"phase": "uniform:0.25"}).phase
                == UniformSpread(0.25))
        assert scenario_from_dict({"phase": "2bit"}).phase == QuantizedBits(2)

    @pytest.mark.parametrize("d", [
        {"bandwdith": 1e5}, {"phase": "sideways"},
        {"phase": "uniform:abc"}, {"phase": "uniform"},
        {"phase": "quantized"}, {"ap": 3},
        {"direct_link": "False"}, {"ap_height": "12.5"}, {"n_elements": 512.9},
        {"seed": True}, {"tx_power": True}, {"direct_exponent": "3.8"},
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
        # not a JSON object, though dict() would take the list of pairs
        [["tx_power", 0.5]], "tx_power", None,
        # digits other than ASCII ones
        {"phase": "\uff12bit"}, {"phase": "\u0662bit"},
        {"phase": "uniform:\uff10.\uff12\uff15"},
    ])
    def test_from_dict_rejects(self, d):
        with pytest.raises(DomainError):
            scenario_from_dict(d)

    def test_from_dict_reads_db_keys(self):
        assert (scenario_from_dict({"tx_power_db": -10})
                == scenario_from_dict({"tx_power": 10 ** -1.0}))
        assert (scenario_from_dict({"noise_density_db": -204, "noise_figure_db": 3})
                == scenario_from_dict({"noise_density": 10 ** -20.4,
                                       "noise_figure": 10 ** 0.3}))

    @pytest.mark.parametrize("d,needle", [
        ({"tx_power_db": "abc"}, "tx_power_db must be int or float"),
        ({"tx_power_db": True}, "tx_power_db must be int or float"),
        ({"noise_figure_db": float("nan")}, "noise_figure_db must be finite"),
        ({"tx_power_db": 1e6}, "tx_power_db: "),
        ({"noise_density_db": 10 ** 400}, "noise_density_db: "),
        ({"tx_power": 0.5, "tx_power_db": -3}, "tx_power and tx_power_db"),
        ({"noise_figure_db": 3, "noise_figure": 2.0},
         "noise_figure and noise_figure_db"),
    ], ids=("string", "bool", "nan", "overflow", "huge-int", "both-tx",
            "both-nf"))
    def test_from_dict_db_errors_name_the_key(self, d, needle):
        with pytest.raises(DomainError, match=re.escape(needle)):
            scenario_from_dict(d)

    def test_from_dict_keeps_the_base(self):
        base = ScenarioConfig(n_elements=300, phase=QuantizedBits(2),
                              direct_link=True,
                              geometry=Geometry(ris=(40.0, 10.0)),
                              mc=McConfig(n_samples=1234, seed=9, stream_id=5))
        s = scenario_from_dict({"n_samples": 200}, base)
        assert s == dataclasses.replace(
            base, mc=dataclasses.replace(base.mc, n_samples=200))
        assert scenario_from_dict({}, base) == base
        # a dB key over a base replaces the base's linear key
        assert scenario_from_dict({"tx_power_db": -10}, base).radio == (
            dataclasses.replace(base.radio, tx_power=0.1))


class TestResultTable:
    def test_csv_round_trips_full_precision(self):
        t = ResultTable(figure_id="x", columns={
            "a": [1.0 / 3.0, 2.0 ** -40], "b": [1e-300, 123456.789012345678]})
        lines = t.to_csv().strip().split("\n")
        assert lines[0] == "a,b"
        vals = [float(v) for v in lines[1].split(",")]
        assert vals[0] == 1.0 / 3.0
        assert vals[1] == 1e-300

    def test_csv_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            ResultTable(figure_id="x", columns={"a": [1.0], "b": []}).to_csv()

    def test_write_emits_sidecar(self, tmp_path, capsys):
        scenario = dataclasses.replace(FAST, phase=UniformSpread(0.1 + 0.2))
        t = run_figure("fig8", scenario)
        out = tmp_path / "fig8.csv"
        t.write(out)
        text = out.read_text()
        side = json.loads((tmp_path / "fig8.csv.json").read_text())
        assert side["sha256"] == hashlib.sha256(text.encode()).hexdigest()
        assert side["figure_id"] == "fig8"
        assert side["scenario"]["seed"] == FAST.mc.seed
        # the versions the bytes came from, outside the hashed table, with
        # the SIMD targets numpy.show_runtime reports as found on this CPU
        np.show_runtime()
        found = re.search(r"'found': (\[[^\]]*\])", capsys.readouterr().out)
        assert side["versions"] == {"python": platform.python_version(),
                                    "numpy": np.__version__,
                                    "scipy": scipy.__version__,
                                    "libc": list(platform.libc_ver()),
                                    "numpy_simd": ast.literal_eval(found[1])}
        assert side["scenario"]["n_samples"] == 500
        # the sidecar rebuilds the scenario the figure ran, with its pins
        assert side["scenario"]["phase"] == "uniform:0.30000000000000004"
        assert scenario_from_dict(side["scenario"]) == dataclasses.replace(
            scenario, direct_link=False)

    def test_sidecar_versions_leave_table_and_hash(self, tmp_path):
        # the host's libc and SIMD targets sit beside the table: its bytes
        # and their SHA-256 are those written before the sidecar named them
        t = ResultTable(figure_id="x", columns={
            "n": [16.0, 2048.0], "a": [1.0 / 3.0, 2.0 ** -40]})
        t.write(tmp_path / "x.csv")
        side = json.loads((tmp_path / "x.csv.json").read_text())
        assert {"libc", "numpy_simd"} <= set(side["versions"])
        assert (tmp_path / "x.csv").read_text() == (
            "n,a\n16,0.33333333333333331\n2048,9.0949470177292824e-13\n")
        assert side["sha256"] == (
            "972882e10b355104e66ee5f9a1c2bcd91ce76eb5c26faacaf99db7926f51bdc9")


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
        assert t.meta["scenario"]["n_samples"] == 500

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

    def test_fig2a_ecdf_se_is_binomial(self):
        # each ECDF point is the sample mean of 1{gamma <= x}, so its SE is
        # sqrt(F (1 - F) / (n - 1)), exactly 0 where F is 0 or 1
        n = 500
        t = run_figure("fig2a", dataclasses.replace(
            FAST, mc=McConfig(n_samples=n)))
        for label in ("perfect", "3bit", "2bit", "1bit", "uniform"):
            f = np.array(t.columns[f"cdf_{label}_mc"])
            se = np.array(t.columns[f"cdf_{label}_mc_se"])
            np.testing.assert_allclose(se, np.sqrt(f * (1.0 - f) / (n - 1)),
                                       rtol=1e-12, atol=0.0)
            ends = (f == 0.0) | (f == 1.0)
            assert ends.any() and np.all(se[ends] == 0.0)

    def test_mc_cell_draws_its_own_scenario(self):
        # the 2-bit column of fig2a is the ECDF of sample_snr on the cell's
        # scenario, its MC config as given: no name of figure or case enters
        scenario = dataclasses.replace(
            FAST, mc=McConfig(n_samples=2000, seed=9, stream_id=5))
        t = run_figure("fig2a", scenario)
        cell = dataclasses.replace(scenario, direct_link=False,
                                   n_elements=1024, phase=QuantizedBits(2))
        samples = np.sort(sample_snr(cell.gains(), 1024, cell.phase,
                                     cell.rho(), scenario.mc))
        snr = 10.0 ** (np.array(t.columns["snr_db"]) / 10.0)
        ecdf = np.searchsorted(samples, snr, side="right") / samples.size
        assert np.array_equal(ecdf, t.columns["cdf_2bit_mc"])

    def test_figure_cell_is_the_mc_record_of_its_settings(self, capsys):
        # fig4's 2-bit cell at N is what `risfbl mc` prints there (at N = 64
        # the BLER of nearly every sample is 1, at N = 128 they spread)
        t = run_figure("fig4", FAST)
        for n in (64, 128):
            code = main(["mc", "--N", str(n), "--phase", "2bit", "--no-direct",
                         "--set", "n_samples=500", "--format", "json"])
            assert code == 0
            record = json.loads(capsys.readouterr().out)
            i = N_GRID.index(n)
            assert t.columns["bler_2bit_mc"][i] == record["avg_bler_mc"]
            assert t.columns["bler_2bit_mc_se"][i] == record["avg_bler_mc_se"]

    @pytest.mark.parametrize("figure_id,column,key,argv", [
        ("fig5", "bler_2bit", "avg_bler", ("--phase", "2bit", "--no-direct")),
        ("fig6a", "rate_ple3.6", "avg_rate",
         ("--direct", "--set", "direct_exponent=3.6")),
    ], ids=("fig5", "fig6a"))
    def test_distance_cell_is_the_mc_record_of_its_settings(
            self, capsys, figure_id, column, key, argv):
        # a distance-sweep cell, with or without a direct link, is what
        # `risfbl mc` prints with the RIS at its position
        t = run_figure(figure_id, FAST)
        code = main(["mc", "--N", "512", *argv, "--set", "ris=[45, 10]",
                     "--set", "n_samples=500", "--format", "json"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        i = D_GRID.index(45)
        for se in ("", "_se"):
            assert t.columns[f"{column}_mc{se}"][i] == record[f"{key}_mc{se}"]

    def test_cases_at_one_n_are_paired(self):
        # the perfect and 2-bit cells at one N read the same magnitudes and
        # phase uniforms and differ only in the rotation (common random
        # numbers), so their per-sample rate gap varies far less than the
        # gap of two independent cells would
        rates = []
        for phase in (Perfect(), QuantizedBits(2)):
            cell = dataclasses.replace(ScenarioConfig(), direct_link=False,
                                       n_elements=256, phase=phase)
            samples = sample_snr(cell.gains(), cell.n_elements, cell.phase,
                                 cell.rho(), cell.mc)
            c, sqrt_v = fbl._capacity_sqrt_dispersion(samples)
            rates.append(fbl._rate(c, sqrt_v, cell.packet.blocklength,
                                   cell.packet.target_bler))
        independent = np.var(rates[0]) + np.var(rates[1])
        assert np.var(rates[0] - rates[1]) * 10.0 <= independent

    def test_configured_stream_id_changes_figure(self):
        # every cell draws on the scenario's stream id, so it moves them all
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
        assert avg_bler(dataclasses.replace(FAST, n_elements=n).fit(),
                        pkt.blocklength, pkt.info_bits) <= 1e-9
        assert avg_bler(dataclasses.replace(FAST, n_elements=n - 1).fit(),
                        pkt.blocklength, pkt.info_bits) > 1e-9

    def test_unreachable_target(self):
        with pytest.raises(NonConvergenceError,
                           match=r"avg_bler at N=8192 is .* > target"):
            # avg BLER at the search cap, N = 8192, is 1.0 at 1 uW
            required_elements(1e-9, dataclasses.replace(
                FAST, radio=RadioConfig(tx_power=1e-6)))

    def test_bad_target(self):
        with pytest.raises(DomainError):
            required_elements(0.0, FAST)

    @pytest.mark.parametrize("target", [0.7, 0.5 + 1e-12, 1.0])
    def test_target_takes_the_packet_range(self, target):
        # the search's target is a target_bler, in (0, 0.5] as the key's
        with pytest.raises(DomainError,
                           match=r"target_bler must lie in \(0, 0\.5\]"):
            required_elements(target, FAST)
        with pytest.raises(DomainError, match=r"\(0, 0\.5\]"):
            fbl.PacketConfig(target_bler=target)
