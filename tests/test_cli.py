"""Command-line front end: dispatch, config handling, exit codes."""

import json
import math

import pytest

from risfbl.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_USAGE, main
from risfbl.channel import Geometry, Perfect, RadioConfig, fit_snr, link_gains, snr_scale
from risfbl.fbl import (
    avg_bler,
    avg_blocklength,
    avg_rate_exact,
    c1_avg_capacity,
    c2_avg_sqrt_dispersion,
)
from risfbl.experiments import FIGURE_POLICY


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_record(text):
    header, row = text.strip().split("\n")
    return dict(zip(header.split(","), row.split(",")))


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_config_error_names_field(self, capsys):
        code, _, err = run(capsys, "validate", "--set", "bandwidth=0")
        assert code == EXIT_CONFIG
        assert "bandwidth" in err

    def test_unknown_key_rejected(self, capsys):
        # a misspelt or retired key must not be ignored quietly
        for item in ("bandwdith=1e5", "max_series_terms=16", "phase_bits=2",
                     "phase_spread=0.25", "use_3d=true",
                     "carrier_frequency=1.9e9"):
            code, _, err = run(capsys, "validate", "--set", item)
            assert code == EXIT_CONFIG
            assert item.partition("=")[0] in err

    @pytest.mark.parametrize("argv", [
        ("--phase", "uniform:abc"),
        ("--set", "phase=uniform:abc"),
        ("--set", "phase=2"),
        ("--set", "tx_power_db=abc"),
        ("--set", "tx_power_db=1e6"),
        ("--set", "direct_link=False"),
        ("--set", "ap_height=true"),
        ("--set", "n_elements=512.9"),
        ("--set", "seed=true"),
        ("--set", "tx_power=true"),
        ("--set", 'rel_tol="1e-9"'),
        ("--set", "ris=[true, 5]"),
        ("--set", "tx_power_db=true"),
        ("--set", "seed=-1"),
        ("--set", "seed=18446744073709551616"),
        ("--set", "stream_id=-1"),
        ("--set", "stream_id=18446744073709551616"),
    ])
    def test_bad_value_is_config_error(self, capsys, argv):
        code, _, err = run(capsys, "validate", *argv)
        assert code == EXIT_CONFIG
        assert err.startswith("error: config:")

    @pytest.mark.parametrize("argv", [
        ("fit", "--direct", "--set", "direct_exponent=NaN"),
        ("validate", "--set", "tx_power=NaN"),
        ("validate", "--set", "tx_power=-Infinity"),
        ("validate", "--set", "ris=[NaN, 5]"),
    ])
    def test_non_finite_is_config_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_CONFIG
        assert "finite" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("mc", "--N", "4", "--phase", "2000bit", "--set", "n_samples=100"),
        ("fit", "--phase", "2000bit"),
        ("fit", "--phase", "53bit"),
    ])
    def test_too_many_phase_bits_is_config_error(self, capsys, argv):
        # a float64 phase resolves at most 52 bits; more must not reach the
        # sampler, where 2^bits overflows
        code, out, err = run(capsys, *argv)
        assert code == EXIT_CONFIG
        assert "bits" in err
        assert out == ""

    def test_missing_config_file(self, capsys):
        assert run(capsys, "validate", "--config", "/no/such.json")[0] == EXIT_CONFIG

    def test_numeric_error(self, capsys):
        code, _, err = run(capsys, "rate", "--N", "2048", "--no-direct",
                           "--phase", "perfect", "--set", "rel_tol=1e-300")
        assert code == EXIT_NUMERIC
        assert err.startswith("error: numeric:")


class TestThinWrappers:
    def test_rate_and_blocklength_skip_bler_linearization(self, capsys):
        # one info bit puts kappa0 <= 0: the BLER form is invalid there,
        # the rate and the blocklength are not
        argv = ("--N", "256", "--no-direct", "--set", "info_bits=1")
        for command, key in (("rate", "avg_rate"),
                             ("blocklength", "avg_blocklength")):
            code, out, _ = run(capsys, command, *argv)
            assert code == 0
            assert math.isfinite(float(csv_record(out)[key]))
        code, _, err = run(capsys, "bler", *argv)
        assert code == EXIT_CONFIG
        assert "linearized-Q" in err

    @pytest.mark.parametrize("command,key,library", [
        ("rate", "avg_rate",
         lambda fit: avg_rate_exact(fit, 300, 1e-9, FIGURE_POLICY)),
        ("rate", "avg_sqrt_dispersion",
         lambda fit: c2_avg_sqrt_dispersion(fit, FIGURE_POLICY)),
        ("bler", "avg_bler", lambda fit: avg_bler(fit, 300, 240)),
        ("blocklength", "avg_blocklength", lambda fit: avg_blocklength(
            c1_avg_capacity(fit, FIGURE_POLICY),
            c2_avg_sqrt_dispersion(fit, FIGURE_POLICY), 240, 1e-9)),
    ], ids=("avg_rate", "avg_sqrt_dispersion", "avg_bler", "avg_blocklength"))
    def test_rate_matches_library(self, capsys, command, key, library):
        code, out, _ = run(capsys, command, "--N", "512", "--no-direct",
                           "--phase", "perfect")
        assert code == 0
        rec = csv_record(out)
        gains = link_gains(Geometry(), direct_link=False)
        fit = fit_snr(gains, 512, Perfect(), snr_scale(RadioConfig()))
        assert float(rec[key]) == library(fit)

    def test_fit_outputs_shape_rate(self, capsys):
        code, out, _ = run(capsys, "fit", "--N", "189", "--no-direct",
                           "--phase", "perfect")
        rec = csv_record(out)
        assert code == 0
        assert float(rec["shape"]) > 0 and float(rec["rate"]) > 0
        assert rec["seed"] == "20260824"

    def test_bler_json_format(self, capsys):
        code, out, _ = run(capsys, "bler", "--N", "200", "--phase", "2bit",
                           "--no-direct", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert 0.0 <= rec["avg_bler"] <= 1.0

    def test_required_n(self, capsys):
        code, out, _ = run(capsys, "required-n", "--no-direct",
                           "--phase", "perfect", "--target", "1e-9")
        assert code == 0
        assert int(csv_record(out)["required_elements"]) == 189

    def test_mc_summary(self, capsys):
        code, out, _ = run(capsys, "mc", "--N", "64", "--no-direct",
                           "--phase", "2bit", "--set", "n_samples=2000")
        rec = csv_record(out)
        assert code == 0
        assert float(rec["ks_distance"]) < 0.1
        assert int(rec["n_samples"]) == 2000


class TestConfigHandling:
    def test_config_file_plus_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_elements": 128, "phase": "2bit",
                                   "direct_link": False}))
        code, out, _ = run(capsys, "fit", "--config", str(cfg),
                           "--set", "n_elements=64")
        assert code == 0
        assert csv_record(out)["n_elements"] == "64"

    def test_db_keys_equivalent_to_linear(self, capsys):
        _, lin_out, _ = run(capsys, "fit", "--N", "64", "--no-direct",
                            "--phase", "perfect")
        # 0.2 W is 10 log10(0.2) = -6.9897 dBW
        _, db_out, _ = run(capsys, "fit", "--N", "64", "--no-direct",
                           "--phase", "perfect",
                           "--set", "tx_power_db=-6.989700043360187")
        lin = csv_record(lin_out)
        db = csv_record(db_out)
        assert float(db["snr_mean"]) == pytest.approx(
            float(lin["snr_mean"]), rel=1e-12)

    def test_seed_flag_propagates(self, capsys):
        _, out, _ = run(capsys, "validate", "--seed", "777")
        assert csv_record(out)["seed"] == "777"

    def test_phase_flag_forms(self, capsys):
        for flag in ("perfect", "1bit", "3bit", "uniform", "uniform:0.5"):
            assert run(capsys, "validate", "--phase", flag)[0] == 0
        for flag in ("sideways", "quantized", "0bit", "uniform0.5"):
            assert run(capsys, "validate", "--phase", flag)[0] == EXIT_CONFIG

    def test_phase_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phase": "uniform:0.5"}))
        _, flag_out, _ = run(capsys, "fit", "--phase", "2bit")
        code, out, _ = run(capsys, "fit", "--config", str(cfg),
                           "--phase", "2bit")
        assert code == 0
        assert out == flag_out


class TestFigureCommand:
    def test_figure_csv_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code = main(["figure", "fig8", "--seed", "7",
                         "--set", "n_samples=500", "--output", str(path)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        side = json.loads((tmp_path / "a.csv.json").read_text())
        assert side["seed"] == 7

    def test_figure_json_to_stdout(self, capsys):
        code, out, _ = run(capsys, "figure", "fig8",
                           "--set", "n_samples=500", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["figure_id"] == "fig8"
        assert "sqrt_dispersion" in payload["columns"]
