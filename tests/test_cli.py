"""Command-line front end: dispatch, config handling, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from risfbl import experiments, specfun
from risfbl.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_USAGE, main
from risfbl.channel import (
    Geometry,
    Perfect,
    RadioConfig,
    fit_snr,
    link_gains,
    moments_X,
    snr_scale,
)
from risfbl.fbl import (
    avg_bler,
    avg_blocklength,
    avg_rate_exact,
    c1_avg_capacity,
    c2_avg_sqrt_dispersion,
)
from risfbl.experiments import ScenarioConfig, csv_text, scenario_from_dict
from risfbl.montecarlo import mc_avg_metrics, sample_snr
from risfbl.specfun import DEFAULT_POLICY, EvalPolicy


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
                     "carrier_frequency=1.9e9",
                     # constants, not settings: the sampler's row cap and
                     # the quadrature tolerance
                     "chunk=128", "rel_tol=1e-10"):
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
        ("--set", 'direct_exponent="3.8"'),
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

    def test_mc_without_channel(self, capsys):
        # the default scenario has no direct link: rejected before any draw,
        # with one error line and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "mc", "--N", "0")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == "error: config: N = 0 requires a direct link\n"

    def test_validate_without_channel(self, capsys):
        # validate rejects what fit, rate and mc reject, with fit's message
        result = run(capsys, "validate", "--N", "0")
        assert result == (EXIT_CONFIG, "",
                          "error: config: N = 0 requires a direct link\n")
        assert result == run(capsys, "fit", "--N", "0")
        assert run(capsys, "validate", "--N", "0", "--direct")[0] == 0

    def test_override_without_equals(self, capsys):
        assert run(capsys, "validate", "--set", "foo") == (
            EXIT_CONFIG, "",
            "error: config: override must be key=value, got 'foo'\n")

    def test_missing_config_file(self, capsys):
        assert run(capsys, "validate", "--config", "/no/such.json")[0] == EXIT_CONFIG

    @pytest.mark.parametrize("flag,path", [
        ("--config", ""), ("--config", "latin1.json"), ("--output", "")],
        ids=("config-dir", "config-not-utf8", "output-dir"))
    def test_unreadable_file(self, capsys, tmp_path, flag, path):
        (tmp_path / "latin1.json").write_bytes(b'{"phase": "\xe9"}')
        code, _, err = run(capsys, "fit", flag, str(tmp_path / path))
        assert code == EXIT_CONFIG
        assert err.startswith("error: config:") and err.count("\n") == 1

    def test_numeric_error(self, capsys, monkeypatch):
        # with the finest grid at the first call's, the 48- and 96-interval
        # sums cannot agree to 1e-300
        monkeypatch.setattr(specfun, "_N_MAX", specfun._N0)
        monkeypatch.setattr(ScenarioConfig, "policy", EvalPolicy(rel_tol=1e-300))
        code, _, err = run(capsys, "rate", "--N", "2048", "--no-direct",
                           "--phase", "perfect")
        assert code == EXIT_NUMERIC
        assert err.startswith("error: numeric:")

    @pytest.mark.parametrize("argv,code,needle", [
        (("bler", "--N", "16", "--set", "info_bits=1"), EXIT_CONFIG, "kappa0"),
        (("required-n", "--set", "tx_power=1e-6"), EXIT_NUMERIC,
         "avg_bler at N=8192"),
    ], ids=("linearization-domain", "search-cap"))
    def test_library_error_exit_code(self, capsys, argv, code, needle):
        # a closed form's domain exits 3; a search that cannot reach its
        # target exits 4
        got, out, err = run(capsys, *argv)
        assert got == code
        assert needle in err and err.count("\n") == 1
        assert out == ""


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
         lambda fit: avg_rate_exact(fit, 300, 1e-9, DEFAULT_POLICY)),
        ("rate", "avg_sqrt_dispersion",
         lambda fit: c2_avg_sqrt_dispersion(fit, DEFAULT_POLICY)),
        ("bler", "avg_bler", lambda fit: avg_bler(fit, 300, 240)),
        ("blocklength", "avg_blocklength", lambda fit: avg_blocklength(
            c1_avg_capacity(fit, DEFAULT_POLICY),
            c2_avg_sqrt_dispersion(fit, DEFAULT_POLICY), 240, 1e-9)),
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

    def test_required_n_target_is_the_target_bler_key(self, capsys):
        # --target is the shorthand of target_bler, with its (0, 0.5] range
        for fmt in ("csv", "json"):
            flag = run(capsys, "required-n", "--target", "1e-5",
                       "--format", fmt)
            assert flag[0] == 0
            assert flag == run(capsys, "required-n", "--set",
                               "target_bler=1e-5", "--format", fmt)
        code, out, err = run(capsys, "required-n", "--target", "0.7")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("error: config:") and "target_bler" in err

    def test_mc_summary(self, capsys):
        code, out, _ = run(capsys, "mc", "--N", "64", "--no-direct",
                           "--phase", "2bit", "--set", "n_samples=2000")
        rec = csv_record(out)
        assert code == 0
        assert float(rec["ks_distance"]) < 0.1
        assert int(rec["n_samples"]) == 2000
        for key in ("avg_rate_mc_se", "avg_bler_mc_se"):
            se = float(rec[key])
            assert math.isfinite(se) and se >= 0.0

    def test_mc_blocklength_se_is_the_library_s(self, capsys):
        code, out, _ = run(capsys, "mc", "--N", "64", "--phase", "2bit",
                           "--set", "n_samples=2000", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        s = scenario_from_dict({"n_elements": 64, "phase": "2bit",
                                "n_samples": 2000})
        avgs = mc_avg_metrics(
            sample_snr(s.gains(), 64, s.phase, s.rho(), s.mc), s.packet)
        assert rec["avg_blocklength_mc"] == avgs.avg_blocklength
        assert rec["avg_blocklength_mc_se"] == avgs.avg_blocklength_se
        _, out, _ = run(capsys, "mc", "--N", "64", "--phase", "2bit",
                        "--set", "n_samples=2000")
        assert list(csv_record(out))[-3:] == [
            "avg_blocklength_mc", "avg_blocklength_mc_se", "seed"]

    def test_mc_fits_once(self, capsys, monkeypatch):
        # the KS distance is a metric at the record's one fit
        calls = []

        def counted(*args):
            calls.append(args[1])
            return fit_snr(*args)

        monkeypatch.setattr(experiments, "fit_snr", counted)
        code, _, _ = run(capsys, "mc", "--N", "64", "--set", "n_samples=200")
        assert (code, calls) == (0, [64])

    def test_mc_at_low_snr(self, capsys):
        # SNR samples far below 1e-16, where log2(1 + gamma) reads 0
        code, out, err = run(capsys, "mc", "--N", "1", "--set", "n_samples=2000",
                             "--set", "tx_power_db=-120")
        assert code == 0
        assert math.isfinite(float(csv_record(out)["avg_blocklength_mc"]))
        assert err == ""

    def test_mc_blocklength_tracks_closed_form(self, capsys):
        # one element: the SNR density is positive at 0, where the per-sample
        # root grows like 1 / gamma and its mean does not settle
        _, out, _ = run(capsys, "mc", "--N", "1")
        mc = float(csv_record(out)["avg_blocklength_mc"])
        _, out, _ = run(capsys, "blocklength", "--N", "1")
        assert mc == pytest.approx(float(csv_record(out)["avg_blocklength"]),
                                   rel=0.10)


class TestRecordText:
    """The exact bytes of a one-row record: floats with 17 significant
    digits, every other value as ``str``, keys in the record's order."""

    @pytest.mark.parametrize("argv,text", [
        (("validate", "--seed", "7"), "n_elements,valid,seed\n512,True,7\n"),
        # more digits than ".17g" keeps
        (("validate", "--seed", "18446744073709551615"),
         "n_elements,valid,seed\n512,True,18446744073709551615\n"),
        (("validate", "--seed", "7", "--format", "json"),
         '{\n  "n_elements": 512,\n  "seed": 7,\n  "valid": true\n}\n'),
    ], ids=("csv", "csv-long-int", "json"))
    def test_validate(self, capsys, argv, text):
        assert run(capsys, *argv) == (0, text, "")

    def test_fit_row(self, capsys):
        gains = link_gains(Geometry(), direct_link=False)
        m = moments_X(gains, 189, Perfect())
        fit = fit_snr(gains, 189, Perfect(), snr_scale(RadioConfig()))
        values = (m.m1, m.m2, fit.shape, fit.rate, fit.mean,
                  10.0 * math.log10(fit.mean))
        assert run(capsys, "fit", "--N", "189", "--no-direct") == (0, (
            "n_elements,m1,m2,shape,rate,snr_mean,snr_mean_db,seed\n"
            + ",".join(["189", *(format(v, ".17g") for v in values),
                        "20260824"]) + "\n"), "")


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

    def test_set_overrides_a_db_key_of_the_file(self, tmp_path, capsys):
        # the file is read whole, its dB key included, before --set overrides
        # the linear key
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tx_power_db": -10}))
        alone = run(capsys, "fit", "--N", "16", "--set", "tx_power=0.5")
        assert alone[0] == 0
        assert run(capsys, "fit", "--N", "16", "--config", str(cfg),
                   "--set", "tx_power=0.5") == alone

    def test_db_key_of_set_overrides_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tx_power": 0.5}))
        tenth = run(capsys, "fit", "--N", "16", "--set", "tx_power=0.1")
        assert tenth[0] == 0
        assert run(capsys, "fit", "--N", "16", "--config", str(cfg),
                   "--set", "tx_power_db=-10") == tenth

    @pytest.mark.parametrize("layer", [
        {"tx_power": 0.5, "tx_power_db": -3},
        {"noise_density_db": -204, "noise_density": 4e-21},
    ], ids=("tx_power", "noise_density"))
    def test_key_and_its_db_key_in_one_layer(self, tmp_path, capsys, layer):
        # ambiguous in one file or in one set of --set flags: exit 3; across
        # layers the later one wins
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(layer))
        sets = [a for k, v in layer.items() for a in ("--set", f"{k}={v}")]
        for argv in (("--config", str(cfg)), sets):
            code, out, err = run(capsys, "validate", *argv)
            assert code == EXIT_CONFIG and out == ""
            assert err.startswith("error: config:") and "both given" in err

    def test_seed_flag_propagates(self, capsys):
        _, out, _ = run(capsys, "validate", "--seed", "777")
        assert csv_record(out)["seed"] == "777"

    def test_phase_flag_forms(self, capsys):
        for flag in ("perfect", "1bit", "3bit", "uniform:0.25", "uniform:0.5"):
            assert run(capsys, "validate", "--phase", flag)[0] == 0
        # a uniform phase error names its spread, and a label's digits are
        # ASCII ones
        for flag in ("sideways", "quantized", "0bit", "uniform0.5", "uniform",
                     "\uff12bit", "\u0662bit", "uniform:\uff10.\uff12\uff15"):
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
        assert side["scenario"]["seed"] == 7

    def test_figure_json_to_stdout(self, capsys):
        code, out, _ = run(capsys, "figure", "fig8",
                           "--set", "n_samples=500", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["figure_id"] == "fig8"
        assert "sqrt_dispersion" in payload["columns"]

    def test_figure_json_carries_the_csv_hash(self, tmp_path, capsys):
        # a figure's JSON names the SHA-256 of its CSV text and the versions,
        # as the CSV's sidecar does for the same scenario
        args = ("figure", "fig8", "--set", "n_samples=500")
        code, _, _ = run(capsys, *args, "--format", "json",
                         "--output", str(tmp_path / "f.json"))
        assert code == 0
        code, _, _ = run(capsys, *args, "--output", str(tmp_path / "f.csv"))
        assert code == 0
        payload = json.loads((tmp_path / "f.json").read_text())
        side = json.loads((tmp_path / "f.csv.json").read_text())
        csv = csv_text(payload["columns"])
        assert csv == (tmp_path / "f.csv").read_text()
        assert payload["sha256"] == hashlib.sha256(csv.encode()).hexdigest()
        assert payload["sha256"] == side["sha256"]
        assert payload["versions"] == side["versions"]


# run in a fresh interpreter, as this one has loaded scipy for the tests
COLD_START = textwrap.dedent("""
    import contextlib, io, sys
    import risfbl, risfbl.cli
    risfbl.ScenarioConfig()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [risfbl.cli.main(["validate"]),
                 risfbl.cli.main(["fit", "--N", "256"])]
    assert codes == [0, 0], codes
    assert "scipy" not in sys.modules, "loaded before any special function"
    values = risfbl.inv_q(1e-9), risfbl.gamma_cdf(300.0, 1.0, 290.0)
    assert "scipy.special" in sys.modules
    from scipy import special
    assert values == (-special.ndtri(1e-9), special.gammainc(300.0, 290.0)), values
""")


def test_scipy_loads_at_the_first_special_function():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", COLD_START],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
