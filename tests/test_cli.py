"""End-to-end CLI tests driving cli.main() directly."""

import io
import json

import pytest

from bytecode_energy import cli, diagnostics, inference
from bytecode_energy.errors import DataError
from bytecode_energy.ingest import CSV_HEADER

TRUTH = {
    "alpha": {"load": 3e-10},
    "beta": {"negation": 2.1e-8, "modulo": 2.4e-8},
    "gamma": {"int": 1e-10, "long": 7e-9, "float": 1.4e-9, "double": 6.7e-9},
    "delta": {"device1": 6.7e-9, "device2": 5e-11},
    "sigma": 1.36e-8,
    "seed": 21,
    "baseline_energy": 2e-9,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    truth_path = path / "truth.json"
    truth_path.write_text(json.dumps(TRUTH), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def measurements(workdir):
    out = workdir / "measurements.csv"
    rc = cli.main(["simulate", "--truth", str(workdir / "truth.json"),
                   "--out", str(out), "--cycles", "4", "--samples", "3"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def fitted_model(workdir, measurements):
    out = workdir / "model.json"
    rc = cli.main(["fit", "--measurements", str(measurements),
                   "--out", str(out), "--chains", "4",
                   "--warmup", "500", "--draws", "500", "--seed", "11",
                   "--save-draws"])
    assert rc == 0, _gate_report(out)
    return out


def _gate_report(model_path):
    """The written model's gate failures and its worst R-hat and ESS."""
    if not model_path.exists():
        return "no model was written"
    obj = json.loads(model_path.read_text(encoding="utf-8"))
    sampled = {name: s for name, s in obj["summaries"].items()
               if s["rhat"] is not None}
    worst_rhat = max(sampled, key=lambda name: sampled[name]["rhat"])
    worst_ess = min(sampled, key=lambda name: sampled[name]["ess"])
    return (f"gate failures {obj['meta']['gate_failures']}; "
            f"max R-hat {sampled[worst_rhat]['rhat']:.4f} ({worst_rhat}); "
            f"min ESS {sampled[worst_ess]['ess']:.0f} ({worst_ess})")


def test_catalog_lists_all_triples(capsys):
    assert cli.main(["catalog"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 174
    assert "addition:int:bits32" in lines


def test_catalog_json(capsys):
    assert cli.main(["catalog", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 174


def test_classify_file(workdir, capsys):
    src = workdir / "statements.txt"
    src.write_text("lconst_1 lstore_1\niload_1 ldc iadd istore_2\n",
                   encoding="utf-8")
    assert cli.main(["classify", str(src)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["variable_declaration:long:constant",
                     "addition:int:bits32"]


def test_classify_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("iinc 1 5\n"))
    assert cli.main(["classify", "-"]) == 0
    assert capsys.readouterr().out.strip() == "increase:int:constant"


def test_classify_device_manifest_json(workdir, capsys):
    src = workdir / "trace.txt"
    src.write_text("lconst_1 lstore_1\nlconst_1 lstore_1\n", encoding="utf-8")
    assert cli.main(["classify", str(src), "--device", "device1",
                     "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"variable_declaration:long:constant@device1": 2}


def test_classify_unknown_statement_exits_1(workdir, capsys):
    src = workdir / "bad.txt"
    src.write_text("xyzzy\n", encoding="utf-8")
    assert cli.main(["classify", str(src)]) == 1
    assert "error" in capsys.readouterr().err


def test_simulate_is_byte_identical_per_seed(workdir):
    outs = []
    for name in ("sim_a.csv", "sim_b.csv"):
        out = workdir / name
        rc = cli.main(["simulate", "--truth", str(workdir / "truth.json"),
                       "--out", str(out), "--cycles", "2", "--samples", "2",
                       "--seed", "33"])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("text, expected", [
    ("{not json", "is not a JSON truth file"),
    (json.dumps({k: v for k, v in TRUTH.items() if k != "beta"}), '"beta"'),
    (json.dumps([TRUTH]), "must be a JSON object"),
    (json.dumps({**TRUTH, "sigma": "small"}), '"sigma"'),
], ids=["not_json", "no_beta", "array", "text_sigma"])
def test_simulate_bad_truth_file_exits_1(workdir, capsys, text, expected):
    path = workdir / "bad_truth.json"
    path.write_text(text, encoding="utf-8")
    _assert_error_exit(["simulate", "--truth", str(path),
                        "--out", str(workdir / "nope.csv")], capsys,
                       expected)


@pytest.mark.parametrize("command, option", [
    ("prior-check", "--n"), ("simulate", "--samples"),
    ("simulate", "--cycles"),
], ids=["prior-check-n=-1", "simulate-samples=-1", "simulate-cycles=-1"])
def test_negative_count_exits_1(workdir, capsys, command, option):
    argv = [command, option, "-1"]
    if command == "simulate":
        argv += ["--truth", str(workdir / "truth.json"),
                 "--out", str(workdir / "nope.csv")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option[2:] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["fit", "predict", "classify"])
def test_non_utf8_input_file_exits_1(workdir, capsys, command):
    path = workdir / f"not_utf8_{command}.txt"
    path.write_bytes(",".join(CSV_HEADER).encode() + b"\ndevice1,\xff\n")
    argv = {
        "fit": ["fit", "--measurements", str(path),
                "--out", str(workdir / "nope.json")],
        "predict": ["predict", "--model", cli.BUNDLED_MODEL,
                    "--program", str(path)],
        "classify": ["classify", str(path)],
    }[command]
    _assert_error_exit(argv, capsys, f"{path} is not UTF-8 text")


def test_fit_writes_converged_model(fitted_model):
    obj = json.loads(fitted_model.read_text(encoding="utf-8"))
    assert obj["meta"]["converged"] is True
    assert obj["meta"]["converged"] == all(
        row["pass"]
        for row in diagnostics.report(cli.load_model(str(fitted_model))))
    assert obj["meta"]["chains"] == 4
    assert "draws" in obj  # --save-draws was passed
    assert set(obj["levels"]) == {"alpha", "beta", "gamma", "delta"}


def test_fit_recovers_operation_contrast(fitted_model):
    model = cli.load_model(str(fitted_model))
    contrast = (model.mean_mu(("load", "modulo", "int", "device1"))
                - model.mean_mu(("load", "negation", "int", "device1")))
    # true contrast is beta difference: 3e-9; allow generous sampling slack
    assert abs(contrast - 3e-9) < 4e-9


@pytest.mark.parametrize("option, value", [
    ("--chains", "1"), ("--draws", "3"), ("--draws", "-1"), ("--warmup", "-1"),
], ids=["chains=1", "draws=3", "draws=-1", "warmup=-1"])
def test_fit_argument_out_of_range_exits_1(measurements, workdir, capsys,
                                           option, value):
    rc = cli.main(["fit", "--measurements", str(measurements),
                   "--out", str(workdir / "nope.json"), option, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option[2:] in err
    assert "Traceback" not in err


def test_fit_unknown_device_filter_exits_1(measurements, workdir):
    rc = cli.main(["fit", "--measurements", str(measurements),
                   "--out", str(workdir / "nope.json"),
                   "--device", "device9"])
    assert rc == 1


def test_fit_missing_baseline_exits_1(workdir, capsys):
    csv_path = workdir / "nobaseline.csv"
    rows = [",".join(CSV_HEADER),
            "device1,addition:int:constant,0,0,5.6,0.1,0.1006,10000000"]
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc = cli.main(["fit", "--measurements", str(csv_path),
                   "--out", str(workdir / "nope.json")])
    assert rc == 1
    assert "baseline" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [
    [], ["device1,BASELINE,0,0,5.6,0.01,0.1006,10000000"],
], ids=["header-only", "baselines-only"])
def test_fit_file_without_pattern_records_exits_1(workdir, capsys, rows):
    csv_path = workdir / "nopatterns.csv"
    csv_path.write_text("\n".join([",".join(CSV_HEADER), *rows]) + "\n",
                        encoding="utf-8")
    _assert_error_exit(["fit", "--measurements", str(csv_path),
                        "--out", str(workdir / "nope.json")], capsys,
                       f"{csv_path} holds no pattern records")


@pytest.mark.parametrize("field, value", [
    ("iterations", "1" + "0" * 400), ("iterations", "9" * 5000),
    ("voltage_v", "x" * 5000), ("pattern", "x" * 5000),
], ids=["400-digit-count", "5000-digit-count", "5000-char-voltage",
        "5000-char-pattern"])
def test_fit_long_bad_value_gives_short_error_line(workdir, capsys, field,
                                                   value):
    good = "device1,addition:int:constant,0,0,5.6,0.1,0.1006,10000000"
    row = dict(zip(CSV_HEADER, good.split(",")))
    row[field] = value
    csv_path = workdir / "long_value.csv"
    csv_path.write_text("\n".join([",".join(CSV_HEADER), good,
                                   ",".join(row.values())]) + "\n",
                        encoding="utf-8")
    assert cli.main(["fit", "--measurements", str(csv_path),
                     "--out", str(workdir / "nope.json")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    line, = err.splitlines()
    assert line.startswith("error: row 3: ") and field in line
    assert len(line) < 200


def test_fit_data_error_in_a_worker_exits_1(measurements, workdir,
                                            monkeypatch, capsys):
    def fail(self, log_sd, log_sigma):
        raise DataError("location block unavailable")

    monkeypatch.setattr(inference._Model, "location_system", fail)
    monkeypatch.setattr(inference, "_available_cpus", lambda: 2)
    rc = cli.main(["fit", "--measurements", str(measurements),
                   "--out", str(workdir / "nope.json"), "--chains", "2",
                   "--warmup", "5", "--draws", "5"])
    assert rc == 1
    assert "location block unavailable" in capsys.readouterr().err


def test_fit_non_converged_exits_2(measurements, workdir):
    rc = cli.main(["fit", "--measurements", str(measurements),
                   "--out", str(workdir / "short.json"),
                   "--chains", "2", "--warmup", "0", "--draws", "8"])
    assert rc == 2


def test_diagnose_bundled_model(capsys):
    assert cli.main(["diagnose", cli.BUNDLED_MODEL]) == 0
    out = capsys.readouterr().out
    assert "sigma" in out
    assert "2.954780e-08" in out  # stored mean rendered verbatim


def test_diagnose_bundled_json_matches_store(bundled_json, capsys):
    assert cli.main(["diagnose", cli.BUNDLED_MODEL, "--json"]) == 0
    rows = {r["parameter"]: r for r in json.loads(capsys.readouterr().out)}
    stored = bundled_json["summaries"]
    assert rows.keys() == stored.keys()
    for name, s in stored.items():
        for field in ("mean", "mcse", "sd", "ess", "rhat"):
            assert rows[name][field] == s[field], (name, field)


def test_diagnose_fitted_model(fitted_model, capsys):
    assert cli.main(["diagnose", str(fitted_model)]) == 0
    assert "gates: pass" in capsys.readouterr().out


def test_diagnose_missing_file_exits_1(workdir):
    assert cli.main(["diagnose", str(workdir / "missing.json")]) == 1


def _assert_error_exit(argv, capsys, expected=""):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert expected in err
    return err


def _not_json(obj):
    return json.dumps(obj)[:-1]


def _no_levels(obj):
    del obj["levels"]
    return json.dumps(obj)


def _text_mean(obj):
    obj["summaries"]["sigma"]["mean"] = "abc"
    return json.dumps(obj)


def _text_mean_summary_only(obj):
    del obj["draws"]
    return _text_mean(obj)


def _text_chains(obj):
    obj["meta"]["chains"] = "x"
    return json.dumps(obj)


def _list_chains(obj):
    obj["meta"]["chains"] = [1]
    return json.dumps(obj)


@pytest.mark.parametrize("corrupt", [_not_json, _no_levels, _text_mean,
                                     _text_mean_summary_only, _text_chains,
                                     _list_chains])
def test_diagnose_bad_model_file_exits_1(fitted_model, workdir, capsys,
                                         corrupt):
    obj = json.loads(fitted_model.read_text(encoding="utf-8"))
    path = workdir / f"bad{corrupt.__name__}.json"
    path.write_text(corrupt(obj), encoding="utf-8")
    _assert_error_exit(["diagnose", str(path)], capsys)


def test_predict_model_without_sigma_exits_1(bundled_json, workdir, capsys):
    obj = json.loads(json.dumps(bundled_json))
    del obj["summaries"]["sigma"]
    path = workdir / "no_sigma.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    manifest = workdir / "program.txt"
    manifest.write_text("1 variable_declaration:long:constant@device2\n",
                        encoding="utf-8")
    _assert_error_exit(["predict", "--model", str(path),
                        "--program", str(manifest)], capsys,
                       "sigma is not a model parameter")


def test_predict_bundled_cross_module_consistency(workdir, bundled_model,
                                                  capsys):
    manifest = workdir / "program.txt"
    manifest.write_text("1 variable_declaration:long:constant@device2\n",
                        encoding="utf-8")
    rc = cli.main(["predict", "--model", cli.BUNDLED_MODEL,
                   "--program", str(manifest), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    key = ("constant", "variable_declaration", "long", "device2")
    assert payload["mean_j"] == bundled_model.mean_mu(key)
    assert payload["sd_j"] == bundled_model.sigma_mean()


def test_predict_median_quantile_equals_mean(workdir, capsys):
    manifest = workdir / "program.txt"
    manifest.write_text("1 variable_declaration:long:constant@device2\n",
                        encoding="utf-8")
    rc = cli.main(["predict", "--model", cli.BUNDLED_MODEL,
                   "--program", str(manifest), "--quantiles", "0.5",
                   "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["quantiles_j"]["0.5"] == pytest.approx(payload["mean_j"],
                                                          rel=1e-12)


@pytest.mark.parametrize("quantiles", ["0.5,abc", "0.5,,0.9"])
def test_predict_non_numeric_quantiles_exit_1(workdir, capsys, quantiles):
    manifest = workdir / "program.txt"
    manifest.write_text("1 variable_declaration:long:constant@device2\n",
                        encoding="utf-8")
    _assert_error_exit(["predict", "--model", cli.BUNDLED_MODEL,
                        "--program", str(manifest), "--quantiles",
                        quantiles], capsys)


def test_predict_with_fitted_model(fitted_model, workdir, capsys):
    manifest = workdir / "fit_program.txt"
    manifest.write_text("2 negation:int:load@device1\n"
                        "1 modulo:long:load@device2\n", encoding="utf-8")
    rc = cli.main(["predict", "--model", str(fitted_model),
                   "--program", str(manifest), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    truth = (2 * (3e-10 + 2.1e-8 + 1e-10 + 6.7e-9)
             + (3e-10 + 2.4e-8 + 7e-9 + 5e-11))
    assert abs(payload["mean_j"] - truth) < 3 * payload["sd_j"]


def test_predict_malformed_manifest_exits_1(workdir, capsys):
    manifest = workdir / "bad_program.txt"
    manifest.write_text("1 garbage\n", encoding="utf-8")
    rc = cli.main(["predict", "--model", cli.BUNDLED_MODEL,
                   "--program", str(manifest)])
    assert rc == 1
    assert "line 1" in capsys.readouterr().err


def test_predict_count_beyond_float_range_exits_1(workdir, capsys):
    manifest = workdir / "huge_count.txt"
    manifest.write_text("1" + "0" * 400 + " addition:int:constant@device1\n",
                        encoding="utf-8")
    _assert_error_exit(["predict", "--model", cli.BUNDLED_MODEL,
                        "--program", str(manifest)], capsys,
                       "line 1: count 100000")


@pytest.mark.parametrize("command, text, expected", [
    ("classify", "x" * 5000, "unsupported mnemonic 'xxx"),
    ("predict", "1 addition:int:constant@" + "d" * 5000,
     "'delta[ddd"),
], ids=["5000-char-statement", "5000-char-device"])
def test_long_input_value_gives_short_error_line(workdir, capsys, command,
                                                 text, expected):
    path = workdir / "long_value.txt"
    path.write_text(text + "\n", encoding="utf-8")
    argv = (["classify", str(path)] if command == "classify" else
            ["predict", "--model", cli.BUNDLED_MODEL, "--program", str(path)])
    line, = _assert_error_exit(argv, capsys, expected).splitlines()
    assert len(line) < 200


def test_predict_unknown_device_exits_1(workdir, capsys):
    manifest = workdir / "unknown_device.txt"
    manifest.write_text("1 addition:int:bits32@device9\n", encoding="utf-8")
    _assert_error_exit(["predict", "--model", cli.BUNDLED_MODEL,
                        "--program", str(manifest)], capsys,
                       "delta[device9] is not a model parameter")


def test_prior_check_reports_range(capsys):
    assert cli.main(["prior-check", "--n", "20000", "--seed", "1",
                     "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 20000
    assert payload["fraction_in_0_to_50_mj"] >= 0.99
    assert 0.023 < payload["mean_j"] < 0.025
