"""Command-line interface, driven in process through ``cli.main``."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import olreg
import oracles
from olreg import OnlineLedger, batch_predict, load_matrix
from olreg.cli import main

TRAIN_LINES = "x1,y\n1,2.01\n2,2.99\n3,4.01\n4,4.99\n"


def run(argv):
    return main([str(a) for a in argv])


def test_gen_writes_header_and_rows(tmp_path):
    out = tmp_path / "train.csv"
    assert run(["gen", "--seed", 3, "--n", 8, "--k", 2, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,y"
    assert len(lines) == 9
    matrix = load_matrix(out)
    assert matrix.shape == (8, 3)


def test_gen_with_no_rows_writes_only_the_header(tmp_path):
    out = tmp_path / "empty.csv"
    assert run(["gen", "--n", 0, "--k", 3, "--out", out]) == 0
    assert out.read_text() == "x1,x2,x3,y\n"
    assert load_matrix(out).shape == (0, 0)


def test_gen_is_deterministic(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["gen", "--seed", 9, "--n", 5, "--k", 4, "--out", first])
    run(["gen", "--seed", 9, "--n", 5, "--k", 4, "--out", second])
    assert first.read_text() == second.read_text()


def test_predict_matches_the_classical_interval(tmp_path, capsys):
    train = tmp_path / "train.csv"
    train.write_text(TRAIN_LINES)
    test = tmp_path / "test.csv"
    test.write_text("x1\n0\n10\n")
    out = tmp_path / "bounds"
    code = run(
        ["predict", "--model", "gauss", "--train", train, "--test", test,
         "--epsilons", "0.05,0.2", "--out", out]
    )
    assert code == 0
    assert capsys.readouterr().out == "code 0\n"
    lower = load_matrix(f"{out}_lower.csv")
    upper = load_matrix(f"{out}_upper.csv")
    assert lower.shape == upper.shape == (2, 2)
    header = (tmp_path / "bounds_lower.csv").read_text().splitlines()[0]
    assert header == "level_0.2,level_0.05"
    x_train = np.array([[1.0], [2.0], [3.0], [4.0]])
    y_train = np.array([2.01, 2.99, 4.01, 4.99])
    for i, x in enumerate((0.0, 10.0)):
        for j, eps in enumerate((0.2, 0.05)):
            low, high = oracles.pivot_interval(x_train, y_train, [x], eps)
            assert lower[i, j] == pytest.approx(low, abs=1e-9)
            assert upper[i, j] == pytest.approx(high, abs=1e-9)
    # the 0.05 column contains the 0.2 column
    assert np.all(lower[:, 1] <= lower[:, 0])
    assert np.all(upper[:, 1] >= upper[:, 0])


def test_predict_feature_count_mismatch(tmp_path, capsys):
    train = tmp_path / "train.csv"
    train.write_text(TRAIN_LINES)
    test = tmp_path / "test.csv"
    test.write_text("x1,x2\n0,0\n")
    out = tmp_path / "bounds"
    code = run(
        ["predict", "--model", "gauss", "--train", train, "--test", test, "--out", out]
    )
    assert code == 1
    assert capsys.readouterr().out == "code 1\n"
    assert not (tmp_path / "bounds_lower.csv").exists()
    assert not (tmp_path / "bounds_upper.csv").exists()


def test_predict_with_too_little_training_data(tmp_path, capsys):
    train = tmp_path / "train.csv"
    train.write_text("x1,y\n1,1\n2,2\n3,3\n")
    test = tmp_path / "test.csv"
    test.write_text("x1\n5\n6\n")
    out = tmp_path / "bounds"
    code = run(
        ["predict", "--model", "iid", "--train", train, "--test", test,
         "--epsilons", "0.05", "--out", out]
    )
    assert code == 2
    assert capsys.readouterr().out == "code 2\n"
    lower = load_matrix(f"{out}_lower.csv")
    upper = load_matrix(f"{out}_upper.csv")
    assert np.all(lower == -math.inf) and lower.shape == (2, 1)
    assert np.all(upper == math.inf)


@pytest.mark.parametrize(
    "model,extra,features,rows",
    [
        ("mva", ["--ridge", "0"], 5, 4),  # too few rows for the ridge-0 fit
        ("mva", ["--ridge", "0"], 5, 5),  # every residual is exactly zero
        ("iidgauss", ["--epsilons", "0.05"], 50, 30),  # below K + 2 observations
    ],
)
def test_predict_below_the_model_onset_writes_full_lines(
    tmp_path, capsys, model, extra, features, rows
):
    train = tmp_path / "train.csv"
    run(["gen", "--seed", 4, "--n", rows, "--k", features, "--out", train])
    test = tmp_path / "test.csv"
    test.write_text("\n".join(",".join(["0.5"] * features) for _ in range(3)) + "\n")
    out = tmp_path / "bounds"
    code = run(
        ["predict", "--model", model, "--train", train, "--test", test, "--out", out]
        + extra
    )
    assert code == 2
    assert capsys.readouterr().out == "code 2\n"
    lower = load_matrix(f"{out}_lower.csv")
    upper = load_matrix(f"{out}_upper.csv")
    assert lower.shape[0] == 3
    assert np.all(lower == -math.inf) and np.all(upper == math.inf)


def test_predict_on_an_empty_test_file(tmp_path, capsys):
    train = tmp_path / "train.csv"
    train.write_text(TRAIN_LINES)
    test = tmp_path / "test.csv"
    test.write_text("x1\n")
    out = tmp_path / "bounds"
    assert run(
        ["predict", "--model", "gauss", "--train", train, "--test", test, "--out", out]
    ) == 0
    assert capsys.readouterr().out == "code 0\n"
    assert (tmp_path / "bounds_lower.csv").read_text() == "level_0.05,level_0.01\n"


def test_duplicate_levels_are_a_usage_error(tmp_path, capsys):
    train = tmp_path / "train.csv"
    train.write_text(TRAIN_LINES)
    test = tmp_path / "test.csv"
    test.write_text("x1\n0\n")
    code = run(
        ["predict", "--model", "iid", "--train", train, "--test", test,
         "--epsilons", "0.05,0.05", "--out", tmp_path / "bounds"]
    )
    assert code == 2
    assert "duplicate" in capsys.readouterr().err


def test_bad_schedule_flag_is_a_usage_error(tmp_path, capsys):
    train = tmp_path / "train.csv"
    train.write_text(TRAIN_LINES)
    test = tmp_path / "test.csv"
    test.write_text("x1\n0\n")
    code = run(
        ["predict", "--model", "iid", "--train", train, "--test", test,
         "--schedule", "nope", "--out", tmp_path / "bounds"]
    )
    assert code == 2
    assert "schedule" in capsys.readouterr().err


def test_negative_mc_samples_is_a_usage_error_before_any_output(tmp_path, capsys):
    data = tmp_path / "data.csv"
    run(["gen", "--seed", 4, "--n", 30, "--k", 2, "--out", data])
    test = tmp_path / "test.csv"
    test.write_text("x1,x2\n0.5,-0.5\n")
    predict = ["predict", "--model", "iidgauss", "--train", data, "--test", test,
               "--out", tmp_path / "bounds"]
    online = ["online", "--model", "iidgauss", "--data", data,
              "--out-prefix", tmp_path / "run"]
    for argv in (predict, online):
        assert run(argv + ["--mc-samples", "-5"]) == 2
        captured = capsys.readouterr()
        assert "samples must be a nonnegative integer" in captured.err
        assert captured.out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["data.csv", "test.csv"]


@pytest.mark.parametrize("ridge", ["-1", "inf", "nan"])
@pytest.mark.parametrize("model", ["iid", "mva", "iidgauss", "gauss"])
def test_invalid_ridge_is_a_usage_error(tmp_path, capsys, model, ridge):
    data = tmp_path / "data.csv"
    run(["gen", "--seed", 4, "--n", 40, "--k", 3, "--out", data])
    test = tmp_path / "test.csv"
    test.write_text("x1,x2,x3\n0.5,-0.5,1\n")
    predict = ["predict", "--model", model, "--train", data, "--test", test,
               "--out", tmp_path / "bounds"]
    online = ["online", "--model", model, "--data", data, "--out-prefix", tmp_path / "run"]
    for argv in (predict, online):
        assert run(argv + ["--ridge", ridge, "--mc-samples", 9]) == 2
        assert "ridge must be nonnegative and finite" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["gauss", "full"])
def test_gauss_and_full_check_the_ridge_but_ignore_it(tmp_path, capsys, model):
    # a valid ridge or schedule leaves the run as it is; an invalid ridge
    # exits 2 before any file is written
    data = tmp_path / "data.csv"
    run(["gen", "--seed", 4, "--n", 40, "--k", 3, "--out", data])
    ledgers = []
    for i, flags in enumerate(([], ["--ridge", "0"], ["--ridge", "5", "--schedule", "none"])):
        prefix = tmp_path / f"run{i}"
        argv = ["online", "--model", model, "--data", data, "--out-prefix", prefix]
        assert run(argv + flags) == 0
        ledgers.append((tmp_path / f"run{i}_ledger.json").read_text())
    assert ledgers[1:] == ledgers[:1] * 2
    for ridge in ("-1", "nan"):
        argv = ["online", "--model", model, "--data", data, "--out-prefix", tmp_path / "bad"]
        assert run(argv + ["--ridge", ridge]) == 2
        assert "ridge must be nonnegative and finite" in capsys.readouterr().err
    assert not any(path.name.startswith("bad") for path in tmp_path.iterdir())


def test_monte_carlo_samples_must_be_a_nonnegative_integer():
    for samples in (-1, 2.5, 10.0, True, "9"):
        with pytest.raises(ValueError, match="nonnegative integer"):
            olreg.MonteCarloConfig(samples=samples)
    assert olreg.MonteCarloConfig(samples=np.int64(7)).samples == 7
    assert olreg.MonteCarloConfig(samples=0).samples == 0


def test_unknown_model_exits_through_the_parser(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        run(["predict", "--model", "cauchy", "--train", "x", "--test", "y", "--out", "z"])
    assert info.value.code == 2
    capsys.readouterr()


def test_missing_input_file(tmp_path, capsys):
    code = run(
        ["predict", "--model", "iid", "--train", tmp_path / "absent.csv",
         "--test", tmp_path / "absent.csv", "--out", tmp_path / "bounds"]
    )
    assert code == 10
    assert "error" in capsys.readouterr().err


def test_rank_deficient_training_design(tmp_path, capsys):
    train = tmp_path / "train.csv"
    rows = ["x1,x2,y"] + [f"{v},{v},{2 * v}" for v in (1.0, 2.5, 3.0, 4.5, 6.0)]
    train.write_text("\n".join(rows) + "\n")
    test = tmp_path / "test.csv"
    test.write_text("x1,x2\n1,1\n")
    code = run(
        ["predict", "--model", "gauss", "--train", train, "--test", test,
         "--epsilons", "0.2", "--out", tmp_path / "bounds"]
    )
    assert code == 11
    assert "error" in capsys.readouterr().err


def test_rank_deficient_history_message_advises_a_ridge_only_where_it_helps(tmp_path, capsys):
    # x2 = x1 in the history: every model exits 11, and only the models
    # that take a ridge are told to use one (gauss validates it and fits
    # by least squares whatever its value)
    rng = np.random.default_rng(0)
    x = rng.normal(size=20)
    train, test = tmp_path / "collinear.csv", tmp_path / "collinear_test.csv"
    np.savetxt(train, np.column_stack([x, x, x + rng.normal(size=20)]), delimiter=",",
               header="x1,x2,y", comments="")
    np.savetxt(test, rng.normal(size=(15, 2)), delimiter=",", header="x1,x2", comments="")
    messages = {}
    for model in ("gauss", "iid", "mva"):
        code = run(["predict", "--model", model, "--ridge", 0, "--train", train,
                    "--test", test, "--out", tmp_path / f"bounds_{model}"])
        assert code == 11
        messages[model] = capsys.readouterr().err.strip()
    assert messages["gauss"] == (
        "error: design is rank deficient; the least-squares fit needs a full-rank design"
    )
    for model in ("iid", "mva"):
        assert messages[model] == "error: design is rank deficient; use a positive ridge coefficient"


@pytest.mark.parametrize("cell", [(2, 0), (3, 2)])
def test_predict_on_a_non_finite_training_value_is_an_error(tmp_path, capsys, cell):
    rows = [[float(i), float(i * i % 7), 2.0 * i + 1.0] for i in range(12)]
    rows[cell[0]][cell[1]] = math.inf
    train = tmp_path / "train.csv"
    train.write_text("x1,x2,y\n" + "".join(",".join(map(str, row)) + "\n" for row in rows))
    test = tmp_path / "test.csv"
    test.write_text("x1,x2\n1,1\n")
    for model in ("iid", "gauss"):
        code = run(
            ["predict", "--model", model, "--train", train, "--test", test,
             "--epsilons", "0.2", "--out", tmp_path / "bounds"]
        )
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "bounds_lower.csv").exists()


@pytest.mark.parametrize("model", ["iid", "gauss", "mva", "iidgauss"])
def test_batch_predict_of_no_test_rows(model):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(30, 2))
    y = x.sum(axis=1) + rng.normal(size=30)
    result = batch_predict(x, y, np.empty((0, 2)), (0.2, 0.1, 0.05), model=model)
    assert result.code == 0
    assert result.lower.shape == result.upper.shape == (0, 3)


@pytest.mark.parametrize("model", ["iid", "gauss", "mva", "iidgauss"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_predict_on_a_non_finite_test_value_is_an_error(tmp_path, capsys, model, value):
    # the bad value sits in the second block of test rows
    rng = np.random.default_rng(22)
    x = rng.normal(size=(30, 2))
    y = x.sum(axis=1) + rng.normal(size=30)
    test = rng.normal(size=(15, 2))
    test[13, 1] = value
    mc = olreg.MonteCarloConfig(samples=19)
    with pytest.raises(ValueError, match="explanatory components must be finite"):
        batch_predict(x, y, test, (0.2,), model=model, mc=mc)
    train_path, test_path = tmp_path / "train.csv", tmp_path / "test.csv"
    np.savetxt(train_path, np.column_stack([x, y]), delimiter=",", header="x1,x2,y", comments="")
    np.savetxt(test_path, test, delimiter=",", header="x1,x2", comments="")
    code = run(
        ["predict", "--model", model, "--train", train_path, "--test", test_path,
         "--epsilons", "0.2", "--mc-samples", 19, "--out", tmp_path / "bounds"]
    )
    assert code == 2
    assert "explanatory components must be finite" in capsys.readouterr().err
    assert not (tmp_path / "bounds_lower.csv").exists()


def test_batch_predict_columns_follow_the_ladder():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    result = batch_predict(x, y, x[:3], (0.2, 0.1, 0.05), model="gauss")
    assert result.code == 0
    assert result.lower.shape == (3, 3)
    for i in range(3):
        assert list(result.lower[i]) == sorted(result.lower[i], reverse=True)
        assert list(result.upper[i]) == sorted(result.upper[i])


def test_online_writes_series_and_ledger(tmp_path):
    data = tmp_path / "data.csv"
    run(["gen", "--seed", 2, "--n", 40, "--k", 2, "--out", data])
    prefix = tmp_path / "run"
    code = run(
        ["online", "--model", "iid", "--data", data, "--epsilons", "0.2,0.1",
         "--ridge", "0.01", "--schedule", "none", "--out-prefix", prefix]
    )
    assert code == 0
    errors_lines = (tmp_path / "run_cumulative_errors.csv").read_text().splitlines()
    assert errors_lines[0] == "n,level_0.2,level_0.1"
    assert len(errors_lines) == 41
    medians_lines = (tmp_path / "run_median_accuracy.csv").read_text().splitlines()
    assert medians_lines[0] == "n,level_0.2,level_0.1"
    assert medians_lines[1].split(",")[1] == "inf"  # first interval is a full line
    ledger = json.loads((tmp_path / "run_ledger.json").read_text())
    assert ledger["levels"] == [0.2, 0.1]
    assert len(ledger["errors"][0]) == 40
    assert ledger["pvalues"] is None


@pytest.mark.parametrize("model", ["iid", "mva"])
@pytest.mark.parametrize("schedule", ["auto", "none"])
def test_ridge_zero_online_run_completes(tmp_path, capsys, model, schedule):
    # the first steps have no more rows than columns: they abstain with
    # full lines instead of ending the run as rank deficient (exit 11)
    data = tmp_path / "data.csv"
    run(["gen", "--seed", 5, "--n", 30, "--k", 4, "--out", data])
    prefix = tmp_path / "run"
    code = run(
        ["online", "--model", model, "--data", data, "--ridge", "0",
         "--schedule", schedule, "--smoothed", "--out-prefix", prefix]
    )
    assert code == 0, capsys.readouterr().err
    ledger = json.loads((tmp_path / "run_ledger.json").read_text())
    assert len(ledger["errors"][0]) == 30
    assert all(row[:5] == ["inf"] * 5 for row in ledger["lengths"])


@pytest.mark.parametrize("model", ["iid", "mva", "gauss", "iidgauss", "full"])
def test_intercept_only_online_run_at_defaults(tmp_path, capsys, model):
    # K = 0: the default "auto" schedule has nothing to stage, so the run
    # is the one with no schedule
    data = tmp_path / "data.csv"
    assert run(["gen", "--n", 30, "--k", 0, "--out", data]) == 0
    for schedule in ("auto", "none"):
        code = run(["online", "--model", model, "--data", data, "--schedule", schedule,
                    "--out-prefix", tmp_path / schedule])
        assert code == 0, capsys.readouterr().err
    for suffix in ("_cumulative_errors.csv", "_median_accuracy.csv", "_ledger.json"):
        auto = (tmp_path / f"auto{suffix}").read_bytes()
        assert auto == (tmp_path / f"none{suffix}").read_bytes()
    assert len(json.loads(auto)["errors"][0]) == 30


def test_online_smoothed_run_is_reproducible(tmp_path):
    data = tmp_path / "data.csv"
    run(["gen", "--seed", 6, "--n", 25, "--k", 1, "--out", data])
    for prefix in (tmp_path / "one", tmp_path / "two"):
        assert run(
            ["online", "--model", "gauss", "--data", data, "--epsilons", "0.1",
             "--schedule", "none", "--smoothed", "--seed", 17,
             "--out-prefix", prefix]
        ) == 0
    one = json.loads((tmp_path / "one_ledger.json").read_text())
    two = json.loads((tmp_path / "two_ledger.json").read_text())
    assert one == two
    assert one["smoothed"] is True
    assert len(one["pvalues"]) == 25


def test_online_full_line_model_never_errs(tmp_path):
    data = tmp_path / "data.csv"
    run(["gen", "--seed", 1, "--n", 10, "--k", 1, "--out", data])
    prefix = tmp_path / "full"
    assert run(
        ["online", "--model", "full", "--data", data, "--out-prefix", prefix]
    ) == 0
    ledger = json.loads((tmp_path / "full_ledger.json").read_text())
    assert all(bit == 0 for row in ledger["errors"] for bit in row)
    assert all(v == "inf" for row in ledger["lengths"] for v in row)


def test_report_from_a_saved_ledger(tmp_path):
    data = tmp_path / "data.csv"
    run(["gen", "--seed", 7, "--n", 60, "--k", 1, "--out", data])
    prefix = tmp_path / "run"
    run(
        ["online", "--model", "gauss", "--data", data, "--epsilons", "0.2",
         "--schedule", "none", "--smoothed", "--out-prefix", prefix]
    )
    out = tmp_path / "report.json"
    assert run(["report", "--ledger", tmp_path / "run_ledger.json", "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["steps"] == 60
    assert report["smoothed"] is True
    level = report["levels"][0]
    assert set(level) == {
        "epsilon", "error_count", "error_frequency", "band_low", "band_high",
        "within_band", "conservative", "lag1_autocorrelation",
    }
    assert 0.0 <= report["pvalue_ks_statistic"] <= 1.0
    assert run(["report", "--ledger", tmp_path / "missing.json", "--out", out]) == 10


def saved_ledger(tmp_path) -> dict:
    """The ledger of a short smoothed run at two levels, as JSON data."""
    data = tmp_path / "data.csv"
    run(["gen", "--seed", 7, "--n", 30, "--k", 1, "--out", data])
    run(["online", "--model", "iid", "--data", data, "--epsilons", "0.2,0.1",
         "--smoothed", "--out-prefix", tmp_path / "run"])
    return json.loads((tmp_path / "run_ledger.json").read_text())


def without(payload: dict, *keys) -> dict:
    return {key: value for key, value in payload.items() if key not in keys}


# one malformed ledger per way a ledger used to crash ``report`` or be misread
MALFORMED_LEDGERS = {
    "no-smoothed": lambda good: without(good, "smoothed"),
    "a-list": lambda good: [good],
    "empty-errors": lambda good: {**good, "errors": []},
    "empty-lengths": lambda good: {**good, "lengths": []},
    "empty-levels": lambda good: {**good, "levels": []},
    "no-steps": lambda good: {**good, "errors": [[], []], "lengths": [[], []], "pvalues": []},
    "ragged-errors": lambda good: {**good, "errors": [good["errors"][0], good["errors"][1][:-1]]},
    "non-numeric-length": lambda good: {
        **good, "lengths": [["wide"] + good["lengths"][0][1:], good["lengths"][1]]
    },
    "three-error-rows-for-one-level": lambda good: {
        **good, "levels": good["levels"][:1], "lengths": good["lengths"][:1],
        "errors": good["errors"] + good["errors"][:1],
    },
    "non-bit-error": lambda good: {
        **good, "errors": [[2] + good["errors"][0][1:], good["errors"][1]]
    },
    "short-pvalues": lambda good: {**good, "pvalues": good["pvalues"][:-1]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LEDGERS))
def test_report_on_a_malformed_ledger_is_a_file_error(tmp_path, capsys, case):
    ledger = tmp_path / "bad_ledger.json"
    ledger.write_text(json.dumps(MALFORMED_LEDGERS[case](saved_ledger(tmp_path))))
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert run(["report", "--ledger", ledger, "--out", out]) == 10
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not out.exists()


def test_a_saved_ledger_round_trips_exactly(tmp_path):
    good = saved_ledger(tmp_path)
    assert OnlineLedger.from_dict(good).to_dict() == good
    # ledgers without p-values, deterministic runs and older files alike,
    # are still read
    for payload in ({**good, "pvalues": None, "tie_breaks": None},
                    without(good, "pvalues", "tie_breaks")):
        ledger = OnlineLedger.from_dict(payload)
        assert ledger.trace is None
        assert np.array_equal(ledger.lengths, OnlineLedger.from_dict(good).lengths)
        ledger_file = tmp_path / "plain_ledger.json"
        ledger_file.write_text(json.dumps(payload))
        out = tmp_path / "plain_report.json"
        assert run(["report", "--ledger", ledger_file, "--out", out]) == 0
        assert json.loads(out.read_text())["pvalue_ks_statistic"] is None


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats takes about as long to import as everything else together,
    # and only the validity diagnostics use it
    source = str(Path(olreg.__file__).resolve().parent.parent)
    path = os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, olreg.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"


def test_python_dash_m_runs_the_command(tmp_path):
    # the package imports olreg.cli, so only a __main__ module runs without
    # the "found in sys.modules" RuntimeWarning
    source = str(Path(olreg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "train.csv"
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "olreg",
         "gen", "--n", "4", "--k", "2", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert out.read_text().splitlines()[0] == "x1,x2,y"
