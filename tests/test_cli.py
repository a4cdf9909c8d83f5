"""Command-line interface: outputs, determinism, exit codes."""

import csv
import io
import json
import math
import warnings

import pytest

from lossgeom.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_log(capsys):
    code, out, _ = run_cli(capsys, "eval", "--loss", "log", "--p", "0.5,0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["bayes_risk"] == pytest.approx(math.log(2), abs=1e-12)
    assert payload["loss_vector"] == pytest.approx([math.log(2)] * 2, abs=1e-12)


def test_eval_cnorm_negative_gauge_exponent(capsys):
    # cnorm:a=0.999 has the gauge exponent a/(a-1) = -999
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "eval", "--loss", "cnorm:a=0.999", "--p", "0.3,0.7")
    assert code == 0
    payload = json.loads(out)
    assert payload["bayes_risk"] == pytest.approx(0.3, rel=1e-15)
    assert payload["loss_vector"] == pytest.approx([1.0, 0.0], abs=1e-15)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_eval_non_integer_dimension_is_usage_error(capsys, value):
    code, _, err = run_cli(capsys, "eval", "--loss", f"log:n={value}", "--p", "0.5,0.5")
    assert code == 2
    assert "n must be an integer >= 2" in err and "^" in err


def test_eval_writes_infinite_loss_as_inf(capsys):
    code, out, _ = run_cli(capsys, "eval", "--loss", "log", "--p=0,1")
    assert code == 0
    assert json.loads(out)["loss_vector"] == ["inf", 0.0]


def test_eval_brier_formula(capsys):
    code, out, _ = run_cli(capsys, "eval", "--loss", "brier", "--p", "0.4,0.6")
    payload = json.loads(out)
    assert payload["loss_vector"] == pytest.approx([0.72, 0.32], abs=1e-12)


def test_eval_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "--loss", "cnorm:a=0", "--p", "0.5,0.5")
    assert code == 2
    assert "exponent" in err


def test_antipolar_brier(capsys):
    code, out, _ = run_cli(capsys, "antipolar", "--loss", "brier", "--x", "0.5,0.5")
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(1.0, abs=1e-8)


def test_antipolar_zeroone_numeric_tag(capsys):
    code, out, _ = run_cli(capsys, "antipolar", "--loss", "zeroone", "--x", "0.3,0.7")
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(1.0, abs=1e-8)
    assert payload["method"] == "closed_form"


def test_antipolar_log_near_zero_coordinate(capsys):
    code, out, _ = run_cli(capsys, "antipolar", "--loss", "log", "--x", "1e-300,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(1.4614601088436294e-3, rel=1e-14)
    assert all(math.isfinite(v) for v in payload["minimizer"])


def test_antipolar_cobb_douglas_closed_form(capsys):
    code, out, _ = run_cli(capsys, "antipolar", "--loss", "cd:a=1,1", "--x", "0.5,0.5")
    payload = json.loads(out)
    assert payload["method"] == "closed_form"
    assert payload["value"] == pytest.approx(1.0, abs=1e-12)  # 2 * psi(0.5, 0.5)


def test_boundary_rows(capsys):
    code, out, _ = run_cli(
        capsys, "boundary", "--loss", "log", "--resolution", "3"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,l1,l2"
    mid = lines[2].split(",")
    assert float(mid[0]) == pytest.approx(0.5)
    assert float(mid[1]) == pytest.approx(math.log(2), abs=1e-9)


def test_boundary_brier_uniform_row(capsys):
    code, out, _ = run_cli(
        capsys, "boundary", "--loss", "brier", "--resolution", "3"
    )
    mid = out.strip().split("\n")[2].split(",")
    assert float(mid[1]) == pytest.approx(0.5, abs=1e-12)
    assert float(mid[2]) == pytest.approx(0.5, abs=1e-12)


def test_boundary_norm_loss_uniform_row(capsys):
    code, out, _ = run_cli(
        capsys, "boundary", "--loss", "normloss:alpha=2", "--resolution", "3"
    )
    mid = out.strip().split("\n")[2].split(",")
    assert float(mid[1]) == pytest.approx(1.0, abs=1e-9)
    assert float(mid[2]) == pytest.approx(1.0, abs=1e-9)


def test_boundary_rejects_higher_dimensions(capsys):
    code, _, err = run_cli(capsys, "boundary", "--loss", "log:n=3")
    assert code == 2


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--loss", "log", "--resolution", "15"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True


def test_verify_failure_exit_code(capsys):
    # an unattainable tolerance forces a red report and exit code 1
    code, out, _ = run_cli(
        capsys, "verify", "--loss", "log", "--resolution", "10", "--tol", "-1"
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize(
    "args",
    [
        ("substitute", "--loss", "zeroone:n=3", "--x=0.1,1.2,1.1"),
        ("verify", "--loss", "log", "--resolution", "10"),
    ],
    ids=lambda args: args[0],
)
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_is_usage_error(capsys, monkeypatch, args, tol):
    import lossgeom.cli as cli

    def no_work(*a, **k):
        raise AssertionError("ran before rejecting the tolerance")

    monkeypatch.setattr(cli, "verify_all", no_work)
    monkeypatch.setattr(cli, "substitute", no_work)
    code, out, err = run_cli(capsys, *args, f"--tol={tol}")
    assert code == 2 and out == ""
    assert "--tol must be a finite number" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_weightfn_non_finite_p1_is_usage_error(capsys, value):
    code, out, err = run_cli(capsys, "weightfn", "--loss", "log", "--p", value)
    assert code == 2 and out == ""
    assert "p1 must be a finite number in (0, 1)" in err


def test_verify_large_loss_entries_pass(capsys):
    # cnorm with a = -0.25 reaches loss entries of about 5e3 on this grid,
    # where rounding alone moves an entry by more than 1e-12
    code, out, _ = run_cli(capsys, "verify", "--loss", "cnorm:a=-0.25,n=4")
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--loss", "log", "--p", "nan,1"),
        ("eval", "--loss", "log", "--p", "inf,1"),
        ("bayes", "--loss", "log", "--p=-1,2"),
    ],
)
def test_non_finite_output_is_usage_error(capsys, argv):
    # NaN input is rejected; a NaN or -inf result has no strict JSON form
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("spec", ["log", "brier", "cnorm:a=0.5", "cnorm:a=-1", "cd:a=1,2", "const"])
def test_antipolar_rejects_infinite_input(capsys, spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "antipolar", "--loss", spec, "--x=inf,1")
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_verify_composition(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--loss",
        "msum:combiner=const;parts=log,brier",
        "--resolution",
        "12",
    )
    assert code == 0


def test_verify_dual_composition_relaxed_tolerances(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--loss",
        "msum:combiner=zeroone;parts=log,log;mode=dual",
        "--resolution",
        "12",
    )
    assert code == 0
    payload = json.loads(out)
    properness = [c for c in payload["checks"] if c["check_name"] == "properness"][0]
    assert properness["tol"] == pytest.approx(1e-4)  # numeric-pipeline default


_MIN_DUAL = "msum:combiner=cnorm:a=1;parts=log,brier;mode=dual"
_HARMONIC_DUAL = "msum:combiner=cnorm:a=0.5;parts=log,brier;mode=dual"


@pytest.mark.parametrize("resolution", ["10", "25"])
def test_verify_min_combiner_dual_passes(capsys, resolution):
    # the optimum lies on the ridge of the minimum combiner
    code, out, _ = run_cli(
        capsys, "verify", "--loss", _MIN_DUAL, "--resolution", resolution
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_compose_dual_extreme_scale(capsys):
    code, out, _ = run_cli(capsys, "compose", "--loss", _HARMONIC_DUAL, "--p", "1e300,1e300")
    assert code == 0
    huge = json.loads(out)
    code, out, _ = run_cli(capsys, "compose", "--loss", _HARMONIC_DUAL, "--p", "1,1")
    unit = json.loads(out)
    assert huge["loss_vector"] == unit["loss_vector"]
    assert huge["bayes_risk"] == pytest.approx(1e300 * unit["bayes_risk"], rel=1e-15)


def test_compose_dual_boundary_point_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "compose", "--loss", _HARMONIC_DUAL, "--p", "1,0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_normalize_log(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--loss", "log")
    payload = json.loads(out)
    assert payload["coefficient"] == pytest.approx(1.442695, abs=1e-6)
    assert payload["maximizer"] == pytest.approx([0.5, 0.5], abs=1e-9)


def test_shiftmax_argmax(capsys):
    code, out, _ = run_cli(
        capsys, "shiftmax", "--loss", "log", "--p0", "0.25,0.75",
        "--resolution", "200",
    )
    payload = json.loads(out)
    assert payload["grid_argmax"][0] == pytest.approx(0.25, abs=0.006)
    assert payload["loss_at_p0"] == pytest.approx([1.0, 1.0], abs=1e-10)


def test_bregman_kl(capsys):
    code, out, _ = run_cli(
        capsys, "bregman", "--loss", "log", "--p", "0.5,0.5", "--q", "0.25,0.75"
    )
    payload = json.loads(out)
    assert payload["bregman"] == pytest.approx(0.143841, abs=1e-6)


def test_substitute_dominance(capsys):
    code, out, _ = run_cli(capsys, "substitute", "--loss", "log", "--x", "0.8,0.8")
    payload = json.loads(out)
    assert all(
        l <= x + 1e-6 for l, x in zip(payload["loss_at_p"], payload["x"])
    )


def test_weightfn(capsys):
    code, out, _ = run_cli(capsys, "weightfn", "--loss", "cd:a=1,1", "--p", "0.5")
    payload = json.loads(out)
    assert payload["weight"] == pytest.approx(2.0, abs=1e-5)


@pytest.mark.parametrize(
    "args",
    [
        ("eval", "--loss", "log", "--p", "0.3,0.7"),
        ("bayes", "--loss", "cnorm:a=-1", "--p", "0.2,0.3,0.5"),
        ("antipolar", "--loss", "brier", "--x", "0.7,0.3"),
        ("boundary", "--loss", "log", "--resolution", "5", "--format", "json"),
        ("verify", "--loss", "brier", "--resolution", "6"),
        ("normalize", "--loss", "log:n=3"),
        ("shiftmax", "--loss", "log", "--p0", "0.25,0.75", "--resolution", "20"),
        ("compose", "--loss", "msum:combiner=const;parts=log,brier", "--p", "0.4,0.6"),
        ("bregman", "--loss", "log", "--p", "0.5,0.5", "--q", "0.25,0.75"),
        ("substitute", "--loss", "log", "--x", "0.8,0.8"),
        ("weightfn", "--loss", "cd:a=1,1", "--p", "0.5"),
        ("eval", "--loss", "brier:n=3", "--p", "0.2,0.3,0.5", "--format", "csv"),
    ],
    ids=lambda args: args[0] + ("-csv" if "csv" in args else ""),
)
def test_outputs_bit_identical_across_runs(capsys, args):
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    if "--format" in args and "csv" in args:
        return
    payload = json.loads(out1)
    if args[0] == "verify":
        assert set(payload) == {"loss", "resolution", "pass", "checks"}
    else:
        assert {"command", "loss", "seed"} <= set(payload)
        assert payload["command"] == args[0] and payload["seed"] == 0


def test_substitute_vertex_prediction(capsys):
    code, out, _ = run_cli(capsys, "substitute", "--loss", "brier:n=3", "--x=0,2,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == [1.0, 0.0, 0.0]
    assert payload["loss_at_p"] == [0.0, 2.0, 2.0]


@pytest.mark.parametrize("spec", ["cnorm:a=0.5", "cd:a=1,1"])
def test_antipolar_at_a_zero_coordinate(capsys, spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "antipolar", "--loss", spec, "--x=0,1")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["minimizer"] == [1.0, 0.0] and payload["certified_gap"] == 0.0
    assert payload["antipolar_loss_vector"][0] == "inf"


def test_resolved_spec_round_trips(capsys):
    _, out, _ = run_cli(capsys, "eval", "--loss", "CNORM:a=-1", "--p", "0.4,0.6")
    payload = json.loads(out)
    code, out2, _ = run_cli(capsys, "eval", "--loss", payload["loss"], "--p", "0.4,0.6")
    assert code == 0
    assert json.loads(out2)["loss_vector"] == payload["loss_vector"]


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--loss", "log", "--p", "0.5,0.5", "--format", "csv"
    )
    assert code == 0
    lines = dict(
        (line.split(",", 1)[0], line.split(",", 1)[1]) for line in out.strip().split("\n")
    )
    # 12 significant digits, '.' decimal separator, LF endings
    assert lines["bayes_risk"] == f"{math.log(2):.12g}"
    assert float(lines["bayes_risk"]) == pytest.approx(math.log(2), abs=1e-12)
    assert "\r" not in out


def test_verify_csv_is_one_row_per_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--loss", "brier:n=3", "--format", "csv")
    assert code == 0
    _, text, _ = run_cli(capsys, "verify", "--loss", "brier:n=3")
    report = json.loads(text)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[:4] == [
        ["loss", "brier:n=3"], ["pass", "True"], ["resolution", "25"],
        ["check_name", "pass", "worst_violation", "tol"],
    ]
    assert len(rows) == 4 + len(report["checks"])
    for row, check in zip(rows[4:], report["checks"]):
        assert row[:2] == [check["check_name"], str(check["pass"])]
        assert float(row[2]) == pytest.approx(check["worst_violation"], rel=1e-11, abs=0.0)
        assert float(row[3]) == check["tol"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "eval", "--loss", "log", "--p", "0.5,0.5", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "eval"
