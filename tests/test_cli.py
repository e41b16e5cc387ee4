"""Command-line front end: exit codes, JSON output shape, determinism,
file handling and the suite runner."""
import copy
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import merokit
from merokit.cli import USAGE_EXIT, main
from merokit.series import LaurentSeries

PARAMS = {"lambda": 1.0, "mu": 0.0, "m": 1, "p": 1, "alpha": 0.5, "beta": 1.0}

# subprocesses import merokit from this checkout's sources
SRC = str(Path(__file__).resolve().parents[1] / "src")
SUITE_INPUTS = Path(__file__).resolve().parents[1] / "suites" / "inputs"
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture()
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(PARAMS))
    return path


def series_file(tmp_path, name, pole, trunc, coeffs, exact=True):
    obj = {
        "pole_order": pole,
        "trunc_order": trunc,
        "coeffs": [[float(c), 0.0] for c in coeffs],
    }
    if exact:
        obj["exact_support"] = True
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


# ------------------------------------------------------------------ bare verbs

def test_phi_prints_plain_value(capsys):
    code, out, err = run(
        capsys, "phi", "--lambda", "1", "--mu", "0", "--m", "1", "--p", "1", "--k", "1"
    )
    assert code == 0 and out == "3\n" and err == ""


def test_missing_flag_is_usage_error(capsys):
    code, out, err = run(capsys, "phi", "--lambda", "1")
    assert code == USAGE_EXIT
    assert err.startswith("error:") and out == ""


def test_unknown_verb_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == USAGE_EXIT and "error:" in err


def test_nbhd_delta_prints_plain_value(capsys, params_file):
    code, out, _ = run(capsys, "nbhd", "delta", "--params", params_file)
    assert code == 0 and out == "0.5\n"


def test_nbhd_degenerate_delta_prints_zero_without_a_warning(capsys, tmp_path):
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps({**PARAMS, "lambda": 0.0, "m": 0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "nbhd", "delta", "--params", path)
    assert (code, out, err) == (0, "0\n", "")


def test_nbhd_requires_series_except_delta(capsys, params_file):
    code, _, err = run(capsys, "nbhd", "verify-plus", "--params", params_file)
    assert code == USAGE_EXIT and "--series" in err


# ------------------------------------------------------------------- bad input

def test_malformed_json_names_the_file(capsys, tmp_path, params_file):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    f = series_file(tmp_path, "f.json", 1, 2, [0, 0, 0])
    code, _, err = run(
        capsys, "check", "--criterion", "exact", "--params", bad, "--series", f
    )
    assert code == USAGE_EXIT
    assert "broken.json" in err and "invalid JSON" in err


def test_missing_series_field_reports_path(capsys, tmp_path, params_file):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"pole_order": 1, "coeffs": []}))
    code, _, err = run(
        capsys, "check", "--criterion", "exact", "--params", params_file, "--series", f
    )
    assert code == USAGE_EXIT and "series.trunc_order" in err


def test_domain_violation_maps_to_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad_params.json"
    bad.write_text(json.dumps({**PARAMS, "mu": 2.0}))
    f = series_file(tmp_path, "f.json", 1, 2, [0, 0, 0])
    code, _, err = run(
        capsys, "check", "--criterion", "exact", "--params", bad, "--series", f
    )
    assert code == USAGE_EXIT and "mu" in err


@pytest.mark.parametrize(
    "doc, key, value",
    [
        ("series", "exact_support", "false"),
        ("series", "pole_order", 1.0),
        ("series", "trunc_order", 2.5),
        ("series", "coeffs", [[True, False], [0.0, 0.0], [0.0, 0.0]]),
        ("params", "m", 1.7),
        ("params", "p", True),
        ("grid", "angles_count", 16.0),
        ("series", "coeffs", [[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0]]),
        ("params", "alpha", float("inf")),
        ("grid", "margin", float("inf")),
    ],
)
def test_json_reader_refuses_coercion(capsys, tmp_path, doc, key, value):
    docs = {
        "params": dict(PARAMS),
        "series": {
            "pole_order": 1, "trunc_order": 2, "coeffs": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]],
        },
        "grid": {"radii": [0.5], "angles_count": 16},
    }

    def check():
        paths = {}
        for name, obj in docs.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(obj))
        return run(
            capsys, "check", "--criterion", "numeric", "--params", paths["params"],
            "--series", paths["series"], "--grid", paths["grid"],
        )

    assert check()[0] != USAGE_EXIT
    docs[doc][key] = value
    code, out, err = check()
    assert code == USAGE_EXIT and out == ""
    assert f"{doc}.{key}" in err


def test_missing_file_is_usage_error(capsys, params_file, tmp_path):
    code, _, err = run(
        capsys, "check", "--criterion", "exact",
        "--params", params_file, "--series", tmp_path / "nope.json",
    )
    assert code == USAGE_EXIT and "nope.json" in err


# -------------------------------------------------------------- gen and check

def test_gen_extremal_then_check_exact_holds(capsys, params_file, tmp_path):
    code, out, _ = run(capsys, "gen", "extremal", "--params", params_file, "--n", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["certificate"]["construction"] == "extremal"
    assert obj["certificate"]["coefficient"] == pytest.approx(1 / 9)
    member = tmp_path / "member.json"
    member.write_text(out)
    code, out, _ = run(
        capsys, "check", "--criterion", "exact", "--params", params_file, "--series", member
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "holds"
    assert rep["config"]["criterion"] == "exact"
    assert rep["config"]["operator"]["m"] == 1


def test_gen_output_is_loadable_series(capsys, params_file):
    _, out, _ = run(capsys, "gen", "extremal", "--params", params_file, "--n", "1")
    f = LaurentSeries.from_json_dict(json.loads(out))
    assert f.pole_order == 1
    assert f.coeff(1).real == pytest.approx(1 / 9)
    assert f.exact_support


def test_gen_herglotz_certificate(capsys, params_file, tmp_path):
    atoms = tmp_path / "atoms.json"
    atoms.write_text(json.dumps({"atoms": [[[1.0, 0.0], 1.0]]}))
    code, out, _ = run(
        capsys, "gen", "herglotz", "--params", params_file, "--atoms", atoms, "--trunc", "8"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["certificate"]["beta"] == 1.0
    assert obj["config"]["trunc_order"] == 8
    LaurentSeries.from_json_dict(obj)


def test_gen_schwarz_certificate(capsys, params_file, tmp_path):
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"coeffs": [[0.5, 0.0]]}))
    code, out, _ = run(
        capsys, "gen", "schwarz", "--params", params_file, "--w", w, "--trunc", "8"
    )
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["cauchy_bound_ok"] is True
    assert cert["boundary_max"] < 1.0


def test_gen_missing_input_flag(capsys, params_file):
    code, _, err = run(capsys, "gen", "herglotz", "--params", params_file)
    assert code == USAGE_EXIT and "--atoms" in err


def test_check_exact_failure_exit_code(capsys, params_file, tmp_path):
    over = series_file(tmp_path, "over.json", 1, 2, [0.0, 0.2, 0.0])
    code, out, _ = run(
        capsys, "check", "--criterion", "exact", "--params", params_file, "--series", over
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "fails"


def test_check_sufficient_inconclusive_exit_code(capsys, params_file, tmp_path):
    big = series_file(tmp_path, "big.json", 1, 1, [0.0, 10.0])
    code, out, _ = run(
        capsys, "check", "--criterion", "sufficient",
        "--params", params_file, "--series", big,
    )
    assert code == 2
    assert json.loads(out)["verdict"] == "inconclusive"


def test_check_subordination_fails_with_a_finite_margin_where_rho_is_huge(capsys, params_file, tmp_path):
    """v = z F = 1 + 1e200 z (the operator doubles a_0 = 5e199) at c = 2p(1 - alpha) = 1,
    so rho = |v|^{1/c} is about 1e200 on the outer circles, where (1 - rho)^2 overflows
    a float.  The margin 1 - |w| is still finite, about -0.95e200, and the check fails
    with it (exit 1), without a numpy warning."""
    huge = series_file(tmp_path, "huge-rho.json", 1, 0, [5e199])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(
            capsys, "check", "--criterion", "subordination", "--params", params_file, "--series", huge
        )
    rep = json.loads(out)
    assert (code, rep["verdict"]) == (1, "fails")
    assert -1e201 < rep["worst_margin"] < -1e199


#: f = 1/z + 2 under the identity operator at alpha = 1/4, beta = 1: the defining inequality
#: is 2|z| < |1.5 + z|, false at z = -0.7, so f is not in the class.  Its coefficient at k = 0
#: lies where k + p(2 alpha - 1) < 0 (ROADMAP item 11)
OUTSIDE_PARAMS = {"lambda": 0, "mu": 0, "m": 0, "p": 1, "alpha": 0.25, "beta": 1}
OUTSIDE_SERIES = {"pole_order": 1, "trunc_order": 0, "coeffs": [[2.0, 0.0]], "exact_support": True}


def _check_outside(capsys, tmp_path, criterion):
    params, series = tmp_path / "params.json", tmp_path / "series.json"
    params.write_text(json.dumps(OUTSIDE_PARAMS))
    series.write_text(json.dumps(OUTSIDE_SERIES))
    code, out, _ = run(capsys, "check", "--criterion", criterion, "--params", params, "--series", series)
    return code, json.loads(out)


def test_sufficient_does_not_hold_outside_the_class(capsys, tmp_path):
    code, rep = _check_outside(capsys, tmp_path, "numeric")
    assert (code, rep["verdict"]) == (1, "fails") and rep["worst_margin"] < 0
    code, rep = _check_outside(capsys, tmp_path, "sufficient")
    assert (code, rep["verdict"], rep["worst_margin"]) == (2, "inconclusive", -1.5)
    assert "sub-modulus weight at k=[0]" in rep["detail"] and "modulus bracket" in rep["detail"]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 11: exact_membership_plus still sums with the signed bracket "
    "k(beta + 1) + p(1 + beta(2 alpha - 1)), so it says holds (margin 0.5) for this f",
)
def test_exact_does_not_hold_outside_the_class(capsys, tmp_path):
    code, rep = _check_outside(capsys, tmp_path, "exact")
    assert rep["verdict"] != "holds" and code != 0


def test_check_numeric_reports_grid_digest(capsys, params_file, tmp_path):
    member = series_file(tmp_path, "m.json", 1, 2, [0.0, 1 / 18, 0.0])
    code, out, _ = run(
        capsys, "check", "--criterion", "numeric", "--params", params_file, "--series", member
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["grid_digest"] == rep["detail"].split("grid=")[1][:12]


# ----------------------------------------------------------------- apply verb

def test_apply_integral_requires_c(capsys, params_file, tmp_path):
    f = series_file(tmp_path, "f.json", 1, 2, [0.5, 0.25, 0.0])
    code, _, err = run(
        capsys, "apply", "--params", params_file, "--series", f, "--route", "integral"
    )
    assert code == USAGE_EXIT and "--c" in err


def test_apply_routes_agree_through_files(capsys, params_file, tmp_path):
    f = series_file(tmp_path, "f.json", 1, 3, [0.5, 0.25, 0.0, 0.1])
    _, out_c, _ = run(
        capsys, "apply", "--params", params_file, "--series", f, "--route", "coeff"
    )
    _, out_d, _ = run(
        capsys, "apply", "--params", params_file, "--series", f, "--route", "differential"
    )
    gc = LaurentSeries.from_json_dict(json.loads(out_c))
    gd = LaurentSeries.from_json_dict(json.loads(out_d))
    assert gc.coeffs == pytest.approx(gd.coeffs, abs=1e-10)
    assert json.loads(out_c)["config"]["route"] == "coeff"


def test_apply_out_flag_writes_file(capsys, params_file, tmp_path):
    f = series_file(tmp_path, "f.json", 1, 2, [0.5, 0.0, 0.0])
    dest = tmp_path / "applied.json"
    code, out, _ = run(
        capsys, "apply", "--params", params_file, "--series", f,
        "--route", "invert", "--out", dest,
    )
    assert code == 0 and out == ""
    obj = json.loads(dest.read_text())
    assert obj["config"]["route"] == "invert"


# -------------------------------------------------------------- verify + nbhd

def test_verify_partial_sums_requires_cut(capsys, params_file, tmp_path):
    f = series_file(tmp_path, "f.json", 1, 2, [0.0, 0.0, 0.0])
    code, _, err = run(
        capsys, "verify", "partial-sums", "--params", params_file, "--series", f
    )
    assert code == USAGE_EXIT and "--m-cut" in err


def test_verify_distortion_smoke(capsys, params_file, tmp_path):
    f = series_file(tmp_path, "f.json", 1, 2, [0.5, 0.0, 0.0])
    code, out, _ = run(
        capsys, "verify", "distortion", "--params", params_file, "--series", f,
        "--r", "0.5", "--which", "f_plus",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["tail_mode"] == "exact_support"
    assert rep["verdict"] == "holds"


def test_verify_conv_smoke(capsys, params_file, tmp_path):
    f = series_file(tmp_path, "f.json", 1, 2, [0.0, 0.0, 0.0])
    code, out, _ = run(capsys, "verify", "conv-nonvanish", "--params", params_file, "--series", f)
    assert code == 0
    assert "theta_count" not in json.loads(out)["config"]


def test_nbhd_verify_plus_smoke(capsys, params_file, tmp_path):
    f = series_file(tmp_path, "f.json", 1, 2, [0.2, 0.0, 0.0])
    code, out, _ = run(capsys, "nbhd", "verify-plus", "--params", params_file, "--series", f)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "holds" and rep["detail"].startswith("closed form: ")
    assert "seed" not in rep["config"] and "trials" not in rep["config"]


def test_nbhd_distance_prints_number(capsys, params_file, tmp_path):
    f = series_file(tmp_path, "f.json", 1, 1, [0.0, 0.0])
    g = series_file(tmp_path, "g.json", 1, 1, [0.0, 0.1])
    code, out, _ = run(
        capsys, "nbhd", "distance", "--params", params_file,
        "--series", f, "--other", g,
    )
    assert code == 0
    # plus weight at k=1 is 9, so the gap 0.1 scales to 0.9
    assert float(out) == pytest.approx(0.9)


# --------------------------------------------------------------- determinism

def test_output_is_byte_deterministic(capsys, params_file, tmp_path):
    member = series_file(tmp_path, "m.json", 1, 2, [0.0, 1 / 18, 0.0])
    argv = ("check", "--criterion", "numeric", "--params", params_file, "--series", member)
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    assert out1.endswith("\n")
    assert json.loads(out1)  # valid JSON with sorted keys
    assert out1 == json.dumps(json.loads(out1), indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------- suite runner

def write_suite(tmp_path, items):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"items": items}))
    return path


def test_report_runs_suite_with_relative_paths(capsys, params_file, tmp_path):
    series_file(tmp_path, "member.json", 1, 2, [0.0, 1 / 9, 0.0])
    suite = write_suite(tmp_path, [
        {
            "id": "exact-on-extremal",
            "argv": ["check", "--criterion", "exact",
                     "--params", "params.json", "--series", "member.json"],
            "expect": "holds",
        },
        {
            "id": "multiplier-value",
            "argv": ["phi", "--lambda", "1", "--mu", "0", "--m", "1", "--p", "1", "--k", "2"],
            "expect": 0,
        },
    ])
    code, out, err = run(capsys, "report", "--suite", suite)
    assert code == 0
    agg = json.loads(out)
    assert agg["all_expected"] is True
    assert [r["id"] for r in agg["items"]] == ["exact-on-extremal", "multiplier-value"]
    assert agg["items"][0]["verdict"] == "holds"
    assert agg["items"][1]["output"] == 4  # bare "4" parses as a JSON number
    assert "2/2 items as expected" in err


def test_report_isolates_broken_item(capsys, params_file, tmp_path):
    series_file(tmp_path, "member.json", 1, 2, [0.0, 0.0, 0.0])
    suite = write_suite(tmp_path, [
        {"id": "bad-flags", "argv": ["phi", "--lambda", "1"], "expect": 64},
        # argparse would print the help text where the report's JSON goes
        {"id": "help", "argv": ["phi", "--help"], "expect": 64},
        {
            "id": "still-runs",
            "argv": ["check", "--criterion", "exact",
                     "--params", "params.json", "--series", "member.json"],
            "expect": "holds",
        },
    ])
    code, out, _ = run(capsys, "report", "--suite", suite)
    assert code == 0
    agg = json.loads(out)
    assert agg["all_expected"] is True
    assert agg["items"][0]["exit_code"] == 64
    assert "error" in agg["items"][0]
    assert agg["items"][1]["exit_code"] == 64 and agg["items"][1]["output"] is None
    assert "error" in agg["items"][1]


def test_report_expectation_mismatch_fails(capsys, params_file, tmp_path):
    series_file(tmp_path, "over.json", 1, 2, [0.0, 0.2, 0.0])
    suite = write_suite(tmp_path, [
        {
            "id": "wrongly-expected-pass",
            "argv": ["check", "--criterion", "exact",
                     "--params", "params.json", "--series", "over.json"],
            "expect": "holds",
        },
    ])
    code, out, err = run(capsys, "report", "--suite", suite)
    assert code == 1
    agg = json.loads(out)
    assert agg["all_expected"] is False
    assert agg["items"][0]["verdict"] == "fails"
    assert "0/1 items as expected" in err


def test_report_rejects_nested_report(capsys, tmp_path):
    inner = write_suite(tmp_path, [])
    suite = tmp_path / "outer.json"
    suite.write_text(json.dumps({"items": [
        {"id": "nested", "argv": ["report", "--suite", str(inner)]},
    ]}))
    code, out, _ = run(capsys, "report", "--suite", suite)
    assert code == 1
    item = json.loads(out)["items"][0]
    assert item["exit_code"] == 64 and "nested" in item["error"]


def test_report_item_that_is_not_an_object(capsys, tmp_path):
    suite = write_suite(tmp_path, [5])
    code, out, _ = run(capsys, "report", "--suite", suite)
    assert code == 1
    item = json.loads(out)["items"][0]
    assert item["exit_code"] == 64 and item["error"] == "suite item: expected an object"


def test_verify_general_certified_without_trials_holds(capsys, tmp_path):
    """A certified neighborhood needs no neighbor checked: it holds (exit 0) at
    its least certified margin, witnessed by a grid point."""
    _inputs(tmp_path)
    argv = ["nbhd", "verify-general", *_PS, "--delta", "0.001"]
    code, out, err = run(capsys, *_located(tmp_path, argv))
    rep = json.loads(out)
    assert code == 0 and err == ""
    assert rep["verdict"] == "holds" and rep["worst_margin"] > 0 and len(rep["witness"]) == 2
    assert rep["detail"].startswith("every neighbor certified at every grid point; ")


def test_verify_general_without_trials_is_inconclusive(capsys, tmp_path):
    """Where the certificate does not close and no constructed neighbor leaves the
    class, nothing is shown about the neighborhood: exit 2.  For a double-pole member
    at alpha = 1/2, beta = 1 the general weight at k = 1 - p is zero, so the phase
    (b) bound is infinite (no certified margin, no witness) and no neighbor is
    constructed at k = 1 - p: 3 k's of 16 phases each."""
    params = tmp_path / "params-p2.json"
    params.write_text(json.dumps({**PARAMS, "p": 2, "alpha": 0.5}))
    code, out, _ = run(capsys, "gen", "herglotz", "--params", params, "--atoms", SUITE_INPUTS / "atoms-pair.json")
    series = tmp_path / "member-p2.json"
    series.write_text(out)
    argv = ["nbhd", "verify-general", "--params", params, "--series", series, "--delta", "0.01"]
    code, out, err = run(capsys, *argv)
    rep = json.loads(out)
    assert code == 2 and err == ""
    assert rep["verdict"] == "inconclusive" and rep["worst_margin"] is None and rep["witness"] is None
    assert rep["detail"].startswith("neighborhood not certified; no escape among 48 constructed neighbors; ")
    assert "seed" not in rep["config"] and "trials" not in rep["config"]


@pytest.mark.parametrize(
    "flag", [["--trials", "5"], ["--trials", "0"], ["--seed", "3"]], ids=["trials", "zero-trials", "seed"]
)
def test_verify_plus_takes_no_trials_or_seed(capsys, tmp_path, flag):
    """verify-plus samples nothing, so it has no --trials or --seed to take: either
    flag is a usage error (exit 64), and without them the run holds (exit 0)."""
    _inputs(tmp_path)
    argv = ["nbhd", "verify-plus", *_PS]
    code, out, err = run(capsys, *_located(tmp_path, [*argv, *flag]))
    assert (code, out) == (USAGE_EXIT, "")
    assert err == f"error: unrecognized arguments: {' '.join(flag)}\n"
    assert run(capsys, *_located(tmp_path, argv))[0] == 0


@pytest.mark.parametrize("lam,mu,k", [(1e308, 0.0, 1), (1e200, 1e200, 0)])
def test_overflowing_radius_parameters_warn_nothing(capsys, tmp_path, lam, mu, k):
    """t = 2 lam mu + lam - mu beyond the float range, or 2 lam overflowing
    times mu = 0: the radius is its limit 1, not NaN, and both verifiers refuse
    the overflowing multiplier (exit 64), as `phi` does, with no numpy warning
    on stderr."""
    params = tmp_path / "params.json"
    params.write_text(json.dumps({**PARAMS, "lambda": lam, "mu": mu}))
    series = SUITE_INPUTS / "pole-only.json"
    with warnings.catch_warnings():
        warnings.simplefilter("always")  # a warning is printed to stderr, not raised
        assert run(capsys, "nbhd", "delta", "--params", params) == (0, "1\n", "")
        for verb in ("verify-plus", "verify-general"):
            code, out, err = run(capsys, "nbhd", verb, "--params", params, "--series", series)
            assert (code, out) == (64, "")
            assert err == f"error: phi: the multiplier at k={k} overflows a float (m=1)\n"
        code, out, err = run(capsys, "phi", "--lambda", lam, "--mu", mu, "--m", 1, "--p", 1, "--k", k)
        assert (code, out, err) == (64, "", f"error: phi: the multiplier at k={k} overflows a float (m=1)\n")


@pytest.mark.parametrize("lam", [1e-17, 1e-320])
def test_verify_plus_sharpness_rounded_onto_f_is_inconclusive(capsys, tmp_path, lam):
    """At a tiny delta* the sharpness witness rounds back onto f and passes: exit 2,
    not fails with a sentinel witness, and no usage error for a subnormal delta*."""
    params = tmp_path / "params.json"
    params.write_text(json.dumps({**PARAMS, "lambda": lam}))
    argv = ["nbhd", "verify-plus", "--params", params, "--series", SUITE_INPUTS / "pole-only.json"]
    code, out, err = run(capsys, *argv)
    rep = json.loads(out)
    assert code == 2 and err == ""
    assert rep["verdict"] == "inconclusive" and rep["witness"] is None
    assert rep["detail"].startswith("sharpness witness at distance 0 passes the criterion")


def test_verify_plus_degenerate_radius_has_no_margin(capsys, tmp_path):
    """lambda = mu = 0 gives delta = 0: nothing is sampled, exit 2 with a null margin."""
    params = tmp_path / "params.json"
    params.write_text(json.dumps({**PARAMS, "lambda": 0.0}))
    argv = ["nbhd", "verify-plus", "--params", params, "--series", SUITE_INPUTS / "pole-only.json"]
    code, out, err = run(capsys, *argv)
    rep = json.loads(out)
    assert code == 2 and err == ""
    assert rep["verdict"] == "inconclusive" and rep["worst_margin"] is None
    assert rep["detail"] == "degenerate radius delta = 0; nothing to verify"


def test_phi_at_the_int64_edge(capsys):
    """k + p beyond int64 must not wrap to a negative multiplier, and k + p = 1
    with p near 2**63 must not round to 0."""
    flags = ("phi", "--lambda", "1", "--mu", "0", "--m", "1")
    assert run(capsys, *flags, "--p", "2", "--k", str(2**63 - 1)) == (0, "9.22337203685e+18\n", "")
    p = 2**63 - 2
    assert run(capsys, *flags, "--p", str(p), "--k", str(1 - p)) == (0, "2\n", "")


def test_report_empty_suite(capsys, tmp_path):
    suite = write_suite(tmp_path, [])
    code, out, _ = run(capsys, "report", "--suite", suite)
    assert code == 0
    assert json.loads(out) == {"all_expected": True, "items": []}


def test_report_item_out_flag_writes_relative(capsys, params_file, tmp_path):
    suite = write_suite(tmp_path, [
        {
            "id": "gen-to-file",
            "argv": ["gen", "extremal", "--params", "params.json",
                     "--n", "1", "--out", "made.json"],
            "expect": 0,
        },
    ])
    code, _, _ = run(capsys, "report", "--suite", suite)
    assert code == 0
    made = json.loads((tmp_path / "made.json").read_text())
    assert made["certificate"]["n"] == 1


def _refuse_constant(name):
    raise AssertionError(f"non-strict JSON constant {name} in output")


def test_shipped_default_suite_passes(capsys):
    suite = Path(__file__).resolve().parents[1] / "suites" / "default.json"
    code, out, err = run(capsys, "report", "--suite", suite)
    assert code == 0
    # strict JSON: the inconclusive item's NaN margin is written as null
    agg = json.loads(out, parse_constant=_refuse_constant)
    assert agg["all_expected"] is True
    assert len(agg["items"]) == 19
    vacuous = next(it for it in agg["items"] if it["id"] == "divergent-distortion-flagged")
    assert vacuous["output"]["worst_margin"] is None


def test_report_item_resolves_equals_form_paths(capsys, tmp_path, monkeypatch):
    (tmp_path / "inputs").mkdir()
    (tmp_path / "inputs" / "params.json").write_text(json.dumps(PARAMS))
    series_file(tmp_path / "inputs", "member.json", 1, 2, [0.0, 1 / 9, 0.0])
    suite = write_suite(tmp_path, [
        {
            "id": "equals-form",
            "argv": ["check", "--criterion", "exact",
                     "--params=inputs/params.json", "--series=inputs/member.json"],
            "expect": "holds",
        },
    ])
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    code, out, _ = run(capsys, "report", "--suite", suite)
    assert code == 0
    assert json.loads(out)["items"][0]["verdict"] == "holds"


def _inputs(tmp_path):
    files = {
        "params.json": PARAMS,
        "identity.json": {"lambda": 0.0, "mu": 0.0, "m": 0, "p": 1, "alpha": 0.5, "beta": 1.0},
        "member.json": {"pole_order": 1, "trunc_order": 2,
                        "coeffs": [[0.0, 0.0], [1 / 18, 0.0], [0.0, 0.0]], "exact_support": True},
        "grid.json": {"radii": [0.3, 0.6], "angles_count": 16},
        "atoms.json": {"atoms": [[[1.0, 0.0], 1.0]]},
        "atoms-bad.json": {"atoms": 5},
        "w.json": {"coeffs": [[0.5, 0.0]]},
        "w-bad.json": {"coeffs": 5},
        # finite, but the operator image (phi_0 = 2) and the weighted sums overflow
        "huge.json": {"pole_order": 1, "trunc_order": 1, "coeffs": [[1e308, 0.0], [0.0, 0.0]]},
        # identity operator: the image is finite, but k a_k and the grid values overflow
        "identity-half.json": {"lambda": 0.0, "mu": 0.0, "m": 0, "p": 1,
                               "alpha": 0.5, "beta": 0.5},
        "huge-tail.json": {"pole_order": 1, "trunc_order": 63, "coeffs": [[1.5e307, 0.0]] * 64},
        # every multiplier but the pole's, (k + 2)^2000, overflows
        "params-m2000.json": {"lambda": 1, "mu": 0, "m": 2000, "p": 1, "alpha": 0.5, "beta": 1},
        "zero.json": {"pole_order": 1, "trunc_order": 3, "coeffs": [[0.0, 0.0]] * 4,
                      "exact_support": True},
        # lam^(-m) overflows alone; every multiplier term and the tail underflow
        "params-half-m2000.json": {"lambda": 0.5, "mu": 0, "m": 2000, "p": 1,
                                   "alpha": 0.5, "beta": 1},
        # (lam (2048 + p))^(-m) overflows: the tail majorant has no float value
        "params-tiny-m2000.json": {"lambda": 1e-6, "mu": 0, "m": 2000, "p": 1,
                                   "alpha": 0.5, "beta": 1},
        "pole.json": {"pole_order": 1, "trunc_order": 0, "coeffs": [[0.0, 0.0]],
                      "exact_support": True},
        # p = 2 on a radius of 1e-200: |z|^-p, and with it every grid value, overflows
        "params-p2.json": {"lambda": 1, "mu": 0, "m": 1, "p": 2, "alpha": 0.3, "beta": 0.8},
        "series-p2.json": {"pole_order": 2, "trunc_order": 1,
                           "coeffs": [[0.0, 0.0], [0.01, 0.0], [0.0, 0.0]], "exact_support": True},
        "grid-tiny-radius.json": {"radii": [1e-200, 0.5], "angles_count": 8},
        # phi_k = (k + 2)^m: a product that would take 10^12 steps overflows early
        "params-m1e12.json": {"lambda": 1, "mu": 0, "m": 10**12, "p": 1,
                              "alpha": 0.5, "beta": 1},
        # every difference 1e308 - (-1e308) overflows
        "big3.json": {"pole_order": 1, "trunc_order": 2, "coeffs": [[1e308, 0.0]] * 3},
        "negbig3.json": {"pole_order": 1, "trunc_order": 2, "coeffs": [[-1e308, 0.0]] * 3},
        # phi_k = (k + 2)^308: phi_8 = 1e308 is finite, the criterion weight 17 phi_8 is not
        "params-m308.json": {"lambda": 1, "mu": 0, "m": 308, "p": 1, "alpha": 0.5, "beta": 1},
        "zero8.json": {"pole_order": 1, "trunc_order": 8, "coeffs": [[0.0, 0.0]] * 9,
                       "exact_support": True},
        # budget 1e-306: the ratio weight (k + 1)(k + 2) / 1e-306 overflows from k = 12 on
        "params-tiny-beta.json": {"lambda": 1, "mu": 0, "m": 1, "p": 1, "alpha": 0.5, "beta": 1e-306},
        "zero300.json": {"pole_order": 1, "trunc_order": 300, "coeffs": [[0.0, 0.0]] * 301,
                         "exact_support": True},
        "params-no-alpha.json": {"lambda": 1, "mu": 0, "m": 1, "p": 1},
        # the general weight at k = 1 - p = -2 is [beta(-2) + 1] phi_{-2} / budget = -0.5
        "params-general-negative.json": {"lambda": 0.5, "mu": 0.1, "m": 1, "p": 3,
                                         "alpha": 0.5, "beta": 1},
        # the plus weight at k = 1 - p = -1 is 1 + beta(1 - 2p(1 - alpha)) = -2 before scaling
        "params-plus-negative.json": {"lambda": 1, "mu": 0, "m": 1, "p": 2, "alpha": 0, "beta": 1},
        "pole2.json": {"pole_order": 2, "trunc_order": 2, "coeffs": [[0.0, 0.0]] * 4,
                       "exact_support": True},
        "pole3.json": {"pole_order": 3, "trunc_order": 3, "coeffs": [[0.0, 0.0]] * 6,
                       "exact_support": True},
        "pole3-far.json": {"pole_order": 3, "trunc_order": 3,
                           "coeffs": [[100.0, 0.0]] + [[0.0, 0.0]] * 5, "exact_support": True},
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))


_PS = ("--params", "@params.json", "--series", "@member.json")


def _located(tmp_path, argv):
    return [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]

#: one argv per verb and failure mode; "@name" is a file in the test directory
VERB_CASES = {
    "phi": ["phi", "--lambda", "1", "--mu", "0", "--m", "1", "--p", "1", "--k", "2"],
    "phi-bad-k": ["phi", "--lambda", "1", "--mu", "0", "--m", "1", "--p", "1", "--k", "-4"],
    "apply": ["apply", *_PS, "--route", "coeff"],
    "apply-no-c": ["apply", *_PS, "--route", "integral"],
    "apply-integral": ["apply", *_PS, "--route", "integral", "--c", "2"],
    "gen-extremal": ["gen", "extremal", "--params", "@params.json", "--n", "1"],
    "gen-extremal-domain": ["gen", "extremal", "--params", "@identity.json", "--n", "-5"],
    "gen-herglotz": ["gen", "herglotz", "--params", "@params.json", "--atoms", "@atoms.json",
                     "--trunc", "4"],
    "check-numeric": ["check", "--criterion", "numeric", *_PS, "--grid", "@grid.json"],
    "check-missing-file": ["check", "--criterion", "exact", "--params", "@params.json",
                           "--series", "@nope.json"],
    "verify-coeff": ["verify", "coeff-plus", *_PS],
    "verify-distortion": ["verify", "distortion", *_PS, "--r", "0.5", "--which", "f_plus",
                          "--angles", "32"],
    "nbhd-delta": ["nbhd", "delta", "--params", "@params.json"],
    "nbhd-no-series": ["nbhd", "verify-plus", "--params", "@params.json"],
    "nbhd-verify-plus": ["nbhd", "verify-plus", *_PS],
}


@pytest.mark.parametrize("case", sorted(VERB_CASES))
def test_verb_agrees_through_main_and_report(capsys, tmp_path, case):
    _inputs(tmp_path)
    argv = VERB_CASES[case]
    code, out, err = run(capsys, *_located(tmp_path, argv))
    suite = write_suite(tmp_path, [{"id": case, "argv": [a.lstrip("@") for a in argv]}])
    _, agg, _ = run(capsys, "report", "--suite", suite)
    item = json.loads(agg)["items"][0]
    assert item["exit_code"] == code
    if code == USAGE_EXIT:
        assert out == "" and err == f"error: {item['error']}\n"
    else:
        try:
            expected = json.loads(out)
        except json.JSONDecodeError:
            expected = out.strip()
        assert item["output"] == expected and err == ""


#: malformed input that must be a usage error, with a fragment of its message
MALFORMED_CASES = {
    "herglotz-atoms-not-list": (
        ["gen", "herglotz", "--params", "@params.json", "--atoms", "@atoms-bad.json"],
        "atoms.atoms: expected a list",
    ),
    "schwarz-coeffs-not-list": (
        ["gen", "schwarz", "--params", "@params.json", "--w", "@w-bad.json"],
        "schwarz: expected an object with a 'coeffs' list",
    ),
    "verify-plus-negative-trials": (
        ["nbhd", "verify-plus", *_PS, "--trials", "-1"], "unrecognized arguments: --trials -1",
    ),
    "verify-general-negative-eps-trials": (
        ["nbhd", "verify-general", *_PS, "--eps-trials", "-1", "--delta", "0.1"],
        "unrecognized arguments: --eps-trials -1",
    ),
    "distortion-no-angles": (
        ["verify", "distortion", *_PS, "--r", "0.5", "--which", "f_plus", "--angles", "0"],
        "angles_count: must be an integer >= 1, got 0",
    ),
    "nan-threshold-flag": (
        ["verify", "conv-nonvanish", *_PS, "--threshold", "nan"],
        "argument --threshold: expected a finite number, got 'nan'",
    ),
    "negative-threshold-flag": (
        ["verify", "conv-nonvanish", *_PS, "--threshold", "-1"],
        "threshold: need >= 0, got -1.0",
    ),
    "distortion-radius-overflow": (
        ["verify", "distortion", "--params", "@params.json", "--series", "@pole.json",
         "--r", "1e-310", "--which", "f_plus"],
        "r: r**-1 overflows a float at r=1e-310",
    ),
    "distortion-tail-overflow": (
        ["verify", "distortion", "--params", "@params-tiny-m2000.json", "--series", "@pole.json",
         "--r", "0.5", "--which", "f_general"],
        "tail: the majorant of the sum beyond k=2048 overflows a float",
    ),
    "phi-overflow": (
        ["phi", "--lambda", "1", "--mu", "0", "--m", "2000", "--p", "1", "--k", "1"],
        "phi: the multiplier at k=1 overflows a float (m=2000)",
    ),
    "unwritable-out": (
        ["gen", "extremal", "--params", "@params.json", "--n", "1",
         "--out", "@missing-dir/made.json"],
        "missing-dir/made.json: [Errno 2] No such file or directory",
    ),
    "infinite-lambda-flag": (
        ["phi", "--lambda", "inf", "--mu", "0", "--m", "1", "--p", "1", "--k", "1"],
        "argument --lambda: expected a finite number, got 'inf'",
    ),
    **{
        f"overflow-{verb[-1]}": (
            [*verb, "--params", "@params.json", "--series", "@huge.json"],
            "apply: the operator image overflows a float at k=0 (m=1)",
        )
        for verb in (
            ["check", "--criterion", "numeric"],
            ["check", "--criterion", "subordination"],
            ["verify", "conv-nonvanish"],
        )
    },
    **{
        f"overflow-{criterion}": (
            ["check", "--criterion", criterion, "--params", "@params.json",
             "--series", "@huge.json"],
            "coeffs: the weighted coefficient sum overflows a float",
        )
        for criterion in ("exact", "sufficient")
    },
    **{
        f"eval-overflow-{verb[-1]}": (
            [*verb, "--params", "@identity-half.json", "--series", "@huge-tail.json"], message,
        )
        for verb, message in (
            (["check", "--criterion", "numeric"], "margin: not finite at (0.1+0j)"),
            (["check", "--criterion", "disk"], "margin: not finite at (0.1+0j)"),
            (["verify", "conv-nonvanish"], "margin: not finite at (0.1+0j)"),
        )
    },
    **{
        f"tiny-radius-overflow-{verb[-1]}": (
            [*verb, "--params", "@params-p2.json", "--series", "@series-p2.json",
             "--grid", "@grid-tiny-radius.json"], message,
        )
        for verb, message in (
            (["check", "--criterion", "numeric"], "margin: not finite at (1e-200+0j)"),
            (["check", "--criterion", "disk"], "margin: not finite at (1e-200+0j)"),
            (["check", "--criterion", "subordination"], "margin: not finite at (1e-200+0j)"),
            (["verify", "conv-nonvanish"], "margin: not finite at (1e-200+0j)"),
        )
    },
    "phi-k-beyond-int64": (
        ["phi", "--lambda", "1", "--mu", "0", "--m", "1", "--p", "1", "--k", str(10**23)],
        f"argument --k: expected an integer within int64, got '{10**23}'",
    ),
    "extremal-n-beyond-int64": (
        ["gen", "extremal", "--params", "@params.json", "--n", str(10**23)],
        f"argument --n: expected an integer within int64, got '{10**23}'",
    ),
    "theta-count-beyond-2**53": (
        ["verify", "conv-nonvanish", *_PS, "--theta-count", str(2**53 + 1)],
        f"unrecognized arguments: --theta-count {2**53 + 1}",
    ),
    "apply-c-outside-integral": (
        ["apply", "--route", "coeff", "--c", "-5", *_PS],
        "--c is required for route=integral and applies to no other route",
    ),
    "partial-sums-hypothesis-overflow": (
        ["verify", "partial-sums", "--params", "@identity-half.json",
         "--series", "@huge-tail.json", "--m-cut", "3"],
        "coeffs: the weighted hypothesis sum overflows a float",
    ),
    "phi-huge-power": (
        ["phi", "--lambda", "1", "--mu", "0", "--m", "1000000000000", "--p", "1", "--k", "1"],
        "phi: the multiplier at k=1 overflows a float (m=1000000000000)",
    ),
    "exact-huge-power": (
        ["check", "--criterion", "exact", "--params", "@params-m1e12.json",
         "--series", "@member.json"],
        "phi: the multiplier at k=0 overflows a float (m=1000000000000)",
    ),
    **{
        f"distance-overflow-{kind}": (
            ["nbhd", "distance", "--params", "@params.json", "--series", "@big3.json",
             "--other", "@negbig3.json", "--kind", kind],
            "coeffs: the weighted distance overflows a float",
        )
        for kind in ("plus", "general")
    },
    "criterion-weight-overflow-extremal": (
        ["gen", "extremal", "--params", "@params-m308.json", "--n", "8"],
        "weight: the criterion weight at k=8 overflows a float",
    ),
    "criterion-weight-overflow-coeff-plus": (
        ["verify", "coeff-plus", "--params", "@params-m308.json", "--series", "@zero8.json"],
        "weight: the criterion weight at k=8 overflows a float",
    ),
    **{
        f"ratio-weight-overflow-{verb[1]}": (
            [*verb, "--params", "@params-tiny-beta.json", "--series", "@zero300.json"],
            "weight: the ratio weight at k=12 overflows a float",
        )
        for verb in (
            ["verify", "partial-sums", "--m-cut", "1"],
            ["nbhd", "distance", "--other", "@zero300.json"],
            ["nbhd", "verify-plus"],
        )
    },
    "phi-array-overflow-coeff-general": (
        ["verify", "coeff-general", "--params", "@params-m2000.json", "--series", "@zero.json"],
        "phi: the multiplier at k=2 overflows a float (m=2000)",
    ),
    "verify-general-degenerate-radius": (
        ["nbhd", "verify-general", "--params", str(SUITE_INPUTS / "params-degenerate.json"),
         "--series", "@member.json"],
        "delta: the operator radius is degenerate (0); pass --delta explicitly",
    ),
    "herglotz-params-without-alpha": (
        ["gen", "herglotz", "--params", "@params-no-alpha.json", "--atoms", "@atoms.json"],
        "params.alpha: missing",
    ),
    "fractional-int-flag": (
        ["phi", "--lambda", "1", "--mu", "0", "--m", "1.5", "--p", "1", "--k", "1"],
        "argument --m: invalid int value: '1.5'",
    ),
    "distance-negative-general-weight": (
        ["nbhd", "distance", "--params", "@params-general-negative.json", "--series", "@pole3.json",
         "--other", "@pole3-far.json", "--kind", "general"],
        "kind: the general weight at k=-2 is -0.5 < 0; the weighted distance is not a metric",
    ),
    "verify-general-negative-weight": (
        ["nbhd", "verify-general", "--params", "@params-general-negative.json",
         "--series", "@pole3.json", "--delta", "0.01"],
        "kind: the general weight at k=-2 is -0.5 < 0; the weighted distance is not a metric",
    ),
    "verify-plus-negative-weight": (
        ["nbhd", "verify-plus", "--params", "@params-plus-negative.json", "--series", "@pole2.json"],
        "kind: the plus weight at k=-1 is -1 < 0; the weighted distance is not a metric",
    ),
    "phi-array-overflow-invert": (
        ["apply", "--route", "invert", "--params", "@params-m2000.json",
         "--series", "@zero.json"],
        "phi: the multiplier at k=0 overflows a float (m=2000)",
    ),
}


def test_verify_distortion_with_huge_power(capsys, tmp_path):
    _inputs(tmp_path)
    argv = ["verify", "distortion", "--params", "@params-half-m2000.json",
            "--series", "@pole.json", "--r", "0.5", "--which", "f_general"]
    code, out, err = run(capsys, *_located(tmp_path, argv))
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["verdict"] == "holds" and "lower=2 upper=2 " in rep["detail"]


@pytest.mark.parametrize("case", sorted(MALFORMED_CASES))
def test_malformed_input_is_usage_error(capsys, tmp_path, case):
    _inputs(tmp_path)
    argv, message = MALFORMED_CASES[case]
    code, out, err = run(capsys, *_located(tmp_path, argv))
    assert code == USAGE_EXIT and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_allocation_failure_is_usage_error(capsys, tmp_path, monkeypatch):
    """An input too large to allocate for (``gen extremal --n 100000000000``
    asks for 745 GiB) is a usage error.  The handler's allocation is faked:
    an overcommitting host might grant a real one."""
    _inputs(tmp_path)

    def too_large(*args):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

    monkeypatch.setattr(merokit.cli, "extremal_fn", too_large)
    argv = ["gen", "extremal", "--params", "@params.json", "--n", "100000000000"]
    code, out, err = run(capsys, *_located(tmp_path, argv))
    assert code == USAGE_EXIT and out == ""
    assert err == (
        "error: out of memory: the input is too large "
        "(Unable to allocate 745. GiB for an array with shape (100000000000,))\n"
    )

# ------------------------------------------------------------ per-kind flags

#: a valid argv of each kind, then a flag that only another kind of its verb takes
FOREIGN_FLAG_CASES = {
    "gen-herglotz": (["gen", "herglotz", "--params", "@params.json", "--atoms", "@atoms.json"],
                     ["--n", "1"]),
    "gen-schwarz": (["gen", "schwarz", "--params", "@params.json", "--w", "@w.json"],
                    ["--atoms", "@atoms.json"]),
    "gen-extremal": (["gen", "extremal", "--params", "@params.json", "--n", "1"],
                     ["--trunc", "99"]),
    "verify-coeff-general": (["verify", "coeff-general", *_PS], ["--m-cut", "1"]),
    "verify-coeff-plus": (["verify", "coeff-plus", *_PS], ["--grid", "@grid.json"]),
    "verify-distortion": (["verify", "distortion", *_PS, "--r", "0.5", "--which", "f_plus"],
                          ["--theta-count", "16"]),
    "verify-conv-nonvanish": (["verify", "conv-nonvanish", *_PS], ["--angles", "32"]),
    "verify-partial-sums": (["verify", "partial-sums", *_PS, "--m-cut", "1"], ["--r", "0.5"]),
    "nbhd-distance": (["nbhd", "distance", *_PS, "--other", "@member.json"], ["--trials", "5"]),
    "nbhd-delta": (["nbhd", "delta", "--params", "@params.json"], ["--seed", "3"]),
    "nbhd-verify-plus": (["nbhd", "verify-plus", *_PS],
                         ["--delta", "0.9", "--kind", "general"]),
    "nbhd-verify-general": (["nbhd", "verify-general", *_PS], ["--kind", "general"]),
}


@pytest.mark.parametrize("case", sorted(FOREIGN_FLAG_CASES))
def test_flag_of_another_kind_is_usage_error(capsys, tmp_path, case):
    _inputs(tmp_path)
    argv, foreign = FOREIGN_FLAG_CASES[case]
    code, _, _ = run(capsys, *_located(tmp_path, argv))
    assert code != USAGE_EXIT
    code, out, err = run(capsys, *_located(tmp_path, [*argv, *foreign]))
    assert code == USAGE_EXIT and out == ""
    assert err == f"error: unrecognized arguments: {' '.join(_located(tmp_path, foreign))}\n"


#: argv that the parser refuses, and a fragment of its one-line message
REFUSED_ARGV_CASES = {
    "herglotz-without-atoms": (["gen", "herglotz", "--params", "@params.json"],
                               "are required: --atoms"),
    "schwarz-without-w": (["gen", "schwarz", "--params", "@params.json"], "are required: --w"),
    "extremal-without-n": (["gen", "extremal", "--params", "@params.json"], "are required: --n"),
    "distortion-without-r-which": (["verify", "distortion", *_PS],
                                   "are required: --r, --which"),
    "partial-sums-without-cut": (["verify", "partial-sums", *_PS], "are required: --m-cut"),
    "verify-plus-without-series": (["nbhd", "verify-plus", "--params", "@params.json"],
                                   "are required: --series"),
    "distance-without-other": (["nbhd", "distance", *_PS], "are required: --other"),
    "delta-with-series": (["nbhd", "delta", "--params", "@params.json",
                           "--series", "@missing.json"],
                          "unrecognized arguments: --series "),
    "abbreviated-criterion": (["check", "--crit", "exact", *_PS],
                              "are required: --criterion"),
    "abbreviated-trials": (["nbhd", "verify-general", *_PS, "--tri", "5"],
                           "unrecognized arguments: --tri 5"),
    "abbreviated-delta": (["nbhd", "verify-general", *_PS, "--del", "0.1"],
                          "unrecognized arguments: --del 0.1"),
    **{
        f"check-{criterion}-with-grid": (
            ["check", "--criterion", criterion, *_PS, "--grid", "@grid.json"],
            "--grid applies only to criterion=numeric, disk and subordination",
        )
        for criterion in ("exact", "sufficient")
    },
}


@pytest.mark.parametrize("case", sorted(REFUSED_ARGV_CASES))
def test_refused_argv_is_usage_error(capsys, tmp_path, case):
    _inputs(tmp_path)
    argv, message = REFUSED_ARGV_CASES[case]
    code, out, err = run(capsys, *_located(tmp_path, argv))
    assert code == USAGE_EXIT and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_distortion_divergence_names_the_flag(capsys, tmp_path):
    """A divergent multiplier sum is refused with the flag that acknowledges it."""
    _inputs(tmp_path)
    argv = ["verify", "distortion", *_PS, "--r", "0.3", "--which", "fprime_general"]
    code, out, err = run(capsys, *_located(tmp_path, [*argv, "--tail-mode", "exact_support"]))
    assert code == USAGE_EXIT and out == ""
    assert err.startswith("error: tail: ") and err.count("\n") == 1
    assert "the sum diverges" in err and "--tail-mode divergent_flag" in err
    code, out, _ = run(capsys, *_located(tmp_path, [*argv, "--tail-mode", "divergent_flag"]))
    assert code == 2 and json.loads(out)["verdict"] == "inconclusive"

# ------------------------------------------------------- mutated JSON readers

#: each reader's document, read through one argv; "@doc.json" is the mutated copy
READER_CASES = {
    "params": (dict(PARAMS), ["check", "--criterion", "sufficient",
                              "--params", "@doc.json", "--series", "@member.json"]),
    "series": (
        {"pole_order": 1, "trunc_order": 2, "exact_support": True,
         "coeffs": [[0.0, 0.0], [0.05, 0.0], [0.0, 0.0]]},
        ["check", "--criterion", "numeric", "--params", "@params.json",
         "--series", "@doc.json", "--grid", "@grid.json"],
    ),
    "grid": ({"radii": [0.3, 0.6], "angles_count": 16, "margin": 1e-9},
             ["check", "--criterion", "numeric", *_PS, "--grid", "@doc.json"]),
    "atoms": ({"atoms": [[[1.0, 0.0], 0.5], [[0.0, 1.0], 0.5]]},
              ["gen", "herglotz", "--params", "@params.json", "--atoms", "@doc.json",
               "--trunc", "4"]),
    "schwarz": ({"coeffs": [[0.5, 0.0], [0.0, 0.25]]},
                ["gen", "schwarz", "--params", "@params.json", "--w", "@doc.json",
                 "--trunc", "4"]),
    "suite": (
        {"items": [
            {"id": "phi", "argv": ["phi", "--lambda", "1", "--mu", "0", "--m", "1",
                                   "--p", "1", "--k", "1"], "expect": 0},
            {"id": "exact", "argv": ["check", "--criterion", "exact", "--params",
                                     "params.json", "--series", "member.json"],
             "expect": "holds"},
        ]},
        ["report", "--suite", "@doc.json"],
    ),
}

#: replacement values: non-finite literals, booleans, strings, null, and
#: scalars, lists and objects in place of one another
REPLACEMENTS = [
    float("nan"), float("inf"), float("-inf"), True, False, "0.5", "", None,
    0, 7, 0.5, -1.0, [], [0.5, 0.0], {}, {"coeffs": 1},
]


def _swap_type(value):
    """The same content under another JSON type."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return float(value)
    if isinstance(value, float):
        return str(value)
    if isinstance(value, str):
        return [value]
    if isinstance(value, list):
        return value[0] if value else 0
    if isinstance(value, dict):
        return list(value.values())
    return 0


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        if not path:
            return value
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        how = draw(st.sampled_from(["replace", "swap", "drop"]))
        if how == "drop":
            del parent[path[-1]]
        elif how == "swap":
            parent[path[-1]] = _swap_type(parent[path[-1]])
        else:
            parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind", sorted(READER_CASES))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_document_loads_or_is_usage_error(capsys, tmp_path, kind, data):
    _inputs(tmp_path)
    base, argv = READER_CASES[kind]
    doc = data.draw(mutated(base))
    (tmp_path / "doc.json").write_text(json.dumps(doc))  # NaN/Infinity literals included
    code, out, err = run(capsys, *_located(tmp_path, argv))
    if code == USAGE_EXIT:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code in (0, 1, 2) and "Traceback" not in err
        json.loads(out, parse_constant=_refuse_constant)


# --------------------------------------------------------------- module entry

def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "merokit",
         "phi", "--lambda", "1", "--mu", "0", "--m", "1", "--p", "1", "--k", "1"],
        capture_output=True, text=True, timeout=120, env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


def test_phi_power_of_a_base_near_one_finishes():
    """(1 + 2e-10)^(10^12) neither overflows nor stops changing within the
    product's first 4096 steps; one power finishes the rest at once."""
    proc = subprocess.run(
        [sys.executable, "-m", "merokit",
         "phi", "--lambda", "1e-10", "--mu", "0", "--m", "1000000000000", "--p", "1", "--k", "1"],
        capture_output=True, text=True, timeout=10, env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == pytest.approx((1.0 + 2e-10) ** 1e12, rel=1e-9)


def test_cli_import_starts_no_thread_pool():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, merokit.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0 and proc.stdout == "False\n"
    assert merokit.backend_name() == "numpy"


# eight full-grid arrays (20x4096, complex) at a time, allocated and freed six
# times: the page faults of the last five rounds
_FREED_ARRAY_PROBE = """
import resource, numpy as np, merokit
def blocks():
    return [np.ones(81920, complex) for _ in range(8)]
blocks()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    blocks()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc thresholds are glibc's")
def test_import_keeps_freed_grid_arrays_in_the_heap():
    """After ``import merokit`` a grid check's freed arrays stay in the heap,
    so the next check reuses them without page faults, unless the environment
    sets the malloc thresholds itself (here it makes every such array a fresh
    mapping: 2560 pages a round)."""
    env = {k: v for k, v in SUBPROCESS_ENV.items() if not k.startswith(("MALLOC_", "GLIBC_"))}
    faults = {}
    for name, extra in (("pinned", {}), ("environment", {"MALLOC_TRIM_THRESHOLD_": "131072"})):
        proc = subprocess.run(
            [sys.executable, "-c", _FREED_ARRAY_PROBE],
            capture_output=True, text=True, timeout=120, env={**env, **extra},
        )
        assert proc.returncode == 0, proc.stderr
        faults[name] = int(proc.stdout)
    assert faults["pinned"] < 100 and faults["environment"] > 5000, faults
