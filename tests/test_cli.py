import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from occtl import cli, contraction
from occtl.cli import main
from occtl.contraction import (
    DEFAULT_ALPHA_MIN, SamplingPlan, check_oes_equilibrium,
    Verdict, check_oes_variational, check_output_contraction,
    check_partial_contraction, verdict_json,
)
from occtl.exprlang import to_source
from occtl.lyapunov import Bounds, CheckDomain, FalsificationReport
from occtl.odeint import IntegratorConfig, integrate, map_output
from occtl.sysmodel import builtin_system, system_from_json, vector_field

from oracles import output_equilibrium_root


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# ---------------------------------------------------------------------------
# loading and usage errors
# ---------------------------------------------------------------------------

def test_unknown_system_is_usage_error(capsys):
    code = main(["simulate", "--system", "nope", "--x0", "1,1"])
    assert code == 2


def test_malformed_system_file(tmp_path, capsys):
    bad = tmp_path / "sys.json"
    for doc in (
            '{"name": "b", "n": 2, "m": 1, "f": ["x3", "x1"], "h": ["x1"]}',
            '[1, 2]',
            '{"name": "b", "n": 2, "m": 1, "f": 5, "h": ["x1"]}',
            '{"name": "b", "n": 2, "m": 1, "f": ["x1", 3], "h": ["x1"]}',
            '{"name": "b", "n": 2, "m": 1, "f": ["x1", "x2"], "h": "x1"}',
            '{"name": "b", "n": null, "m": 1, "f": ["x1", "x2"], "h": ["x1"]}',
            '{"name": "b", "n": 2.7, "m": 1, "f": ["x1", "x2"], "h": ["x1"]}',
            '{"name": "b", "n": 2, "m": true, "f": ["x1", "x2"], "h": ["x1"]}',
            '{"name": 7, "n": 2, "m": 1, "f": ["x1", "x2"], "h": ["x1"]}',
            '{"name": "d", "n": 1, "m": 1, "f": ["-x1"], "h": ["x1"], '
            '"box": "0:1", "tf": 99}'):
        bad.write_text(doc)
        code = main(["simulate", "--system", str(bad), "--x0", "1,1"])
        assert code == 2, doc
    assert "unexpected key(s) ['box', 'tf']" in capsys.readouterr().err
    # a directory exists but cannot be read as a system file
    code = main(["simulate", "--system", str(tmp_path), "--x0", "1,1"])
    assert code == 2
    assert "cannot read system file" in capsys.readouterr().err


def test_a_long_sum_runs_and_deep_nesting_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "sys.json"

    def simulate(f):
        path.write_text(json.dumps(
            {"name": "d", "n": 1, "m": 1, "f": [f], "h": ["x1"]}))
        return main(["simulate", "--system", str(path), "--x0", "1"])
    assert simulate(" + ".join(["-0.001*x1"] * 250)) == 0
    assert simulate("(" * 100 + "-x1" + ")" * 100) == 0
    capsys.readouterr()
    assert simulate("(" * 200 + "-x1" + ")" * 200) == 2
    assert "nests too deeply" in capsys.readouterr().err


def test_a_tree_past_the_depth_limit_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "sys.json"

    def system(f):
        path.write_text(json.dumps(
            {"name": "d", "n": 1, "m": 1, "f": [f], "h": ["x1"]}))
        return ["--system", str(path)]

    def lyapunov(f, V):
        return main(["lyapunov", *system(f), "--V", V, "--alpha1", "0.1",
                     "--alpha2", "10", "--alpha4", "1", "--samples", "50",
                     "--x-box", "0:1"])
    long_sum = " + ".join(["-0.001*x1"] * 1000)
    assert main(["simulate", *system(long_sum), "--x0", "1"]) == 2
    assert lyapunov("-x1", " + ".join(["xi1^2"] * 1000)) == 2
    assert capsys.readouterr().err.count("levels deep, more than 256") == 2
    # a quotient chain 256 levels deep has derivatives about three times as
    # deep, which every tree walker still handles
    quotients = "-x1" + "/(1 + 0.001*x1^2)" * 252
    assert main(["jacobian", *system(quotients), "--x", "1"]) == 0
    assert lyapunov(quotients, quotients.replace("-x1", "xi1^2")) in (0, 1)
    assert capsys.readouterr().err == ""


def test_system_file_round_trip(tmp_path, capsys):
    doc = {"name": "decay", "n": 1, "m": 1, "f": ["-x1"], "h": ["x1"]}
    path = tmp_path / "decay.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "simulate", "--system", str(path),
                           "--x0", "1", "--tf", "1")
    assert code == 0
    assert report["results"]["final_output"][0] == pytest.approx(
        np.exp(-1.0), abs=1e-7)


@pytest.mark.parametrize("argv, flags", [
    (["--step", "0.5"], "--step"),
    (["--method", "rk4-fixed", "--rtol", "1e-6", "--atol", "1e-6"],
     "--atol, --rtol"),
])
def test_an_integrator_flag_the_method_does_not_read_is_rejected(
        capsys, argv, flags):
    code = main(["simulate", "--system", "lti-remark1", "--x0", "1,1", *argv])
    assert code == 2
    assert capsys.readouterr().err.strip().endswith(f"does not read {flags}")


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--system", "lti-remark1", "--bogus", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["lyapunov", "--system", "ex1-timevarying", "--V", "(xi1+xi2)^2",
     "--alpha1", "1", "--alpha2", "2", "--tf", "5"],
    ["jacobian", "--system", "lti-remark1", "--x", "0,0", "--t0", "1"],
    ["reproduce", "remark1", "--t0", "1"],
])
def test_time_flags_a_command_ignores_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--system", "lti-remark1", "--x0", "1,1", "--seed", "1"],
    ["jacobian", "--system", "lti-remark1", "--x", "0,0", "--seed", "1"],
    ["jacobian", "--system", "lti-remark1", "--x", "0,0", "--format", "json"],
    ["lyapunov", "--system", "ex1-timevarying", "--V", "(xi1+xi2)^2",
     "--alpha1", "1", "--alpha2", "2", "--format", "json"],
    # only remark1 samples pairs
    ["reproduce", "fig1", "--seed", "5"],
    ["reproduce", "fig1", "--pairs", "3"],
    ["reproduce", "fig2", "--seed", "5"],
    ["reproduce", "fig2", "--pairs", "3"],
    # reproduce always integrates with rk45-adaptive
    ["reproduce", "fig1", "--method", "rk4-fixed"],
    ["reproduce", "remark1", "--step", "0.01"],
])
def test_seed_and_format_flags_a_command_ignores_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_bad_threads_env(capsys, monkeypatch):
    monkeypatch.setenv("OCCTL_THREADS", "many")
    assert main(["jacobian", "--system", "lti-remark1", "--x", "0,0"]) == 2


def test_threads_env_recorded(capsys, monkeypatch):
    monkeypatch.setenv("OCCTL_THREADS", "4")
    code, report = run_cli(capsys, "jacobian", "--system", "lti-remark1",
                           "--x", "0,0")
    assert code == 0
    assert report["threads"] == 4


def test_flag_defaults_are_the_library_defaults(monkeypatch, capsys):
    defaults = {f.name: f.default for f in dataclasses.fields(SamplingPlan)}
    plan = ("pairs", "seed", "t0", "tf")
    for argv in (["contraction"], ["partial"], ["oes"],
                 ["oes-eq", "--y-star", "0"]):
        args = cli.build_parser().parse_args(argv + ["--system", "ex1"])
        assert [getattr(args, key) for key in plan] \
            == [defaults[key] for key in plan], argv
        assert args.alpha_min == DEFAULT_ALPHA_MIN
    # the bounds and domain the command builds keep the library's defaults
    built = []

    def check_certificate(spec, V, bounds, domain):
        built.append((bounds, domain))
        return []
    monkeypatch.setattr(cli, "check_certificate", check_certificate)
    assert main(["lyapunov", "--system", "ex2-timeinvariant", "--V", "xi1^2",
                 "--alpha1", "1", "--alpha2", "2", "--alpha3", "1"]) == 0
    capsys.readouterr()
    [(bounds, domain)] = built
    assert bounds == Bounds(alpha1=1.0, alpha2=2.0, alpha3=1.0)
    assert domain == CheckDomain(x_box=domain.x_box)


# ---------------------------------------------------------------------------
# non-finite inputs
# ---------------------------------------------------------------------------

LTI = ["--system", "lti-remark1"]
LYAPUNOV = ["lyapunov", *LTI, "--V", "x1^2 + x2^2", "--alpha1", "0.5",
            "--alpha2", "2", "--alpha3", "1"]


@pytest.mark.parametrize("argv", [
    ["simulate", *LTI, "--x0", "1,1", "--tf", "inf"],
    ["simulate", *LTI, "--x0", "1,1", "--t0=-1e308", "--tf", "1e308"],
    ["contraction", *LTI, "--pairs", "1", "--tf", "inf"],
])
def test_infinite_horizon_is_usage_error(argv):
    # out of process with a timeout: a regression hangs in the step loop
    proc = subprocess.run([sys.executable, "-m", "occtl", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "finite t0 < tf" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["simulate", *LTI, "--x0", "1,1", "--tf", "nan"],
    ["simulate", *LTI, "--x0", "1,1", "--method", "rk4-fixed", "--tf", "inf"],
    ["simulate", *LTI, "--x0", "1,1", "--rtol", "nan"],
    ["simulate", *LTI, "--x0", "1,1", "--atol", "inf"],
    ["simulate", *LTI, "--x0", "1,1", "--method", "rk4-fixed", "--step", "inf"],
    ["contraction", *LTI, "--pairs", "1", "--tf", "nan"],
    ["simulate", *LTI, "--x0", "nan,1"],
    ["simulate", *LTI, "--x0", "1,inf"],
    ["jacobian", *LTI, "--x", "nan,0"],
    ["oes-eq", *LTI, "--y-star", "nan"],
    ["contraction", *LTI, "--box", "0:inf,0:1"],
    ["oes", *LTI, "--box=-1e308:1e308,0:1"],
    [*LYAPUNOV, "--x-box", "0:inf,0:1"],
    [*LYAPUNOV, "--alpha4", "2", "--t-range", "0:inf"],
    [*LYAPUNOV, "--xi-radii", "1,inf"],
    [*LYAPUNOV, "--alpha1", "inf", "--alpha2", "inf"],
    [*LYAPUNOV, "--p", "nan"],
    ["contraction", *LTI, "--pairs", "2", "--tf", "2", "--alpha-min", "nan"],
    ["jacobian", *LTI, "--x", "1,0", "--t", "nan"],
    ["jacobian", "--system", "ex1-timevarying", "--x", "1,0", "--t", "inf"],
])
def test_non_finite_input_is_usage_error(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_a_t_range_without_alpha4_is_a_usage_error(monkeypatch, capsys):
    # the form without --alpha4 is evaluated at t = 0 and would ignore it
    monkeypatch.setattr(cli, "check_certificate", None)
    assert main([*LYAPUNOV, "--t-range", "3:9"]) == 2
    assert capsys.readouterr() == ("", "error: --t-range needs --alpha4: the "
                                   "form without it is evaluated at t = 0\n")


def test_negative_lyapunov_seed_is_a_usage_error_naming_the_seed(capsys):
    assert main([*LYAPUNOV, "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be non-negative, got -1\n"


def test_a_certificate_draw_too_large_to_allocate_is_a_usage_error(capsys):
    # exit 1 would read as "falsified"; numpy refuses this size at once
    assert main(["lyapunov", "--system", "ex1-timevarying", "--V",
                 "(xi1+xi2)^2", "--alpha1", "1", "--alpha2", "2",
                 "--alpha4", "2", "--samples", str(10 ** 15)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {10 ** 15} samples are too many to draw: their " \
                  "directions do not fit in memory\n"


@pytest.mark.parametrize("argv, flag", [
    (["simulate", *LTI, "--x0", "1,,1"], "--x0"),
    ([*LYAPUNOV, "--xi-radii", "1,,2"], "--xi-radii"),
])
def test_malformed_vector_names_its_flag(capsys, argv, flag):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {flag} must be comma-separated numbers, got " \
                  f"'{argv[-1]}'\n"


@pytest.mark.parametrize("argv, threads, message", [
    (["simulate", "--system", "SYSTEM_FILE", "--x0", "1,1"], None,
     "malformed system JSON "),
    (["jacobian", *LTI, "--x", "0,0"], "0", "OCCTL_THREADS must be at least 1"),
    (["simulate", *LTI, "--x0", "1,2,3"], None,
     "--x0 needs 2 component(s), got 3"),
    (["contraction", *LTI, "--box", "1-2,3:4"], None,
     "interval must look like 'lo:hi', got '1-2'"),
    (["contraction", *LTI, "--box=-5:5"], None,
     "box needs 2 interval(s), got 1"),
    (["lyapunov", "--system", "ex1-timevarying", *LYAPUNOV[3:]], None,
     "'ex1-timevarying' is time-varying; its certificate needs alpha4 "
     "(the time-varying form)\n"),
    (["oes-eq", *LTI, "--y-star", "0", "--x-ref0", "1,2,3"], None,
     "x_ref0 must be a finite vector of length n=2"),
])
def test_an_unusable_input_is_a_one_line_usage_error(
        tmp_path, monkeypatch, capsys, argv, threads, message):
    system_file = tmp_path / "sys.json"
    system_file.write_text('{"name": "b", "n": 2,')
    if threads is not None:
        monkeypatch.setenv("OCCTL_THREADS", threads)
    argv = [str(system_file) if a == "SYSTEM_FILE" else a for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["simulate", *LTI, "--x0", "1,1"],
    ["reproduce", "fig1"], ["reproduce", "fig2"], ["reproduce", "remark1"],
    ["contraction", *LTI], ["partial", *LTI], ["oes", *LTI],
    ["oes-eq", *LTI, "--y-star", "0"],
], ids=lambda argv: argv[1] if argv[0] == "reproduce" else argv[0])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_format_without_out_is_a_one_line_usage_error(monkeypatch, capsys,
                                                      argv, fmt):
    # only --out writes files, so a --format without it would do nothing;
    # it is refused before anything is integrated
    monkeypatch.setattr(cli, "integrate_batch", None)
    monkeypatch.setattr(contraction, "integrate_batch", None)
    assert main([*argv, "--format", fmt]) == 2
    assert capsys.readouterr() == (
        "", "error: --format needs --out, which writes the files\n")


#: each sampling check's command and its library function
SAMPLING_CHECKS = {
    "contraction": check_output_contraction,
    "partial": check_partial_contraction,
    "oes": check_oes_variational,
    "oes-eq": lambda spec, plan: check_oes_equilibrium(spec, [0.0], plan),
}


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("command", SAMPLING_CHECKS)
def test_the_default_box_has_one_interval_per_state(tmp_path, capsys, n,
                                                    command):
    states = [f"x{i + 1}" for i in range(n)]
    path = tmp_path / "decay.json"
    path.write_text(json.dumps({"name": "decay", "n": n, "m": 1,
                                "f": [f"-{x}" for x in states],
                                "h": [" + ".join(states)]}))
    extra = ["--y-star", "0"] if command == "oes-eq" else []
    code, report = run_cli(capsys, command, "--system", str(path),
                           "--pairs", "3", "--tf", "2", *extra)
    verdict = SAMPLING_CHECKS[command](
        system_from_json(path.read_text()),
        SamplingPlan(box=((-5.0, 5.0),) * n, pairs=3, tf=2.0))
    assert (code, verdict.holds) == (0, True)
    assert report["results"]["verdict"] == verdict_json(verdict)


# ---------------------------------------------------------------------------
# simulate and jacobian
# ---------------------------------------------------------------------------

def test_simulate_writes_csv_and_reports(tmp_path, capsys):
    code, report = run_cli(capsys, "simulate", "--system", "ex2-timeinvariant",
                           "--x0", "3,3", "--tf", "5", "--out", str(tmp_path))
    assert code == 0
    assert report["seed"] is None
    csv_path = tmp_path / "simulate_ex2-timeinvariant.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,x1,x2,y1"
    assert (tmp_path / "report.json").exists()


@pytest.mark.parametrize("step, steps", [("1e-15", "1e+16"),
                                         ("1e-300", "1e+301"),
                                         ("5e-324", "inf")])
def test_an_rk4_step_too_small_for_its_horizon_is_a_usage_error(capsys, step,
                                                               steps):
    assert main(["simulate", *LTI, "--x0", "1,1", "--method", "rk4-fixed",
                 "--tf", "10", "--step", step]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: rk4 step {float(step)} is too small for the "
                   f"horizon 10.0: {steps} steps\n")


def test_simulate_blowup_exits_3(capsys):
    code, report = run_cli(capsys, "simulate", "--system", "ex1-timevarying",
                           "--x0=-2.5,-5", "--tf", "5")
    assert code == 3
    assert report["results"]["failure"] is not None
    assert report["results"]["t_end"] < 5.0


def test_jacobian_values(capsys):
    code, report = run_cli(capsys, "jacobian", "--system", "lti-remark1",
                           "--x", "1,0", "--t", "0")
    assert code == 0
    res = report["results"]
    assert res["f"] == [-2.0, 1.0]
    assert res["Jf"] == [[-2.0, 1.0], [1.0, -2.0]]
    assert res["Jh"] == [[1.0, 0.0]]


# ---------------------------------------------------------------------------
# check subcommands: exit-code matrix over the built-ins
# ---------------------------------------------------------------------------

def test_contraction_holds_for_lti(capsys):
    code, report = run_cli(capsys, "contraction", "--system", "lti-remark1",
                           "--pairs", "10", "--tf", "10", "--seed", "1")
    assert code == 0
    assert report["results"]["verdict"]["holds"] is True
    assert report["results"]["verdict"]["min_alpha"] >= 0.9


def test_contraction_falsified_for_bad_output(capsys):
    code, report = run_cli(capsys, "contraction", "--system",
                           "lti-remark1-badout", "--pairs", "6", "--tf", "8")
    assert code == 1
    assert report["results"]["verdict"]["witness"] is not None


def test_partial_contraction_falsified_with_equal_output_witness(capsys):
    code, report = run_cli(capsys, "partial", "--system", "lti-remark1",
                           "--pairs", "6", "--tf", "8")
    assert code == 1
    witness = report["results"]["verdict"]["witness"]
    assert witness["dy0"] <= 1e-12


def test_oes_holds_for_time_invariant_demo(capsys):
    code, report = run_cli(capsys, "oes", "--system", "ex2-timeinvariant",
                           "--samples", "8", "--tf", "5")
    assert code == 0
    assert report["results"]["verdict"]["min_alpha"] >= 0.9


def test_oes_eq_time_invariant(capsys):
    y_star = output_equilibrium_root()
    code, report = run_cli(capsys, "oes-eq", "--system", "ex2-timeinvariant",
                           "--y-star", f"{y_star:.12f}", "--pairs", "5",
                           "--box", "1:4,1:4", "--tf", "8")
    assert code == 0


def test_oes_eq_out_writes_one_csv_per_sample(tmp_path, capsys):
    code, report = run_cli(capsys, "oes-eq", "--system", "lti-remark1",
                           "--y-star", "0", "--pairs", "3", "--tf", "4",
                           "--out", str(tmp_path))
    assert code == 0
    assert report["results"]["y_star"] == [0.0]
    series = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert series == [f"oes-equilibrium_pair_{i:03d}.csv" for i in range(3)]
    assert report["files"] == series + ["report.json"]


def test_oes_eq_x_ref0_sets_the_fit_scale(capsys):
    argv = ["oes-eq", *LTI, "--y-star", "0", "--pairs", "3", "--tf", "4"]
    code, report = run_cli(capsys, *argv, "--x-ref0", "1,-0.5")
    verdict = check_oes_equilibrium(
        builtin_system("lti-remark1"), [0.0],
        SamplingPlan(box=((-5.0, 5.0),) * 2, pairs=3, tf=4.0),
        x_ref0=[1.0, -0.5])
    assert code == (0 if verdict.holds else 1)
    assert report["results"]["verdict"] == verdict_json(verdict)
    # the surrogate scale 1 + ||x0|| gives another max_c
    _, surrogate = run_cli(capsys, *argv)
    assert surrogate["results"]["verdict"]["max_c"] != verdict.max_c


def test_oes_eq_rejects_time_varying(capsys):
    code = main(["oes-eq", "--system", "ex1-timevarying", "--y-star", "0.2"])
    assert code == 2


def test_lyapunov_certificate_passes(capsys):
    code, report = run_cli(
        capsys, "lyapunov", "--system", "ex1-timevarying",
        "--V", "(xi1+xi2)^2", "--alpha1", "1", "--alpha2", "2",
        "--alpha3", "0", "--alpha4", "2", "--p", "2", "--samples", "5000")
    assert code == 0
    checks = report["results"]["checks"]
    assert [c["condition"] for c in checks] == ["sandwich", "decay"]
    assert all(c["passed"] for c in checks)
    assert report["results"]["implied_rate"]["alpha"] == 1.0


def test_lyapunov_overclaimed_rate_falsified(capsys):
    code, report = run_cli(
        capsys, "lyapunov", "--system", "ex1-timevarying",
        "--V", "(xi1+xi2)^2", "--alpha1", "1", "--alpha2", "2",
        "--alpha3", "0", "--alpha4", "12", "--p", "2", "--samples", "5000")
    assert code == 1
    decay = report["results"]["checks"][1]
    assert decay["counterexample"] is not None


def test_lyapunov_time_invariant_form(capsys):
    code, report = run_cli(
        capsys, "lyapunov", "--system", "ex2-timeinvariant",
        "--V", "(xi1+xi2)^2", "--alpha1", "1", "--alpha2", "2",
        "--alpha3", "2", "--p", "2", "--samples", "5000")
    assert code == 0
    assert [c["condition"] for c in report["results"]["checks"]] \
        == ["sandwich", "decay"]


def test_lyapunov_nan_slack_is_falsified_as_valid_json(capsys):
    # at |xi| = 1e200 the certificate overflows and the slack is nan
    code = main(["lyapunov", "--system", "ex1-timevarying",
                 "--V", "(xi1+xi2)^2", "--alpha1", "1", "--alpha2", "2",
                 "--alpha3", "0", "--alpha4", "2", "--samples", "2000",
                 "--xi-radii", "1e200"])
    assert code == 1

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    checks = report["results"]["checks"]
    assert [c["passed"] for c in checks] == [False, False]
    assert [c["worst_margin"] for c in checks] == [None, None]


@pytest.mark.parametrize("alphas", [["--alpha3", "1"],
                                    ["--alpha3", "0", "--alpha4", "1"]])
def test_a_certificate_undefined_at_a_sample_is_falsified(capsys, alphas):
    # the axis probes set xi2 = 0, where the last term is 0/0
    code = main(["lyapunov", "--system", "lti-remark1",
                 "--V", "xi1^2 + xi2^2 + xi1*xi2^2/xi2", "--alpha1", "0.5",
                 "--alpha2", "4", *alphas, "--samples", "200"])
    stdout, stderr = capsys.readouterr()
    assert (code, stderr) == (1, "")
    for check in _strict_json(stdout)["results"]["checks"]:
        assert check["passed"] is False and check["worst_margin"] is None
        counterexample = check["counterexample"]
        assert counterexample["V"] is None and counterexample["xi"][1] == 0


@pytest.mark.parametrize("argv,code", [
    (["contraction", "--pairs", "5", "--box", "0.5:2,0.5:2", "--tf", "5"], 0),
    (["oes", "--samples", "5", "--box", "0.5:2,0.5:2", "--tf", "5"], 1),
    (["simulate", "--x0", "1,1", "--tf", "5"], 3),
    (["lyapunov", "--V", "xi1^2 + xi2^2", "--alpha1", "0.5", "--alpha2", "2",
      "--alpha3", "0.1", "--samples", "200"], 1),
])
def test_leaving_the_domain_is_a_per_sample_result(tmp_path, sqrt_decay,
                                                   argv, code):
    # f = (-sqrt(x1), -x2): trajectories leave its domain and the default
    # certificate box has x1 < 0; out of process, so stderr is the real one
    path = tmp_path / "sqrt.json"
    path.write_text(json.dumps({
        "name": sqrt_decay.name, "n": sqrt_decay.n, "m": sqrt_decay.m,
        "f": [to_source(e) for e in sqrt_decay.f],
        "h": [to_source(e) for e in sqrt_decay.h]}))
    proc = subprocess.run(
        [sys.executable, "-m", "occtl", *argv, "--system", str(path)],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (code, "")
    assert json.loads(proc.stdout)["exit_code"] == code


def test_overflowing_certificate_samples_print_no_warnings():
    # the samples of the nan-slack test above, out of process: an overflow
    # is judged as a violation, not reported as a numpy warning
    proc = subprocess.run(
        [sys.executable, "-m", "occtl", "lyapunov", "--system",
         "ex1-timevarying", "--V", "(xi1+xi2)^2", "--alpha1", "1",
         "--alpha2", "2", "--alpha3", "0", "--alpha4", "2", "--samples",
         "2000", "--xi-radii", "1e200"],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (1, "")


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv,code", [
    (["contraction", "--pairs", "3", "--box", "0.5:2,0.5:2", "--tf", "5"], 1),
    (["partial", "--pairs", "3", "--box", "0.1:2,0.5:2", "--tf", "5"], 1),
    (["oes-eq", "--y-star", "0", "--pairs", "3", "--box", "0.5:2,0.5:2",
      "--tf", "5"], 1),
    (["simulate", "--x0", "1,1", "--tf", "5"], 3),
])
def test_an_output_outside_its_domain_is_a_per_item_result(tmp_path, capsys,
                                                           argv, code):
    # y = sqrt(x1 - 0.25) while x1 decays to 0, so outputs turn nan before
    # the trajectories end; every report and series file stays strict JSON
    path = tmp_path / "sqrt-out.json"
    path.write_text(json.dumps({"name": "sqrt-out", "n": 2, "m": 1,
                                "f": ["-sqrt(x1)", "-x2"],
                                "h": ["sqrt(x1 - 0.25)"]}))
    out = tmp_path / "out"
    got = main([*argv, "--system", str(path), "--out", str(out),
                "--format", "json"])
    stdout, stderr = capsys.readouterr()
    assert (got, stderr) == (code, "")
    results = _strict_json(stdout)["results"]
    for emitted in out.iterdir():
        _strict_json(emitted.read_text())
    if argv[0] == "simulate":
        assert results["final_output"] == [None]
    else:
        assert results["verdict"]["holds"] is False
        assert results["verdict"]["witness"]["max_d"] is None


def _jacobian_nulls(tmp_path, capsys, f, h, x) -> set:
    """Run `jacobian` on the system (f, h) at x, which must exit 3 with a
    strict JSON report, and name its null entries, as "Jf[0]"."""
    path = tmp_path / "undefined.json"
    path.write_text(json.dumps({"name": "undefined", "n": 2, "m": len(h),
                                "f": f, "h": h}))
    assert main(["jacobian", "--system", str(path), f"--x={x}"]) == 3
    stdout, stderr = capsys.readouterr()
    assert stderr == ""
    return {f"{key}[{i}]"
            for key, value in _strict_json(stdout)["results"].items()
            for i, entry in enumerate(value)
            if None in (entry if isinstance(entry, list) else [entry])}


def test_jacobian_where_h_is_undefined_is_a_numerical_failure(tmp_path,
                                                              capsys):
    # the report is printed, with null where h and its x-partials are nan;
    # h does not mention t, so dh/dt is the exact symbolic 0.0
    assert _jacobian_nulls(tmp_path, capsys, ["-x1", "-x2"],
                           ["sqrt(x1 - 0.25)"], "0.1,0") \
        == {"y[0]", "Jh[0]"}


@pytest.mark.parametrize("f,x,nulls", [
    (["x1/x2", "-x2"], "1,0", {"f[0]", "Jf[0]"}),
    # ln's derivative rule 1/x is finite at x1 = -1, while f[0] is not
    (["ln(x1)", "-x2"], "-1,0", {"f[0]"}),
])
def test_jacobian_where_f_is_undefined_is_a_numerical_failure(
        tmp_path, capsys, f, x, nulls):
    assert _jacobian_nulls(tmp_path, capsys, f, ["x2"], x) == nulls


def test_jacobian_at_a_negative_base_keeps_the_partial_along_the_base(
        tmp_path, capsys):
    # d(x1^x2)/dx1 = x2 x1^(x2 - 1) = -4 at (-2, 2); only the partial along
    # the exponent takes ln(x1), which is nan there
    path = tmp_path / "power.json"
    path.write_text(json.dumps({"name": "power", "n": 2, "m": 1,
                                "f": ["x1^x2", "-x2"], "h": ["x1"]}))
    assert main(["jacobian", "--system", str(path), "--x=-2,2"]) == 3
    results = _strict_json(capsys.readouterr().out)["results"]
    assert results["Jf"][0] == [-4.0, None]


def test_jacobian_where_h_is_not_differentiable_is_a_numerical_failure(
        tmp_path, capsys):
    # sqrt(x1 - 0.25) is defined at x1 = 0.25 but its slope is not; the
    # partials along x2 and t, which h does not mention, are exact zeros
    path = tmp_path / "sqrt-edge.json"
    path.write_text(json.dumps({"name": "sqrt-edge", "n": 2, "m": 1,
                                "f": ["-sqrt(x1)", "-x2"],
                                "h": ["sqrt(x1 - 0.25)"]}))
    assert main(["jacobian", "--system", str(path), "--x", "0.25,1"]) == 3
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["y"] == [0.0]
    assert results["Jh"] == [[None, 0.0]] and results["dh_dt"] == [0.0]
    assert results["Jf"] == [[-1.0, -0.0], [-0.0, -1.0]]


# ---------------------------------------------------------------------------
# reproductions
# ---------------------------------------------------------------------------

def test_reproduce_fig2(tmp_path, capsys):
    code, report = run_cli(capsys, "reproduce", "fig2", "--out", str(tmp_path))
    assert code == 0
    assert report["seed"] is None
    res = report["results"]
    assert res["output_error"] <= 0.005
    assert res["state_norm_exceeds_1e3_at"] < 10.0
    assert (tmp_path / "fig2_trajectory.csv").exists()


def test_reproduce_fig1(tmp_path, capsys):
    code, report = run_cli(capsys, "reproduce", "fig1", "--tf", "5",
                           "--out", str(tmp_path))
    assert code == 0
    assert report["seed"] is None
    res = report["results"]
    assert res["output_divergence_alpha"] >= 0.9
    assert res["state_distance_over_output_divergence"] > 10.0
    assert (tmp_path / "fig1_divergence.csv").exists()


def test_reproduce_remark1_surfaces_the_falsification(tmp_path, capsys):
    code, report = run_cli(capsys, "reproduce", "remark1",
                           "--out", str(tmp_path))
    assert code == 1
    assert report["seed"] == 0
    res = report["results"]
    assert res["output_contraction"]["pairs"] == 25
    assert res["output_contraction"]["holds"] is True
    assert res["partial_contraction"]["holds"] is False
    assert res["partial_contraction"]["witness"]["dy0"] <= 1e-12


def test_reproduce_remark1_honours_tolerances(tmp_path, capsys):
    def divergence(*flags):
        out = tmp_path / "_".join(flags or ("default",))
        code, _ = run_cli(capsys, "reproduce", "remark1", "--pairs", "2",
                          "--tf", "4", "--out", str(out), *flags)
        assert code == 1
        return (out / "remark1_divergence.csv").read_text()

    assert divergence("--rtol", "1e-8", "--atol", "1e-8") == divergence()
    assert divergence("--rtol", "1e-3", "--atol", "1e-3") != divergence()


# ---------------------------------------------------------------------------
# reproducibility of emitted files
# ---------------------------------------------------------------------------

def test_reports_and_series_are_byte_stable(tmp_path, capsys):
    argv = ["contraction", "--system", "lti-remark1", "--pairs", "5",
            "--tf", "6", "--seed", "11", "--out", str(tmp_path)]
    assert main(list(argv)) == 0
    capsys.readouterr()
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(list(argv)) == 0
    capsys.readouterr()
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second
    assert "output-contraction_pair_000.csv" in first
    assert "output-contraction_pair_004.csv" in first


#: commands whose series files are pinned below
SERIES_COMMANDS = (
    ["simulate", "--system", "ex1-timevarying", "--x0=-2.5,-5", "--tf", "5"],
    ["simulate", "--system", "ex1-timevarying", "--x0=-2.5,-5", "--tf", "5",
     "--format", "json"],
    ["reproduce", "fig1"],
    ["reproduce", "fig2"],
    ["reproduce", "remark1", "--pairs", "5"],
    ["contraction", *LTI, "--pairs", "3", "--tf", "4"],
    ["partial", *LTI, "--pairs", "3", "--tf", "4", "--format", "json"],
)

#: sha256[:16] of every series file SERIES_COMMANDS write; the five ex1
#: files were re-recorded when ex1's x^3 became (x*x)*x
SERIES_DIGESTS = {
    "simulate_ex1-timevarying.csv": "e272f68eb0e1ee73",
    "simulate_ex1-timevarying.json": "2d3a6c59d3826dba",
    "fig1_divergence.csv": "b28b071a270cf210",
    "fig1_trajectory_a.csv": "cfb425b89ba132ff",
    "fig1_trajectory_b.csv": "e033458cfe7db04e",
    "fig2_trajectory.csv": "a94a24e53b6a7946",
    "remark1_divergence.csv": "48df3861e6e9d0da",
    "remark1_partial_witness.csv": "4fc87c75263938cc",
    "output-contraction_pair_000.csv": "985107f64ca1631b",
    "output-contraction_pair_001.csv": "d237a9b084b76962",
    "output-contraction_pair_002.csv": "90a9c2be59f5cab9",
    "partial-contraction_pair_000.json": "ae841b3217d14c2e",
    "partial-contraction_pair_001.json": "fb6b26bd0466fac1",
    "partial-contraction_pair_002.json": "3dae5a73e0499d36",
}


def test_series_files_are_pinned(tmp_path, capsys):
    digests = {}
    for i, argv in enumerate(SERIES_COMMANDS):
        out = tmp_path / str(i)
        main([*argv, "--out", str(out)])
        digests.update((p.name, hashlib.sha256(p.read_bytes()).hexdigest()[:16])
                       for p in out.iterdir() if p.name != "report.json")
    capsys.readouterr()
    assert digests == SERIES_DIGESTS


def _columns(path):
    """Header and float columns of a CSV series file."""
    header, *rows = path.read_text().splitlines()
    return header, np.array([[float(v) for v in row.split(",")]
                             for row in rows]).T


def test_csv_round_trips_doubles_and_is_byte_stable(tmp_path, capsys):
    spec = builtin_system("lti-remark1")
    traj = integrate(vector_field(spec), [1.0, 1.0], 0.0, 0.5,
                     IntegratorConfig(method="rk4-fixed", step=0.1))
    texts = []
    for run in ("a", "b"):
        assert main(["simulate", *LTI, "--x0", "1,1", "--tf", "0.5",
                     "--method", "rk4-fixed", "--step", "0.1",
                     "--out", str(tmp_path / run)]) == 0
        texts.append((tmp_path / run / "simulate_lti-remark1.csv").read_text())
    capsys.readouterr()
    assert texts[0] == texts[1]
    header, (t, x1, x2, y1) = _columns(tmp_path / "a/simulate_lti-remark1.csv")
    assert header == "t,x1,x2,y1"
    np.testing.assert_array_equal(t, traj.times)
    np.testing.assert_array_equal(np.stack([x1, x2], axis=-1), traj.states)
    np.testing.assert_array_equal(y1, map_output(spec, traj)[:, 0])


def test_divergence_csv_format(tmp_path, capsys):
    assert main(["contraction", *LTI, "--pairs", "2", "--tf", "4",
                 "--seed", "3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    verdict = check_output_contraction(builtin_system("lti-remark1"),
                                       SamplingPlan(box=((-5.0, 5.0),) * 2,
                                                    pairs=2, seed=3, tf=4.0))
    for result in verdict.results:
        header, (t, d) = _columns(
            tmp_path / f"output-contraction_pair_{result.index:03d}.csv")
        assert header == "t,d"
        np.testing.assert_array_equal(t, result.series.times)
        np.testing.assert_array_equal(d, result.series.d)


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]],
                         ids=["no-format", "json"])
def test_an_empty_out_is_a_one_line_usage_error(monkeypatch, capsys, fmt):
    # an empty --out names no directory: it neither writes nothing quietly
    # nor counts as an absent --out for --format
    monkeypatch.setattr(contraction, "integrate_batch", None)
    assert main(["contraction", *LTI, "--pairs", "2", "--tf", "2",
                 "--out", "", *fmt]) == 2
    assert capsys.readouterr() == (
        "", "error: --out needs a directory name, got ''\n")


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
def test_an_out_that_is_not_a_directory_is_a_usage_error(
        tmp_path, capsys, monkeypatch, under):
    # an existing file, or a path under one, fails before any integration
    monkeypatch.setattr(cli, "integrate_batch", None)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["simulate", *LTI, "--x0", "1,1",
                 "--out", str(taken / under)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write to --out {taken / under}: ")
    assert err.count("\n") == 1
    assert taken.read_text() == ""


@pytest.mark.parametrize("argv, code", [
    (["contraction", "--system", "ex1-timevarying", "--pairs", "5", "--tf",
      "2", "--seed", "7"], 0),
    (["lyapunov", "--system", "ex1-timevarying", "--V", "(xi1+xi2)^2",
      "--alpha1", "1", "--alpha2", "2", "--alpha3", "0", "--alpha4", "12",
      "--samples", "100"], 1),
])
def test_a_closed_stdout_exits_141_without_a_traceback(argv, code):
    # the pipe's reader is closed before the run writes, as when `| head`
    # has already exited; neither the verdict's code nor a traceback shows
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "occtl", *argv],
                              stdout=write, stderr=subprocess.PIPE,
                              text=True, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")
    # an open stdout gets the report and the verdict's code
    assert subprocess.run([sys.executable, "-m", "occtl", *argv],
                          capture_output=True, timeout=60).returncode == code


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "occtl", "jacobian", "--system", "lti-remark1",
         "--x", "0,1"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["Jf"] == [[-2.0, 1.0], [1.0, -2.0]]


def test_contraction_cli_reference_invocation(capsys):
    # the documented reference run: 50 pairs over [-5,5]^2 with seed 7
    code, report = run_cli(capsys, "contraction", "--system",
                           "ex1-timevarying", "--pairs", "50",
                           "--box", " -5:5,-5:5", "--tf", "20", "--seed", "7")
    assert code == 0
    verdict = report["results"]["verdict"]
    assert verdict["holds"] is True
    assert verdict["min_alpha"] >= 0.9
    assert verdict["pairs"] == 50


def test_lyapunov_cli_reference_invocation(capsys):
    # the documented full-scale run: 1e5 samples over [-10,10]^2, t in [0,2pi]
    code, report = run_cli(
        capsys, "lyapunov", "--system", "ex1-timevarying",
        "--V", "(xi1+xi2)^2", "--alpha1", "1", "--alpha2", "2",
        "--alpha3", "0", "--alpha4", "2", "--p", "2",
        "--samples", "100000")
    assert code == 0
    assert all(c["passed"] for c in report["results"]["checks"])
    assert all(c["checked"] >= 100000 for c in report["results"]["checks"])


# ---------------------------------------------------------------------------
# documentation
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"
LONG_OPTION = re.compile(r"--[A-Za-z][\w-]*")


def _long_options(parser) -> set:
    """The long options of `parser` and of its subcommands, nested ones
    included, but --help and --version."""
    options = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _long_options(sub)
        else:
            options.update(flag for flag in action.option_strings
                           if flag.startswith("--"))
    return options - {"--help", "--version"}


@pytest.mark.parametrize("label, record, omitted", [
    ("verdict JSON", Verdict, {"results"}),
    ("falsification JSON", FalsificationReport, set())])
def test_readme_lists_the_fields_each_report_renders(label, record, omitted):
    rest = README.read_text().split(f"\n- {label}: ")[1]
    item = re.split(r"\n(?:- |\n)", rest)[0].split(";")[0]
    assert re.findall(r"`(\w+)`", item) == [
        f.name for f in dataclasses.fields(record) if f.name not in omitted]


def test_readme_and_the_parser_name_the_same_long_options():
    text = README.read_text()
    section = text.split("\n## Command line\n")[1].split("\n## ")[0]
    options = _long_options(cli.build_parser())
    assert options - set(LONG_OPTION.findall(text)) == set()
    assert set(LONG_OPTION.findall(section)) - options == set()
