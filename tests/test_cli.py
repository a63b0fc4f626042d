import argparse
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import count_calls, write_tabulated_csv
from weakmodel import criterion, extension, quadrature, radial
from weakmodel.cli import main
from weakmodel.report import write_json_atomic
from weakmodel.spectrum import sphere_quadrature
from weakmodel.warp import Hyperbolic, PowerGrowth


def run(args):
    return main(args)


def test_classify_convergent(tmp_path, capsys):
    out = str(tmp_path / "o")
    code = run(["classify", "--family", "hyperbolic", "--a", "1", "--n", "2",
                "--out", out])
    assert code == 0
    rep = json.loads((tmp_path / "o" / "classify.json").read_text())
    assert rep["march"]["verdict"] == "Convergent"
    assert rep["transience"]["verdict"] == "Convergent"
    assert abs(rep["march"]["value"] - (math.log(math.tanh(0.5))) ** 2 / 2) < 1e-6


_LOADED_SCIPY = """
import json, sys
out, steps, fft, code = sys.argv[1], [], [], []
def loaded(step):
    steps.append([step, sorted(k for k in sys.modules if k.split(".")[0] == "scipy")])
    fft.append([step, "numpy.fft" in sys.modules])
import weakmodel.cli as cli
loaded("import")
def run(step, command, *args, family=("--family", "hyperbolic", "--a", "1")):
    code.append(cli.main([command, *family, *args]))
    loaded(step)
run("classify", "classify", "--n", "2", "--out", out + "/c2")
run("n = 2 solve", "solve", "--n", "2", "--modes", "3", "--out", out + "/s2")
run("n = 3 solve", "solve", "--n", "3", "--modes", "1", "--out", out + "/s3")
run("n = 2 verify --artifacts", "verify", "--n", "2", "--modes", "3",
    "--artifacts", out + "/s2", "--out", out + "/v2")
run("n = 3 verify", "verify", "--n", "3", "--modes", "1", "--out", out + "/v3")
for n in ("4", "5"):
    run(f"n = {n} power-log classify", "classify", "--n", n, "--out", out + "/p" + n,
        family=("--family", "powerlog", "--c", "0.6"))
print(json.dumps({"steps": steps, "fft": fft, "code": code,
                  "integrate": "scipy.integrate" in sys.modules}))
"""


def test_commands_load_only_the_scipy_they_need(tmp_path):
    # a fresh process: importing the CLI, classify, solve and verify at
    # n = 2 and n = 3, and a power-log classify at n = 4 and 5, whose tail
    # needs the incomplete beta, load no scipy; the ODE solve, the
    # growth-bound check and the incomplete beta are the package's own.
    # No step loads numpy.fft either: the n = 2 annulus oracle projects on
    # a dense real Fourier basis, since a first FFT call costs more memory
    # and time than the whole direct solve
    src = Path(main.__code__.co_filename).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _LOADED_SCIPY, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert [step for step, _ in result["steps"]] == [
        "import", "classify", "n = 2 solve", "n = 3 solve",
        "n = 2 verify --artifacts", "n = 3 verify", "n = 4 power-log classify",
        "n = 5 power-log classify"]
    for step, modules in result["steps"]:
        assert modules == [], step
    assert result["fft"] == [[step, False] for step, _ in result["steps"]]
    assert result["code"] == [0] * 7
    assert not result["integrate"]
    assert json.loads((tmp_path / "s3" / "profiles.json").read_text())[1]["normalized"]


_LOADED_PACKAGE = """
import json, sys
import weakmodel.cli as cli
out, steps = sys.argv[1], []
for step in sys.argv[2:]:
    family = [] if step == "sweep" else ["--family", "hyperbolic", "--a", "1"]
    code = cli.main([step, *family, "--out", out + "/" + step])
    steps.append([step, code, sorted(k for k in sys.modules if k.startswith("weakmodel"))])
print(json.dumps(steps))
"""

_CRITERION_MODULES = ["weakmodel", "weakmodel.cli", "weakmodel.criterion",
                      "weakmodel.errors", "weakmodel.quadrature",
                      "weakmodel.report", "weakmodel.warp"]


@pytest.mark.parametrize("commands", [["classify", "sweep", "solve"], ["verify"]])
def test_commands_load_only_the_modules_they_run(tmp_path, commands):
    # a fresh process: classify and sweep decide the criterion alone, and
    # load none of radial, spectrum, extension and oracle; solve and verify
    # load all four, so that after a first solve no later command imports
    src = Path(main.__code__.co_filename).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _LOADED_PACKAGE, str(tmp_path),
                           *commands], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert [step for step, _, _ in steps] == commands
    for step, code, modules in steps:
        assert code == 0, step
        expected = (_CRITERION_MODULES if step in ("classify", "sweep") else sorted(
            _CRITERION_MODULES + [f"weakmodel.{name}" for name in (
                "extension", "oracle", "radial", "spectrum")]))
        assert modules == expected, step


@pytest.mark.parametrize("command,family,rmax", [
    ("classify", ["hyperbolic", "--a", "1"], "nan"),
    ("classify", ["powergrowth", "--p", "2", "--n", "3"], "inf"),
    ("verify", ["euclidean"], "nan"),
    ("solve", ["hyperbolic", "--a", "1"], "-inf"),
    ("classify", ["hyperbolic", "--a", "1"], "0"),
    ("classify", ["hyperbolic", "--a", "1"], "-5")])
def test_non_finite_or_non_positive_rmax_is_refused(tmp_path, capsys, command,
                                                    family, rmax):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([command, "--family", *family, f"--rmax={rmax}",
                    "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"rmax must be positive and finite, got {float(rmax)}" in err
    assert not (tmp_path / "o").exists()


def test_classify_divergent(tmp_path):
    code = run(["classify", "--family", "euclidean", "--n", "3",
                "--out", str(tmp_path / "o")])
    assert code == 2


def test_classify_threshold_case(tmp_path):
    # c exactly at the n=3 threshold: divergent by the elementary tail bound
    code = run(["classify", "--family", "powerlog", "--c", "0.5", "--n", "3",
                "--out", str(tmp_path / "o")])
    assert code == 2
    rep = json.loads((tmp_path / "o" / "classify.json").read_text())
    assert "threshold" in rep["march"]["tail_evidence"]


def test_classify_inconclusive_tabulated(tmp_path):
    csv = write_tabulated_csv(tmp_path / "w.csv", Hyperbolic(1.0),
                              np.geomspace(1e-4, 10.0, 400))
    code = run(["classify", "--warp-csv", str(csv), "--n", "2",
                "--out", str(tmp_path / "o")])
    assert code == 3


def test_classify_reads_the_old_four_column_layout_unchanged(tmp_path):
    w = Hyperbolic(1.0)
    grid = np.geomspace(1e-4, 30.0, 400)
    phi, dphi = w.eval(grid)
    old = tmp_path / "old.csv"
    np.savetxt(old, np.column_stack([grid, phi, dphi, phi]), fmt="%.17g",
               delimiter=",", header="r,phi,dphi,ddphi", comments="")
    new = write_tabulated_csv(tmp_path / "new.csv", w, grid)
    for name, path in (("old", old), ("new", new)):
        assert run(["classify", "--warp-csv", str(path), "--n", "3",
                    "--out", str(tmp_path / name)]) == 3
    assert ((tmp_path / "old" / "classify.json").read_bytes()
            == (tmp_path / "new" / "classify.json").read_bytes())


def _refused_by_name(capsys, args, path):
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and "Traceback" not in err


def test_malformed_input_files_are_refused_by_name(tmp_path, capsys):
    warp = write_tabulated_csv(tmp_path / "w.csv", Hyperbolic(1.0),
                               np.geomspace(1e-4, 30.0, 50))
    lines = warp.read_text().splitlines()
    warp.write_text("\n".join(lines[:4] + ["0.5,0.5"] + lines[5:]) + "\n")
    _refused_by_name(capsys, ["classify", "--warp-csv", str(warp), "--n", "3",
                              "--out", str(tmp_path / "c")], warp)
    solve = ["solve", "--family", "hyperbolic", "--a", "1", "--n", "2",
             "--modes", "3", "--out", str(tmp_path / "s")]
    bc = tmp_path / "bc.csv"
    bc.write_text("angle,f\n0.0,1.0\n")
    _refused_by_name(capsys, solve + ["--bc-csv", str(bc)], bc)
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text('[{"k": 0, "c": 1.0}]')
    _refused_by_name(capsys, solve + ["--coeffs", str(coeffs)], coeffs)
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("n,bad", [(2, "nan"), (3, "inf")])
def test_boundary_csv_sample_that_is_not_finite_is_refused_by_line(
        tmp_path, capsys, n, bad):
    # unchecked, a nan sample solved to "truncation bound nan" with exit 0
    quad = sphere_quadrature(n, 4)
    vals = np.cos(quad.points if n == 2 else quad.points[:, 0])
    vals[3] = float(bad)
    bc = tmp_path / "bc.csv"
    np.savetxt(bc, np.column_stack([quad.points, vals]), fmt="%.17g",
               delimiter=",", header="theta,f" if n == 2 else "colat,lon,f",
               comments="")
    assert run(["solve", "--family", "hyperbolic", "--a", "1", "--n", str(n),
                "--modes", "4", "--bc-csv", str(bc), "--at-infinity",
                "--out", str(tmp_path / "s")]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {bc}, line 5: f is '{bad}', not a finite number\n"
    assert out == "" and not (tmp_path / "s").exists()


@pytest.mark.parametrize("record,message", [
    ('{"m": 1, "k": 0, "c": NaN}', "coefficient c_{1,0} is nan, not a finite number"),
    ('{"m": 1, "k": 0, "c": Infinity}', "coefficient c_{1,0} is inf, not a finite number"),
    ('{"m": -1, "k": 0, "c": 1.0}', "coefficient index (m, k) = (-1, 0) is negative"),
    ('{"m": 1, "k": -1, "c": 1.0}', "coefficient index (m, k) = (1, -1) is negative"),
    ('{"m": 1.7, "k": 0, "c": 1.0}', "coefficient index m = 1.7 is not an integer"),
    ('{"m": true, "k": 0, "c": 1.0}', "coefficient index m = true is not an integer"),
    ('{"m": 1, "k": 0.5, "c": 1.0}', "coefficient index k = 0.5 is not an integer"),
    ('{"m": 1, "k": 3, "c": 1.0}',
     "coefficient index (m, k) = (1, 3) has k outside 0..2 for n=3"),
    ('{"m": 1, "k": 0, "c": true}', "coefficient c = true is not a number"),
    ('{"m": 1, "k": 0, "c": "2.5"}', 'coefficient c = "2.5" is not a number'),
], ids=["nan", "inf", "negative_m", "negative_k", "fractional_m", "boolean_m",
        "fractional_k", "k_past_multiplicity", "boolean_c", "text_c"])
def test_coefficient_record_that_is_not_finite_or_not_a_mode_is_refused_by_name(
        tmp_path, capsys, record, message):
    # unchecked, NaN and Infinity solved with exit 0 (Infinity with a
    # RuntimeWarning at n = 3), m = -1 ended in a KeyError traceback, and
    # m = 1.7 or true was solved as mode 1; k = 3 wrote the profiles before
    # it failed, naming no file, and c = true or "2.5" was solved as 1 or 2.5
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(f'[{{"m": 0, "k": 0, "c": 1.0}}, {record}]')
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["solve", "--family", "hyperbolic", "--a", "1", "--n", "3",
                    "--modes", "3", "--coeffs", str(coeffs),
                    "--out", str(tmp_path / "s")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {coeffs}: {message}\n"
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("preset,message", [
    ("constant:nan", "coefficient c_{0,0} is nan, not a finite number"),
    ("single:-1:0", "boundary preset 'single:-1:0' is not of the form "
                    "single:m:k, with integers m, k >= 0"),
    ("single:1", "boundary preset 'single:1' is not of the form single:m:k, "
                 "with integers m, k >= 0"),
    ("constant:abc", "boundary preset 'constant:abc' is not of the form "
                     "constant[:v], with v a number"),
    ("single:1:5", "coefficient index (m, k) = (1, 5) has k outside 0..1 for n=2"),
    ("nope", "unknown boundary preset 'nope'"),
], ids=["constant_nan", "single_negative", "single_short", "constant_text",
        "single_past_multiplicity", "unknown"])
def test_malformed_preset_is_refused_by_name(tmp_path, capsys, preset, message):
    # unchecked, constant:nan solved to nan with exit 0, single:-1:0 ended in
    # a KeyError traceback, single:1 printed "not enough values to unpack" and
    # constant:abc "could not convert string to float: 'abc'"; single:1:5
    # wrote the profiles before it failed
    assert run(["solve", "--family", "hyperbolic", "--a", "1", "--n", "2",
                "--modes", "4", "--preset", preset,
                "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "s").exists()


def test_tabulated_classify_honours_rmax(tmp_path):
    # the finite part stops at --rmax when it lies inside the samples; it is
    # still a lower bound, smaller than the one up to the last sample
    csv = write_tabulated_csv(tmp_path / "h1.csv", Hyperbolic(1.0),
                              np.geomspace(1e-4, 30.0, 400))
    reps = {}
    for name, extra in (("full", []), ("cut", ["--rmax", "5"])):
        code = run(["classify", "--warp-csv", str(csv), "--n", "2", *extra,
                    "--out", str(tmp_path / name)])
        assert code == 3
        reps[name] = json.loads((tmp_path / name / "classify.json").read_text())
    for key in ("march", "transience"):
        full, cut = reps["full"][key], reps["cut"][key]
        assert full["r_max"] == 29.85 and cut["r_max"] == 5.0
        assert 0 < cut["value"] < full["value"]
        assert "no tail beyond r = 5 is certified" in cut["tail_evidence"]
        assert "beyond the data at r = 29.85" in full["tail_evidence"]


_EMPTY_FINITE_PART = """ {{
  "error_bound": "Infinity",
  "r_max": {r_max},
  "tail_evidence": "no growth class: the finite part over [1, {R}] is a lower bound (positive integrand), quadrature error 0; no tail beyond r = {R} is certified",
  "value": 0.0,
  "verdict": "Inconclusive"
 }}"""


@pytest.mark.parametrize("rmax, r_max", [("0.5", "0.5"), ("1", "1.0")])
def test_tabulated_n3_classify_of_an_empty_range(tmp_path, capsys, rmax, r_max):
    # at --rmax <= 1 the finite part over [1, R] is empty: value 0 and exit
    # 3, with no domain error and no warning, in the bytes recorded before
    # the n = 3 cumulative became exact
    csv = write_tabulated_csv(tmp_path / "h1.csv", Hyperbolic(1.0),
                              np.geomspace(1e-4, 30.0, 400))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["classify", "--warp-csv", str(csv), "--n", "3",
                    "--rmax", rmax, "--out", str(tmp_path / "c")])
    assert code == 3
    assert capsys.readouterr().out == (
        "march: Inconclusive (value 0); transience: Inconclusive\n")
    part = _EMPTY_FINITE_PART.format(r_max=r_max, R=rmax)
    assert (tmp_path / "c" / "classify.json").read_text() == (
        f'{{\n "march":{part},\n "n": 3,\n "transience":{part},\n'
        f' "warp": "Tabulated(400 nodes on [0.0001, 30])"\n}}\n')


def test_tabulated_data_get_no_verdict(tmp_path, monkeypatch, capsys):
    # sampled data have no growth class: classify reports Inconclusive (exit
    # 3), and solve refuses as not solvable (exit 2) before building anything
    csv = write_tabulated_csv(tmp_path / "w.csv", Hyperbolic(1.0),
                              np.geomspace(1e-4, 30.0, 400))
    code = run(["classify", "--warp-csv", str(csv), "--n", "3",
                "--out", str(tmp_path / "c")])
    assert code == 3
    rep = json.loads((tmp_path / "c" / "classify.json").read_text())
    assert rep["march"]["verdict"] == rep["transience"]["verdict"] == "Inconclusive"
    builds = count_calls(monkeypatch, extension, "build_extension")
    code = run(["solve", "--warp-csv", str(csv), "--n", "3",
                "--out", str(tmp_path / "s")])
    assert code == 2 and builds == []
    assert "not solvable: criterion verdict Inconclusive" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("args", [
    ["classify", "--family", "euclidean", "--n", "3", "--modes", "2"],
    ["classify", "--family", "euclidean", "--n", "3", "--bogus", "1"],
    ["sweep", "--n", "1"],
    ["sweep", "--family", "euclidean"],
    ["solve", "--family", "euclidean", "--artifacts", "x"],
], ids=["classify_modes", "classify_bogus", "sweep_n", "sweep_family",
        "solve_artifacts"])
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys, args):
    # a usage error exits 1, never 2, which classify prints for Divergent
    assert run(args + ["--out", str(tmp_path / "o")]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_help_lists_only_the_flags_a_command_reads(capsys):
    flags = {}
    for cmd in ("classify", "solve", "verify", "sweep"):
        assert run([cmd, "--help"]) == 0
        flags[cmd] = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert flags["sweep"] == {"--help", "--tol", "--out", "--config"}
    assert "--modes" not in flags["classify"]
    assert flags["solve"] ^ flags["verify"] == {"--at-infinity", "--artifacts"}


def test_classify_bad_args(tmp_path, capsys):
    code = run(["classify", "--family", "hyperbolic", "--n", "2",
                "--out", str(tmp_path / "o")])   # missing --a
    assert code == 1
    assert "error" in capsys.readouterr().err
    code = run(["classify", "--family", "euclidean", "--n", "2", "--tol",
                "-1", "--out", str(tmp_path / "o")])
    assert code == 1
    code = run(["classify", "--warp-csv", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path / "o")])
    assert code == 1


def test_solve_artifacts(tmp_path):
    out = tmp_path / "s"
    code = run(["solve", "--family", "hyperbolic", "--a", "1", "--n", "2",
                "--modes", "4", "--preset", "cos", "--out", str(out)])
    assert code == 0
    names = sorted(os.listdir(out))
    assert "coefficients.json" in names
    assert "evaluation.csv" in names
    assert "summary.json" in names
    assert all(f"profile_m{m}.csv" in names for m in range(5))
    # u(r=1, theta=0) from the evaluation grid, nearest row to (1, 0)
    rows = (out / "evaluation.csv").read_text().strip().splitlines()[1:]
    best, val = 1e9, None
    for line in rows:
        r, th, u = (float(x) for x in line.split(","))
        d = abs(r - 1.0) + abs(th)
        if d < best:
            best, val = d, (r, th, u)
    r, th, u = val
    assert abs(u - math.tanh(r / 2) * math.cos(th)) < 1e-4
    # coefficient export carries the cos preset
    coeffs = json.loads((out / "coefficients.json").read_text())
    assert any(rec["m"] == 1 and abs(rec["c"] - math.sqrt(math.pi)) < 1e-9
               for rec in coeffs)


def test_solve_constant_preset(tmp_path):
    out = tmp_path / "s"
    code = run(["solve", "--family", "hyperbolic", "--a", "1", "--n", "2",
                "--modes", "2", "--preset", "constant:3.5", "--out", str(out)])
    assert code == 0
    rows = (out / "evaluation.csv").read_text().strip().splitlines()[1:]
    us = np.array([float(line.split(",")[2]) for line in rows])
    assert np.max(np.abs(us - 3.5)) < 1e-9


def test_solve_divergent_writes_nothing(tmp_path, capsys):
    out = tmp_path / "nope"
    code = run(["solve", "--family", "euclidean", "--n", "2",
                "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "not solvable" in capsys.readouterr().err


def test_verify_full_suite(tmp_path, capsys):
    code = run(["verify", "--family", "hyperbolic", "--a", "1", "--n", "2",
                "--modes", "3", "--out", str(tmp_path / "v")])
    assert code == 0
    rep = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert rep["all_passed"] is True
    names = {c["name"] for c in rep["checks"]}
    assert {"riccati_residual", "riccati_inequality", "lemma_bound",
            "monotone_nonnegative", "maximum_principle", "fd_residual",
            "annulus_cross_check"} <= names
    assert all(c["passed"] for c in rep["checks"])


@pytest.mark.parametrize("n,slack", [(3, "1e-9"), (4, "1e-9 max(1, phi^(n-3))")])
def test_verify_prints_the_riccati_slack_it_checks(tmp_path, n, slack):
    # at n >= 4 the inequality allows rounding that grows with phi^(n-3)
    assert run(["verify", "--family", "powergrowth", "--p", "0.8", "--n", str(n),
                "--modes", "2", "--out", str(tmp_path / "v")]) == 0
    rep = json.loads((tmp_path / "v" / "verify.json").read_text())
    detail = {c["name"]: c["detail"] for c in rep["checks"]}["riccati_inequality"]
    assert detail == f"x' <= phi^(n-3) + {slack} pointwise"


def test_verify_traces_and_certifies_each_profile_once(tmp_path, monkeypatch):
    traces = count_calls(monkeypatch, radial, "riccati_trace")
    certs = count_calls(monkeypatch, criterion, "tail_certificate")
    solve_modes = radial.solve_modes
    stack_radii = []

    def counted(*args, **kwargs):
        bound = inspect.signature(solve_modes).bind(*args, **kwargs)
        stack_radii.append(bound.arguments["r_max"])
        return solve_modes(*args, **kwargs)

    monkeypatch.setattr(radial, "solve_modes", counted)
    # n = 3: the n = 2 modes are closed forms, with no solve or certificate
    code = run(["verify", "--family", "hyperbolic", "--a", "1", "--n", "3",
                "--modes", "4", "--out", str(tmp_path / "v")])
    assert code == 0
    assert len(traces) == 4
    # the checks run on the extension's profiles: all five modes in one
    # stacked solve, normalized with the certificate the criterion report
    # holds at its r_max 60, and no other
    assert stack_radii == [60.0]
    assert sorted(args[2] for args in certs) == []


def test_n2_verify_reads_tau_once_per_point_set(tmp_path, monkeypatch):
    # the modes share one conformal time, which integrates tau once for
    # each point set: the grid, the trace grid, r = 1, the checks' radii
    calls = []
    log_between = quadrature.LogCumulative.log_between

    def counted(self, x):
        calls.append((id(self), np.shape(x), np.asarray(x, dtype=float).tobytes()))
        return log_between(self, x)

    monkeypatch.setattr(quadrature.LogCumulative, "log_between", counted)
    code = run(["verify", "--family", "hyperbolic", "--a", "1", "--n", "2",
                "--modes", "4", "--preset", "band4", "--out", str(tmp_path / "v")])
    assert code == 0
    assert len(calls) == len(set(calls)) >= 5


def test_n2_verify_reads_phi_at_most_at_the_nodes_of_the_panels(tmp_path, monkeypatch):
    # tau and the growth bound read each partial panel from the log
    # integrands its pass kept at the panel's own K15 nodes: a read of
    # hundreds of points evaluates phi at no node at all
    reads, nodes = [], []
    log_between, prefix = quadrature.LogCumulative.log_between, quadrature.log_prefix
    log_phi = Hyperbolic.log_phi

    def counted_phi(self, r):
        nodes.append(np.size(r))
        return log_phi(self, r)

    def counted(read):
        def wrapper(*args):
            before = sum(nodes)
            out = read(*args)
            reads.append((np.size(args[-1]), sum(nodes) - before))
            return out
        return wrapper

    monkeypatch.setattr(Hyperbolic, "log_phi", counted_phi)
    monkeypatch.setattr(quadrature.LogCumulative, "log_between", counted(log_between))
    monkeypatch.setattr(quadrature, "log_prefix", counted(prefix))
    assert run(["verify", "--family", "hyperbolic", "--a", "1", "--n", "2",
                "--modes", "4", "--out", str(tmp_path / "v")]) == 0
    assert max(points for points, _ in reads) >= 481 and sum(nodes) > 0
    assert [evaluated for _, evaluated in reads] == [0] * len(reads)


def _count_triple_passes(monkeypatch):
    """The triangle of each adaptive pass of panel triples, through both
    names the program calls the loop by."""
    passes = []
    quad = quadrature.adaptive_quad_log

    def counted(logf, edges, *args, triangle=None, **kwargs):
        if triangle is not None:
            passes.append(triangle)
        return quad(logf, edges, *args, triangle=triangle, **kwargs)

    monkeypatch.setattr(quadrature, "adaptive_quad_log", counted)
    monkeypatch.setattr(criterion, "adaptive_quad_log", counted)
    return passes


def test_n3_verify_evaluates_the_stack_and_the_exponent_once(tmp_path, monkeypatch):
    # every mode slices one evaluation of the stacked dense output per point
    # set, and the criterion's pass of panel triples is the only one: the
    # growth bound reads its exponent from the report's panels, at the
    # solve's own grid nodes, held in memory or read from its artifacts
    calls, reads = [], []
    dense = radial.PanelSolution.__call__
    prefix = quadrature.log_prefix

    def counted_dense(self, t, derivative=False):
        calls.append((id(self), np.asarray(t, dtype=float).tobytes(), derivative))
        return dense(self, t, derivative)

    def counted_prefix(panels, x):
        reads.append(np.asarray(x, dtype=float).tobytes())
        return prefix(panels, x)

    monkeypatch.setattr(radial.PanelSolution, "__call__", counted_dense)
    passes = _count_triple_passes(monkeypatch)
    monkeypatch.setattr(quadrature, "log_prefix", counted_prefix)
    flags = ["--family", "hyperbolic", "--a", "1", "--n", "3", "--modes", "4"]
    assert run(["verify", *flags, "--out", str(tmp_path / "v")]) == 0
    # the solve's grid, the trace grid with and without the derivative,
    # r = 1, and the radii of the maximum principle and the FD stencils:
    # the growth bound is compared with the solve's own rows, not a fresh
    # evaluation at their nodes
    assert len(calls) == len(set(calls)) == 6
    assert passes == [(-2, 0)] and len(reads) == 1
    assert run(["solve", *flags, "--out", str(tmp_path / "s")]) == 0
    passes.clear()
    reads.clear()
    assert run(["verify", *flags, "--artifacts", str(tmp_path / "s"),
                "--out", str(tmp_path / "va")]) == 0
    assert passes == [(-2, 0)] and len(reads) == 1


@pytest.mark.parametrize("n", [2, 3])
def test_verify_bounds_the_same_nodes_with_and_without_artifacts(tmp_path, monkeypatch, n):
    # the growth bound reads the rows solve writes: held in memory, or read
    # back from its profile CSVs, the same nodes of [1, 20] to the CSV's 15
    # digits, so an untampered solve verifies to the same report either way
    reads = []
    check = radial.lemma_bound_check

    def spy(profile, r):
        reads.append(np.asarray(r, dtype=float))
        return check(profile, r)

    monkeypatch.setattr(radial, "lemma_bound_check", spy)
    flags = ["--family", "hyperbolic", "--a", "1", "--n", str(n), "--modes", "4"]
    assert run(["solve", *flags, "--out", str(tmp_path / "s")]) == 0
    assert run(["verify", *flags, "--out", str(tmp_path / "v")]) == 0
    own = reads[:]
    reads.clear()
    assert run(["verify", *flags, "--artifacts", str(tmp_path / "s"),
                "--out", str(tmp_path / "va")]) == 0
    assert len(own) == len(reads) == 4
    for mine, loaded in zip(own, reads):
        assert mine[0] >= 1.0 and mine[-1] <= 20.0 and mine.shape == loaded.shape
        np.testing.assert_allclose(mine, loaded, rtol=1e-14, atol=0.0)
    assert ((tmp_path / "v" / "verify.json").read_bytes()
            == (tmp_path / "va" / "verify.json").read_bytes())


def test_n2_verify_makes_one_pass_of_triples_and_one_tau(tmp_path, monkeypatch):
    # at n = 2 the growth bound reads the criterion's panels too, and tau
    # keeps its one cumulative
    passes = _count_triple_passes(monkeypatch)
    taus = count_calls(monkeypatch, quadrature, "LogCumulative")
    assert run(["verify", "--family", "hyperbolic", "--a", "1", "--n", "2",
                "--modes", "4", "--out", str(tmp_path / "v")]) == 0
    assert passes == [(-1, -1)] and len(taus) == 1


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("metric, R", [(("hyperbolic", "--a", "1"), 60.0),
                                       (("powerlog", "--c", "2"), 100.0)],
                         ids=["hyperbolic", "powerlog"])
def test_n2_extension_integrates_one_over_phi_once(tmp_path, monkeypatch, command,
                                                   metric, R):
    # tau reads the int phi^-1 column of the criterion's pass of triples
    # over [1, R], and makes one short pass of its own over [1e-3, 1]: no
    # other adaptive pass runs.  tau's own cumulative spanned [log 1e-3, log R]
    passes = count_calls(monkeypatch, criterion, "adaptive_quad_log")
    short = count_calls(monkeypatch, quadrature, "adaptive_quad_log")
    assert run([command, "--family", *metric, "--n", "2", "--modes", "3",
                "--out", str(tmp_path / "o")]) == 0
    assert [(c[1][0], c[1][-1]) for c in passes] == [(1.0, R)]
    assert [(c[1][0], c[1][-1]) for c in short] == [(1e-3, 1.0)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rmax", ["1e5", "1e30", "1e300"])
@pytest.mark.parametrize("metric, exact", [
    (("hyperbolic", "--a", "1"), lambda r, m: np.tanh(r / 2) ** m),
    (("powergrowth", "--p", "2"), lambda r, m: np.exp(-m * np.arcsinh(1 / r))),
    (("powerlog", "--c", "2"), None)], ids=["hyperbolic", "powergrowth", "powerlog"])
def test_n2_extensions_reach_every_certified_radius(tmp_path, metric, exact, rmax):
    # past the trace range the n = 2 modes read log phi alone, so they are
    # built at every radius the criterion certifies, also where phi itself
    # overflows (Hyperbolic(1) past r = 710): such a solve was refused with
    # "phi(719.982) is not finite"
    flags = ["--family", *metric, "--n", "2", "--modes", "3", "--rmax", rmax]
    assert run(["solve", *flags, "--out", str(tmp_path / "s")]) == 0
    assert json.loads((tmp_path / "s" / "summary.json").read_text())["r_max"] == float(rmax)
    assert run(["verify", *flags, "--artifacts", str(tmp_path / "s"),
                "--out", str(tmp_path / "v")]) == 0
    assert json.loads((tmp_path / "v" / "verify.json").read_text())["all_passed"]
    if exact is None:
        return
    bound = {p["m"]: p["limit_error"]
             for p in json.loads((tmp_path / "s" / "profiles.json").read_text())}
    for m in (1, 2, 3):
        r, v = np.loadtxt(tmp_path / "s" / f"profile_m{m}.csv", delimiter=",",
                          skiprows=1, usecols=(0, 1), unpack=True)
        gap = np.max(np.abs(v - exact(r, m)))
        assert gap <= bound[m] + 1e-14, (m, gap, bound[m])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("metric, rmax, R, solved", [
    (("hyperbolic", "--a", "1"), "10", 13.0, 13.0),
    (("powerlog", "--c", "5"), "5", 10.4, 100.77)], ids=["hyperbolic", "powerlog"])
def test_verify_traces_inside_a_criterion_radius_below_20(tmp_path, monkeypatch,
                                                         metric, rmax, R, solved):
    # --rmax below the sandwich's start gives the criterion that start as
    # its radius: 13 for Hyperbolic(1), 10.4 for PowerLog(5), whose modes
    # suggest_rmax solves out to about 100.77.  The trace, whose growth
    # bound reads the criterion's panels, stops at the criterion's radius
    traces = count_calls(monkeypatch, radial, "riccati_trace")
    flags = ["--family", metric[0], metric[1], metric[2], "--n", "3",
             "--modes", "4", "--preset", "cos", "--rmax", rmax]
    assert run(["solve", *flags, "--out", str(tmp_path / "s")]) == 0
    assert run(["verify", *flags, "--out", str(tmp_path / "v")]) == 0
    assert run(["verify", *flags, "--artifacts", str(tmp_path / "s"),
                "--out", str(tmp_path / "va")]) == 0
    assert len(traces) == 8
    for profile, s_grid in traces:
        assert s_grid[-1] == pytest.approx(R, rel=1e-15)
        assert profile.r_max == pytest.approx(solved, rel=1e-4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("size", [50, 400])
@pytest.mark.parametrize("w, top", [(Hyperbolic(1.0), 30.0), (PowerGrowth(2.0), 300.0)],
                         ids=repr)
def test_table_growth_bound_reads_the_inconclusive_report(tmp_path, monkeypatch,
                                                          w, top, size, n):
    # a table is classified at rtol 1e-12 like every metric, so the growth
    # bound read from its Inconclusive report's panels lies within 1e-12 of
    # a fresh rtol-1e-12 pass over the trace grid alone
    reads = []
    check = radial.lemma_bound_check

    def spy(profile, r):
        bound = check(profile, r)
        reads.append((profile, r, bound))
        return bound

    monkeypatch.setattr(radial, "lemma_bound_check", spy)
    path = write_tabulated_csv(tmp_path / "t.csv", w, np.geomspace(1e-4, top, size))
    assert run(["verify", "--warp-csv", str(path), "--n", str(n), "--modes", "4",
                "--out", str(tmp_path / "v")]) == 0
    assert len(reads) == 4
    for profile, r, bound in reads:
        assert profile.report.verdict == criterion.INCONCLUSIVE
        t, q = profile.warp, (1 - n, n - 3)
        _, _, panels = quadrature.adaptive_quad_log(
            t.log_phi, np.geomspace(1.0, r[-1], 9), rtol=1e-12, triangle=q)
        log_t, log_f, _ = quadrature.log_prefix(panels, r)
        A, B = radial.riccati_trace(profile, [1.0]).x[0], profile.interp(1.0)
        fresh = B * np.exp(profile.mode.lambda_sq * (A * np.exp(log_f) + np.exp(log_t)))
        np.testing.assert_allclose(bound, fresh, rtol=1e-12, atol=0.0)


def test_solve_refuses_radius_where_phi_overflows(tmp_path, capsys):
    # sinh(r) overflows double precision near r = 710: a clear refusal
    # that names the radius, and no overflow warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["solve", "--family", "hyperbolic", "--a", "1", "--n", "3",
                    "--modes", "2", "--rmax", "1000",
                    "--out", str(tmp_path / "s")])
    assert code == 1
    err = capsys.readouterr().err
    assert ("error: phi(719.982) is not finite inside [0.001, 1000]; the "
            "radial solve needs a smaller r_max") in err
    assert "<= 0" not in err


def test_solve_and_verify_just_below_phi_overflow(tmp_path):
    # at r = 709.8 phi is still finite but r * phi' overflows; the
    # right-hand side uses rho * phi' with rho = r / phi instead
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for cmd in ("solve", "verify"):
            code = run([cmd, "--family", "hyperbolic", "--a", "1", "--n", "3",
                        "--modes", "2", "--rmax", "709.8",
                        "--out", str(tmp_path / cmd)])
            assert code == 0, cmd
    rep = json.loads((tmp_path / "verify" / "verify.json").read_text())
    assert rep["all_passed"] is True


def test_a_failed_report_write_leaves_no_tmp_file(tmp_path):
    # the rename onto a directory fails: the error is raised and the
    # tmp file beside the target is removed
    target = tmp_path / "report.json"
    target.mkdir()
    (target / "keep").write_text("")
    with pytest.raises(OSError):
        write_json_atomic({"a": 1.0}, target)
    assert os.listdir(tmp_path) == ["report.json"]


def test_negative_band_limit_refused(tmp_path, capsys):
    for cmd in ("solve", "verify"):
        code = run([cmd, "--family", "hyperbolic", "--a", "1", "--n", "2",
                    "--modes", "-1", "--out", str(tmp_path / cmd)])
        assert code == 1, cmd
        assert "band limit M must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / cmd).exists()


@pytest.mark.parametrize("key,value,message", [
    ("tol", "x", "tolerance must be positive, got 'x'"),
    ("tol", True, "tolerance must be positive, got True"),
    ("tol", None, "tolerance must be positive, got None"),
    ("n", "3", "n must be an integer, got '3'"),
    ("n", 3.5, "n must be an integer, got 3.5"),
    ("n", True, "n must be an integer, got True"),
    ("modes", "4", "modes must be an integer, got '4'"),
    ("modes", 2.0, "modes must be an integer, got 2.0"),
    ("modes", False, "modes must be an integer, got False"),
    ("a", "x", "a must be a number, got 'x'"),
    ("preset", 5, "preset must be a string, got 5"),
    ("n", 1, "dimension must be >= 2, got 1")])
def test_config_values_of_the_wrong_type_are_refused(tmp_path, capsys, key, value,
                                                     message):
    # each value used to end in a TypeError or AttributeError traceback,
    # or, for n = 3.5, in a verdict for a non-integer dimension
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "hyperbolic", "a": 1, key: value}))
    for cmd in ("classify", "solve"):
        code = run([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd)])
        assert code == 1, cmd
        assert message in capsys.readouterr().err
        assert not (tmp_path / cmd).exists()


def test_verify_user_rmax_below_certificate_start(tmp_path):
    # --rmax 4 is the first radius tried; the extension moves to the
    # radius its tail certificate starts at, and every check uses it
    code = run(["verify", "--family", "hyperbolic", "--a", "2", "--n", "2",
                "--rmax", "4", "--modes", "2", "--out", str(tmp_path / "v")])
    assert code == 0
    rep = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert rep["all_passed"] is True


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags", [
    ["--family", "powergrowth", "--p", "1.1", "--modes", "2"],
    ["--family", "powerlog", "--c", "3", "--modes", "3"],
], ids=["powergrowth_1.1", "powerlog_3"])
def test_slow_n2_tails_solve_and_verify(tmp_path, flags):
    # the first-order tail delta of these metrics decays like R^-0.1 or
    # 1/log(R)^2: the ODE path warned of overflow, then searched 24 doublings
    # of R and failed.  The closed-form modes need neither, and are built
    # at the criterion's radius
    for cmd in ("solve", "verify"):
        code = run([cmd, *flags, "--n", "2", "--out", str(tmp_path / cmd)])
        assert code == 0, cmd
    rep = json.loads((tmp_path / "verify" / "verify.json").read_text())
    assert rep["all_passed"] is True
    summary = json.loads((tmp_path / "solve" / "summary.json").read_text())
    assert summary["r_max"] == 100.0


@pytest.mark.parametrize("source,exact", [
    (["--modes", "3", "--preset", "single:5:0"], 1 / math.sqrt(math.pi)),
    ("coeffs", 1.5 / math.sqrt(math.pi)),
], ids=["single_5_at_M3", "coeffs_m1_m6"])
def test_dropped_input_modes_are_in_the_truncation_bound(tmp_path, capsys,
                                                         source, exact):
    # coefficients above M are dropped by the projection: the bound must
    # cover them and the data must be reported as not well resolved
    if source == "coeffs":
        path = tmp_path / "c.json"
        path.write_text(json.dumps([{"m": 1, "k": 0, "c": 1.0},
                                    {"m": 6, "k": 0, "c": 0.5}]))
        source = ["--coeffs", str(path)]
    out = tmp_path / "s"
    with pytest.warns(UserWarning, match="not well resolved"):
        code = run(["solve", "--family", "hyperbolic", "--a", "1", "--n", "2",
                    *source, "--at-infinity", "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    value = float(lines[-1].split(" = ")[1])
    printed = float(lines[-2].rsplit("truncation bound ", 1)[1])
    bound = json.loads((out / "summary.json").read_text())["truncation_error_bound"]
    assert abs(exact - value) <= min(printed, bound)
    assert bound < abs(exact - value) + 1e-9


def test_unsupported_dimension_refused_before_solving(tmp_path, capsys,
                                                       monkeypatch):
    solves = count_calls(monkeypatch, radial, "solve_modes")
    certs = count_calls(monkeypatch, criterion, "tail_certificate")
    code = run(["solve", "--family", "powergrowth", "--p", "2", "--n", "4",
                "--modes", "3", "--out", str(tmp_path / "s")])
    assert code == 1
    assert "n in {2, 3}, got n=4" in capsys.readouterr().err
    assert solves == [] and certs == []
    # verify and classify on a divergent metric need no sphere data
    code = run(["verify", "--family", "euclidean", "--n", "4", "--modes", "2",
                "--out", str(tmp_path / "verify")])
    assert code == 0
    code = run(["classify", "--family", "euclidean", "--n", "4",
                "--out", str(tmp_path / "classify")])
    assert code == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_power_growth_tail_refused_without_overflow(tmp_path, capsys):
    # the tail search reaches r near 1.3e154, where 1 + r*r overflows; the
    # refusal must be the TailNotTight message, not an overflow warning.
    # The top is found by bisection from the start radius, 100
    code = run(["solve", "--family", "powergrowth", "--p", "1.02", "--n", "3",
                "--modes", "2", "--out", str(tmp_path / "s")])
    assert code == 1
    assert "error: no r_max below 1.3281e+154 reaches" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_phi_beyond_double_range_refused_without_warning(tmp_path, capsys):
    # phi overflows at r = 1e200, where PowerGrowth's phi' is 0 * inf: the
    # solve's guard reads phi alone and refuses it by name
    code = run(["solve", "--family", "powergrowth", "--p", "2", "--n", "3",
                "--modes", "1", "--rmax", "1e200", "--out", str(tmp_path / "s")])
    assert code == 1
    assert "is not finite inside [0.001, 1e+200]" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags,lo,hi", [
    (["--family", "powergrowth", "--p", "1.3", "--modes", "1", "--preset", "cos"],
     1.1e9, 1.11e9),
    (["--family", "powergrowth", "--p", "1.3", "--modes", "4", "--preset", "band4"],
     5.1e10, 5.2e10),
    (["--family", "powergrowth", "--p", "1.1", "--modes", "4", "--preset", "band4"],
     3.2e34, 3.3e34),
    (["--family", "powergrowth", "--p", "1.05", "--modes", "4", "--preset", "band4"],
     1.09e72, 1.11e72),
    (["--family", "powergrowth", "--p", "1.03", "--modes", "1", "--preset", "cos"],
     1.25e107, 1.27e107),
    (["--family", "powerlog", "--c", "3", "--modes", "4", "--preset", "band4"],
     6.7e8, 6.8e8),
    (["--family", "powerlog", "--c", "2", "--modes", "4", "--preset", "band4"],
     6.6e59, 6.8e59),
], ids=["pg1.3_m1", "pg1.3_m4", "pg1.1_m4", "pg1.05_m4", "pg1.03_m1", "pl3_m4", "pl2_m4"])
def test_slow_tails_solve_and_verify(tmp_path, flags, lo, hi):
    # the doubling search refused each of these at R <= 5.03e8
    flags = [*flags, "--n", "3"]
    out = tmp_path / "s"
    assert run(["solve", *flags, "--out", str(out)]) == 0
    assert lo < json.loads((out / "summary.json").read_text())["r_max"] < hi
    assert run(["verify", *flags, "--artifacts", str(out),
                "--out", str(tmp_path / "v")]) == 0
    assert json.loads((tmp_path / "v" / "verify.json").read_text())["all_passed"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_constant_data_on_a_slow_tail_solve_and_verify(tmp_path):
    # the data use m = 0 alone, whose tail delta is 0, so the criterion's
    # radius serves; m = 1..3 carry no data and are still solved and written, with
    # their own (loose) tail delta as limit_error
    flags = ["--family", "powergrowth", "--p", "1.249474", "--n", "3",
             "--modes", "3", "--preset", "single:0:0"]
    out = tmp_path / "s"
    assert run(["solve", *flags, "--out", str(out)]) == 0
    assert all((out / f"profile_m{m}.csv").is_file() for m in range(4))
    assert json.loads((out / "summary.json").read_text())["r_max"] == 100.0
    meta = json.loads((out / "profiles.json").read_text())
    assert meta[3]["limit_error"] > radial._TAIL_DELTA
    assert run(["verify", *flags, "--artifacts", str(out),
                "--out", str(tmp_path / "v")]) == 0
    assert json.loads((tmp_path / "v" / "verify.json").read_text())["all_passed"]


def test_n3_profiles_are_nondecreasing_row_by_row(tmp_path):
    # near r_max the profiles are flat within rounding; the dense output
    # adds each panel's start last, so they stay nondecreasing in the
    # written digits too (DOP853's m = 8 profile fell by 1.48e-13 here)
    out = tmp_path / "s"
    assert run(["solve", "--family", "hyperbolic", "--a", "0.5", "--n", "3",
                "--modes", "8", "--preset", "band4", "--out", str(out)]) == 0
    for m in range(9):
        _, values = radial.load_profile_csv(out / f"profile_m{m}.csv")
        assert np.all(np.diff(values) >= 0), m


def test_growth_bound_read_between_master_nodes_holds(tmp_path):
    # the exponent H is concave just above r = 1, where the bound touches
    # phi_1: a chord between the nodes of a Simpson master grid undercut it
    # by about 1.3e-7, past the check's 1e-8 slack, so this true bound
    # failed; H read at each radius from the panel triples keeps it
    flags = ["--family", "powergrowth", "--p", "2.441479", "--n", "3",
             "--modes", "3", "--preset", "cos"]
    out = tmp_path / "s"
    assert run(["solve", *flags, "--out", str(out)]) == 0
    assert run(["verify", *flags, "--artifacts", str(out),
                "--out", str(tmp_path / "v")]) == 0
    checks = json.loads((tmp_path / "v" / "verify.json").read_text())["checks"]
    assert {c["name"]: c["passed"] for c in checks}["lemma_bound"] is True


def test_mode_with_data_missing_the_tail_target_is_refused(tmp_path, capsys):
    # the refusal names the last radius tried and the parts of its delta;
    # the search starts at the criterion's radius, 100
    code = run(["solve", "--family", "powerlog", "--c", "1", "--n", "3",
                "--modes", "1", "--preset", "cos", "--out", str(tmp_path / "s")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no r_max below 3.80158e+305 reaches tail delta")
    assert "at r_max = 3.79902e+305, delta = 0.00631 is the expm1" in err


def test_verify_power_growth_passes(tmp_path):
    # the extension certifies its own r_max; a fixed verify range did not
    code = run(["verify", "--family", "powergrowth", "--p", "2", "--n", "2",
                "--modes", "3", "--out", str(tmp_path / "v")])
    assert code == 0
    rep = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert rep["all_passed"] is True


def test_verify_artifacts_at_their_own_radii(tmp_path):
    # the growth bound touches phi_m at s = 1; interpolating the artifact
    # onto the trace grid pierced it by 3.2e-6 for this metric
    flags = ["--family", "hyperbolic", "--a", "0.793468", "--n", "2",
             "--modes", "2", "--preset", "constant"]
    out = tmp_path / "art"
    assert run(["solve", *flags, "--out", str(out)]) == 0
    code = run(["verify", *flags, "--artifacts", str(out),
                "--out", str(tmp_path / "v")])
    assert code == 0
    rep = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert all(c["passed"] for c in rep["checks"])


@pytest.mark.parametrize("tol", ["1e-8", "1e-4"])
def test_verify_checks_the_extension_solve_builds(tmp_path, monkeypatch, tol):
    built = []
    build = extension.build_extension

    def spy(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(extension, "build_extension", spy)
    flags = ["--family", "hyperbolic", "--a", "1", "--n", "3", "--modes", "4",
             "--preset", "band4", "--tol", tol]
    assert run(["solve", *flags, "--out", str(tmp_path / "s")]) == 0
    assert run(["verify", *flags, "--out", str(tmp_path / "v")]) == 0
    solved, verified = built
    assert solved.profiles.keys() == verified.profiles.keys()
    for m, prof in solved.profiles.items():
        assert np.array_equal(prof.grid, verified.profiles[m].grid)
        assert np.array_equal(prof.values, verified.profiles[m].values)


def test_loose_tol_profiles_are_nondecreasing(tmp_path):
    # with the ODE rtol clipped at 1e-9 instead of 1e-12, solve wrote
    # profiles here that decrease by up to 1.8e-11, and verify refused them
    flags = ["--family", "hyperbolic", "--a", "0.5", "--n", "3", "--modes", "8",
             "--preset", "band4", "--tol", "1e-4"]
    out = tmp_path / "s"
    assert run(["solve", *flags, "--out", str(out)]) == 0
    for m in range(9):
        data = np.loadtxt(out / f"profile_m{m}.csv", delimiter=",", skiprows=1)
        assert np.all(np.diff(data[:, 1]) >= -1e-12)
    assert run(["verify", *flags, "--artifacts", str(out),
                "--out", str(tmp_path / "v")]) == 0


def test_verify_artifacts_need_only_the_profile_csvs(tmp_path):
    flags = ["--family", "hyperbolic", "--a", "1", "--n", "2", "--modes", "3"]
    out = tmp_path / "s"
    assert run(["solve", *flags, "--out", str(out)]) == 0
    (out / "profiles.json").unlink()
    assert run(["verify", *flags, "--artifacts", str(out),
                "--out", str(tmp_path / "v")]) == 0


@pytest.mark.parametrize("rows", [0, 1])
def test_verify_refuses_a_malformed_artifact_by_name(tmp_path, capsys, rows):
    flags = ["--family", "hyperbolic", "--a", "1", "--n", "2", "--modes", "3"]
    out = tmp_path / "s"
    assert run(["solve", *flags, "--out", str(out)]) == 0
    path = out / "profile_m1.csv"
    path.write_text("".join(path.read_text().splitlines(True)[:1 + rows]))
    assert run(["verify", *flags, "--artifacts", str(out),
                "--out", str(tmp_path / "v")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "profile_m1.csv" in err


def test_verify_divergent_skips_extension_checks(tmp_path):
    code = run(["verify", "--family", "euclidean", "--n", "2", "--modes", "3",
                "--out", str(tmp_path / "v")])
    assert code == 0
    rep = json.loads((tmp_path / "v" / "verify.json").read_text())
    skipped = {c["name"]: c["detail"] for c in rep["checks"] if c.get("skipped")}
    assert "maximum_principle" in skipped and "annulus_cross_check" in skipped
    assert "modes are unbounded" in skipped["maximum_principle"]
    ran = {c["name"]: c["passed"] for c in rep["checks"]
           if not c.get("skipped")}
    assert ran["riccati_residual"] and ran["monotone_nonnegative"]


@pytest.mark.parametrize("flags,r_max", [
    (["--family", "hyperbolic", "--a", "0.5", "--n", "2"], 120.0),
    (["--family", "powergrowth", "--p", "2", "--n", "2"], 100.0),
    (["--family", "powerlog", "--c", "2", "--n", "2"], 100.0),
    (["--family", "hyperbolic", "--a", "1", "--n", "3"], 60.0),
], ids=["hyperbolic_0.5_n2", "powergrowth_2_n2", "powerlog_2_n2", "hyperbolic_1_n3"])
def test_solve_works_at_the_radius_classify_certifies(tmp_path, flags, r_max):
    # one radius per command: the extension is built at the criterion's
    # r_max, the one classify prints
    assert run(["classify", *flags, "--out", str(tmp_path / "c")]) == 0
    march = json.loads((tmp_path / "c" / "classify.json").read_text())["march"]
    assert run(["solve", *flags, "--modes", "2", "--out", str(tmp_path / "s")]) == 0
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    assert summary["r_max"] == march["r_max"] == r_max


def test_verify_solves_raw_modes_to_the_criterion_radius(tmp_path, monkeypatch):
    # a Divergent metric has no extension: its raw modes are solved to the
    # radius of the report that found it Divergent, which they carry
    marches = count_calls(monkeypatch, criterion, "march_criterion")
    solve_modes = radial.solve_modes
    solved = []

    def counted(*args, **kwargs):
        profiles = solve_modes(*args, **kwargs)
        solved.append((inspect.signature(solve_modes).bind(*args, **kwargs)
                       .arguments, profiles))
        return profiles

    monkeypatch.setattr(radial, "solve_modes", counted)
    code = run(["verify", "--family", "powergrowth", "--p", "0.8", "--n", "3",
                "--modes", "2", "--out", str(tmp_path / "v")])
    assert code == 0
    rep = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert rep["criterion"] == "Divergent" and rep["all_passed"] is True
    assert len(marches) == 1
    [(arguments, profiles)] = solved
    report = arguments["report"]
    assert "r_max" not in arguments and report.verdict == "Divergent"
    assert all(p.report is report for p in profiles)
    assert {p.r_max for p in profiles} == {report.r_max} == {
        criterion.march_criterion(*marches[0]).r_max} == {100.0}


@pytest.mark.parametrize("rmax", ["1", "0.5"])
def test_verify_table_below_r_one_is_refused(tmp_path, capsys, rmax):
    # an Inconclusive table's raw modes are solved to its report's radius,
    # which is --rmax itself; at or below 1 that range is refused by name
    csv = write_tabulated_csv(tmp_path / "w.csv", Hyperbolic(1.0),
                              np.geomspace(1e-4, 30.0, 400))
    code = run(["verify", "--warp-csv", str(csv), "--n", "3", "--modes", "2",
                "--rmax", rmax, "--out", str(tmp_path / "v")])
    assert code == 1
    assert "error: r_max must exceed 1" in capsys.readouterr().err


@pytest.mark.parametrize("n", [2, 3])
def test_verify_sampled_data_passes_without_a_verdict(tmp_path, n):
    # sampled data are Inconclusive: the Riccati checks run on raw solves
    # and pass, and the extension checks are skipped without claiming that
    # the modes are unbounded
    csv = write_tabulated_csv(tmp_path / "w.csv", Hyperbolic(1.0),
                              np.geomspace(1e-4, 30.0, 400))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["verify", "--warp-csv", str(csv), "--n", str(n),
                    "--modes", "2", "--out", str(tmp_path / "v")])
    assert code == 0
    rep = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert rep["criterion"] == "Inconclusive" and rep["all_passed"] is True
    skipped = [c["detail"] for c in rep["checks"] if c.get("skipped")]
    assert len(skipped) == 3
    assert all("not certified" in d and "unbounded" not in d for d in skipped)


def test_verify_passes_on_a_coarse_table(tmp_path):
    # 50 geometric samples of Hyperbolic(1) on [1e-4, 30]: the profiles
    # solved on the log-space Hermite interpolant stay nondecreasing, and
    # every check that runs passes
    csv = write_tabulated_csv(tmp_path / "w.csv", Hyperbolic(1.0),
                              np.geomspace(1e-4, 30.0, 50))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["verify", "--warp-csv", str(csv), "--n", "3",
                    "--modes", "2", "--out", str(tmp_path / "v")])
    assert code == 0
    rep = json.loads((tmp_path / "v" / "verify.json").read_text())
    ran = {c["name"]: c["passed"] for c in rep["checks"] if not c.get("skipped")}
    assert rep["all_passed"] is True and ran["monotone_nonnegative"]


def test_verify_detects_tampered_profile(tmp_path):
    out = tmp_path / "art"
    assert run(["solve", "--family", "hyperbolic", "--a", "1", "--n", "2",
                "--modes", "3", "--preset", "cos", "--out", str(out)]) == 0
    # inflate phi_1 by 10%: it must now pierce the certified growth bound
    path = out / "profile_m1.csv"
    lines = path.read_text().strip().splitlines()
    doctored = [lines[0]]
    for line in lines[1:]:
        r, v, d = (float(x) for x in line.split(","))
        doctored.append(f"{r:.15g},{v * 1.1:.15g},{d * 1.1:.15g}")
    path.write_text("\n".join(doctored) + "\n")
    code = run(["verify", "--family", "hyperbolic", "--a", "1", "--n", "2",
                "--modes", "3", "--preset", "cos", "--artifacts", str(out),
                "--out", str(tmp_path / "v")])
    assert code == 1
    rep = json.loads((tmp_path / "v" / "verify.json").read_text())
    failed = {c["name"] for c in rep["checks"] if c["passed"] is False}
    assert "lemma_bound" in failed


@pytest.mark.parametrize("n, fails", [(2, ["fd_residual", "annulus_cross_check"]),
                                      (3, ["fd_residual"])])
def test_profiles_of_another_metric_fail_verify_by_name(tmp_path, monkeypatch, capsys,
                                                        n, fails):
    # profiles carry the report they were solved under, so the extension of
    # Hyperbolic(1.2) meets the checks as it is: each profile's own Riccati
    # trace and growth bound hold, and the Laplacian of Hyperbolic(1) does not
    build = extension.build_extension
    monkeypatch.setattr(extension, "build_extension", lambda f, M, report, **kwargs: build(
        f, M, criterion.march_criterion(Hyperbolic(1.2), report.n), **kwargs))
    code = run(["verify", "--family", "hyperbolic", "--a", "1", "--n", str(n),
                "--modes", "4", "--out", str(tmp_path / "v")])
    assert code == 1
    printed = capsys.readouterr().out
    for name in fails:
        assert f"  [FAIL] {name}: " in printed
    rep = json.loads((tmp_path / "v" / "verify.json").read_text())
    passed = {c["name"] for c in rep["checks"] if c["passed"]}
    assert {"riccati_residual", "riccati_inequality", "lemma_bound",
            "monotone_nonnegative", "maximum_principle"} <= passed


def test_sweep_deterministic(tmp_path):
    assert run(["sweep", "--out", str(tmp_path / "a")]) == 0
    assert run(["sweep", "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "sweep.json").read_bytes()
    b = (tmp_path / "b" / "sweep.json").read_bytes()
    assert a == b
    obj = json.loads(a)
    assert len(obj["cases"]) == 27


def test_solve_from_boundary_csv_and_at_infinity(tmp_path, capsys,
                                                 monkeypatch):
    from weakmodel.spectrum import sphere_quadrature
    quad = sphere_quadrature(2, 4)
    csv = tmp_path / "bc.csv"
    with open(csv, "w") as fh:
        fh.write("theta,f\n")
        for th, v in zip(quad.points, 2.0 * np.cos(quad.points)):
            fh.write(f"{th:.17g},{v:.17g}\n")
    out = tmp_path / "s"
    marches = count_calls(monkeypatch, criterion, "march_criterion")
    builds = count_calls(monkeypatch, extension, "build_extension")
    code = run(["solve", "--family", "hyperbolic", "--a", "1", "--n", "2",
                "--modes", "4", "--bc-csv", str(csv), "--at-infinity",
                "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[-1] == "u(infinity, 0) = 2"
    # the boundary value comes from the extension the solve already built
    assert len(marches) == 1 and len(builds) == 1


def test_band4_preset(tmp_path):
    out = tmp_path / "s"
    code = run(["solve", "--family", "hyperbolic", "--a", "1", "--n", "2",
                "--modes", "6", "--preset", "band4", "--out", str(out)])
    assert code == 0
    coeffs = json.loads((out / "coefficients.json").read_text())
    assert any(rec["m"] == 4 for rec in coeffs)


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"family": "hyperbolic", "a": 1.0, "n": 3,
                               "out": str(tmp_path / "cfg_out")}))
    code = run(["classify", "--config", str(cfg), "--n", "2",
                "--out", str(tmp_path / "o2")])
    assert code == 0
    rep = json.loads((tmp_path / "o2" / "classify.json").read_text())
    assert rep["n"] == 2          # flag overrode the config file
    code = run(["classify", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "o3")])
    assert code == 1


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "classify")


# one case per tail path: refined exponential, refined power, power-log
# closed form, refined power-log double tail, divergence witnesses
PINNED_CLASSIFY = {
    "hyperbolic_a1_n2": ["--family", "hyperbolic", "--a", "1", "--n", "2"],
    "powergrowth_p1.5_n3": ["--family", "powergrowth", "--p", "1.5",
                            "--n", "3"],
    "powerlog_c1.2_n2": ["--family", "powerlog", "--c", "1.2", "--n", "2"],
    "powerlog_c1.2_n3": ["--family", "powerlog", "--c", "1.2", "--n", "3"],
    "euclidean_n3": ["--family", "euclidean", "--n", "3"],
    "powergrowth_p0.8_n2": ["--family", "powergrowth", "--p", "0.8",
                            "--n", "2"],
}


def _assert_classify_pinned(tmp_path, name, args):
    run(["classify", *args, "--out", str(tmp_path)])
    with open(os.path.join(FIXTURES, f"{name}.json"), "rb") as fh:
        assert (tmp_path / "classify.json").read_bytes() == fh.read(), name


def _assert_sweep_pinned(tmp_path):
    # all 27 cases, march and transience, on every tail path
    run(["sweep", "--out", str(tmp_path)])
    path = os.path.join(os.path.dirname(__file__), "fixtures", "sweep.json")
    with open(path, "rb") as fh:
        assert (tmp_path / "sweep.json").read_bytes() == fh.read()


@pytest.mark.parametrize("name,args", list(PINNED_CLASSIFY.items()))
def test_classify_report_pinned(tmp_path, name, args):
    _assert_classify_pinned(tmp_path, name, args)


def test_sweep_report_pinned(tmp_path):
    _assert_sweep_pinned(tmp_path)


def test_pinned_reports_hold_with_scalar_pow(tmp_path, monkeypatch):
    # numpy raises an array to a power with a SIMD routine on some CPUs and
    # with libm's pow on others; they differ in the last bit on ~5% of
    # inputs.  Evaluating PowerGrowth one point at a time takes libm's pow
    # everywhere, and must leave every pinned report byte-identical.
    log_phi = PowerGrowth.log_phi

    def scalar_log_phi(self, r):
        r = np.asarray(r, dtype=float)
        return np.array([log_phi(self, t) for t in r.ravel()]).reshape(r.shape)

    monkeypatch.setattr(PowerGrowth, "log_phi", scalar_log_phi)
    _assert_sweep_pinned(tmp_path)
    for name in ("powergrowth_p1.5_n3", "powergrowth_p0.8_n2"):
        _assert_classify_pinned(tmp_path, name, PINNED_CLASSIFY[name])


def test_one_parser_per_process(tmp_path, monkeypatch, capsys):
    # the argparse tree is built once, at import; each call only parses
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    out = str(tmp_path / "o")
    counts = []
    for args in (["classify", "--family", "euclidean", "--n", "2", "--out", out],
                 ["classify", "--modes", "3"],
                 ["--help"],
                 ["sweep", "--out", out],
                 ["solve", "--family", "euclidean", "--n", "2", "--out", out],
                 ["verify", "--family", "euclidean", "--n", "2", "--modes", "1",
                  "--out", out]):
        run(args)
        counts.append(len(built))
    assert counts == [counts[0]] * 6, built


def test_no_state_carries_between_calls(tmp_path, capsys):
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"tol": 1e-6}))
    assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "w1")]) == 0
    _assert_sweep_pinned(tmp_path / "w2")

    solve = ["solve", "--family", "hyperbolic", "--a", "1", "--n", "2",
             "--modes", "1", "--out", str(tmp_path / "s")]
    capsys.readouterr()
    assert run(solve + ["--at-infinity"]) == 0
    assert "u(infinity, 0)" in capsys.readouterr().out
    assert run(solve) == 0
    assert "u(infinity, 0)" not in capsys.readouterr().out

    assert run(["classify", "--modes", "3"]) == 1
    _assert_classify_pinned(tmp_path / "c", "hyperbolic_a1_n2",
                            PINNED_CLASSIFY["hyperbolic_a1_n2"])

    capsys.readouterr()
    for cmd in ([], ["classify"], ["solve"], ["verify"], ["sweep"]):
        helps = []
        for _ in range(2):
            assert run(cmd + ["--help"]) == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1] != "", cmd


def test_classify_refuses_exponential_growth_past_1e20_at_n4(tmp_path, capsys):
    # n = 2 and 3 print the closed forms there (test_criterion); at n = 4
    # the pass refuses, with no report and no traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["classify", "--family", "hyperbolic", "--a", "1", "--n", "4",
                    "--rmax", "1e30", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: log-space quadrature on [1, 1e+30]")
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "classify.json").exists()
