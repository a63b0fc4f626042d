import csv
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import count_calls
from weakmodel import criterion
from weakmodel.cli import _boundary_data
from weakmodel import extension as ext
from weakmodel.errors import (NotConvergent, NotSolvable, OutOfRange,
                              UnsupportedSpectrum)
from weakmodel.oracle import laplace_beltrami_residual_fn
from weakmodel.quadrature import LogCumulative
from weakmodel.radial import normalize_profile, solve_modes, suggest_rmax
from weakmodel.spectrum import (BoundaryData, CoefficientTable, EigenMode,
                                SphereQuadrature, SphereSpectrum,
                                eigen_round_sphere, eigenfunction_eval,
                                multiplicity, project_boundary,
                                sphere_quadrature)
from weakmodel.warp import Euclidean, Hyperbolic, PowerGrowth, PowerLog, Tabulated


@pytest.fixture(scope="module")
def cos_extension(hyperbolic, hyperbolic_criterion):
    table = CoefficientTable(2)
    table.set(1, 0, math.sqrt(math.pi))      # f(theta) = cos(theta)
    f = BoundaryData.from_coefficients(table)
    return ext.build_extension(hyperbolic, 2, f, 4, tol=1e-8,
                               criterion=hyperbolic_criterion)


@pytest.fixture(scope="module")
def band_extension(hyperbolic, hyperbolic_criterion):
    fn = lambda th: 0.3 + np.cos(th) - 0.5 * np.sin(2 * th)
    f = BoundaryData.from_function(2, 4, fn)
    e = ext.build_extension(hyperbolic, 2, f, 4, tol=1e-8,
                            criterion=hyperbolic_criterion)
    return e, f, fn


@pytest.mark.parametrize("w,M,radii", [
    # the criterion report's certificate at 60 is tight: no other is made
    (Hyperbolic(1.0), 4, [60.0]),
    # suggest_rmax starts from the report's certificate at 100: it
    # certifies 1e4, then narrows to the root near 282.8; the mode's
    # normalization reuses the certificate it returns
    (PowerGrowth(2.0), 1, [100.0, 1e4, 282.8]),
    # the data stop at m = 1, so m = 1 picks the radius, not M = 3
    (PowerGrowth(2.0), 3, [100.0, 1e4, 282.8]),
])
def test_one_certificate_per_radius(monkeypatch, w, M, radii):
    # n = 3: the n = 2 modes are closed forms and need no certificate.  The
    # first radius is the report's, whose certificate the report holds
    table = CoefficientTable(3)
    table.set(1, 0, 1.0)
    certs = count_calls(monkeypatch, criterion, "tail_certificate")
    e = ext.build_extension(w, 3, BoundaryData.from_coefficients(table), M)
    tried = [e.criterion.r_max] + [args[2] for args in certs]
    assert len(set(tried)) == len(tried) and e.r_max in tried
    assert tried[:len(radii) - 1] == pytest.approx(radii[:-1], rel=1e-15)
    assert radii[-1] <= e.r_max < radii[-1] * 1.002
    # the slack of verify's maximum principle is the data's mode's delta;
    # a mode above the data keeps its own, larger one
    assert e.numeric_slack == e.profiles[1].limit_error < ext._radial._TAIL_DELTA
    assert e.profiles[M].limit_error >= e.numeric_slack


_SAMPLES = np.geomspace(1e-4, 30.0, 400)


@pytest.mark.parametrize("entry", ["build_extension", "conformal_modes"])
@pytest.mark.parametrize("kind, warp, report, message", [
    ("another-n", Hyperbolic(1.0), lambda w: criterion.march_criterion(w, 3),
     r"^the criterion report is of n = 3, not of the (extension|modes)'s? n = 2$"),
    ("another-warp-object", Hyperbolic(1.0),
     lambda w: criterion.march_criterion(Hyperbolic(1.0), 2),
     r"^the criterion report is of Hyperbolic\(a=1\), another warp object than "
     r"the (extension|modes)'s? Hyperbolic\(a=1\)$"),
    ("transience", Hyperbolic(1.0), lambda w: criterion.transience_integral(w, 2),
     r"^the Convergent criterion report holds no tail certificate"),
    ("divergent", Euclidean(), lambda w: criterion.march_criterion(w, 2), r"Divergent"),
    ("inconclusive", Tabulated(_SAMPLES, *Hyperbolic(1.0).eval(_SAMPLES)),
     lambda w: criterion.march_criterion(w, 2), r"Inconclusive")],
    ids=["another-n", "another-warp-object", "transience", "divergent", "inconclusive"])
def test_extension_refuses_a_report_of_another_metric(entry, kind, warp, report, message):
    # the n = 2 modes read the report's R, panels and inner tail, and an
    # n = 3 search starts from its certificate: a report of another n or
    # warp object would silently give wrong profiles, and one with no
    # certificate has nothing to read.  Each is refused by name; a
    # Divergent or Inconclusive one by build_extension as not solvable
    rep = report(warp)
    modes = [eigen_round_sphere(2, m) for m in range(3)]
    call = {"build_extension": lambda: ext.build_extension(
                warp, 2, BoundaryData.from_coefficients(CoefficientTable(2, {(1, 0): 1.0})),
                2, criterion=rep),
            "conformal_modes": lambda: ext._radial.conformal_modes(warp, modes, rep)}[entry]
    error = (NotSolvable if entry == "build_extension" and kind in ("divergent", "inconclusive")
             else NotConvergent)
    with pytest.raises(error, match=message):
        call()


def test_n3_extension_solves_once_at_the_certified_radius(monkeypatch):
    # the certificate moves R from the criterion's 100 to near 282.8
    # before any solve, so the stack is solved once, at the certified radius
    table = CoefficientTable(3)
    table.set(1, 0, 1.0)
    events = []
    certify = ext._radial.suggest_rmax
    solve = ext._radial.solve_modes
    monkeypatch.setattr(ext._radial, "suggest_rmax",
                        lambda *a: events.append("certify") or certify(*a))
    monkeypatch.setattr(ext._radial, "solve_modes",
                        lambda *a, **k: events.append(k["r_max"]) or solve(*a, **k))
    e = ext.build_extension(PowerGrowth(2.0), 3,
                            BoundaryData.from_coefficients(table), 1)
    assert events == ["certify", e.r_max]
    assert 282.8 < e.r_max < 283.2 and e.profiles[1].normalized


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_powerlog_extension_builds_without_warnings():
    # at tol 1e-10 every DOP853 trial keeps z of order 1 (|z| <= 3.2),
    # where a trial stepping w = r phi_m'/phi_m reached -9e222 near
    # r = 122 and overflowed w * w.  The data reach m = 4, whose
    # certificate takes the solve past r = 122, to near 386.7
    table = CoefficientTable(3)
    table.set(1, 0, 1.0)
    table.set(4, 0, 1.0)
    e = ext.build_extension(PowerLog(5.0), 3, BoundaryData.from_coefficients(table),
                            4, tol=1e-10)
    assert 386.6 < e.r_max < 387.2
    assert all(p.normalized for p in e.profiles.values())


@pytest.mark.parametrize("n,fn,residual", [
    (2, lambda theta: np.cos(5 * theta), 1.0),
    (3, lambda colat, lon: np.cos(colat) ** 7, 0.0579),
])
def test_sampled_truncation_bound_covers_the_node_residual(n, fn, residual):
    # sup |f - f_M| is at least the residual at the sample nodes, which the
    # fitted tail alone left at the noise floor of 1e-13
    f = BoundaryData.from_function(n, 4, fn)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        e = ext.build_extension(Hyperbolic(1.0), n, f, 4)
    f_M = ext.boundary_value(e, f.quadrature.unpack())
    rho = float(np.max(np.abs(f.samples - f_M)))
    assert rho == pytest.approx(residual, rel=1e-3)
    assert e.truncation_error_bound >= rho


def _hyperbolic_mode(a, n, m):
    """The mode of sinh(ar)/a with limit 1: with t = tanh(ar/2), it is
    t^m 2F1(m, 1 - n/2; m + n/2; t^2) / G, with G Gauss's value of the 2F1
    at t = 1."""
    from scipy.special import hyp2f1
    G = math.exp(math.lgamma(m + n / 2) + math.lgamma(n - 1)
                 - math.lgamma(n / 2) - math.lgamma(m + n - 1))

    def exact(r):
        t = np.tanh(a * np.asarray(r, dtype=float) / 2)
        return t ** m * hyp2f1(m, 1 - n / 2, m + n / 2, t * t) / G
    return exact


def _assert_profile_matches(p, exact, slack):
    assert np.max(np.abs(p.values - exact(p.grid))) <= slack
    r = np.linspace(0.0, p.r_max, 97)
    assert np.max(np.abs(p.interp(r) - exact(r))) <= slack


def _n3_first_mode(a):
    """At n = 3 the m = 1 mode of sinh(ar)/a with limit 1:
    coth(ar) - ar/sinh(ar)^2 = (sinh(2ar) - 2ar) / (2 sinh(ar)^2); its
    series keeps the small-r values free of cancellation."""
    def exact(r):
        x = a * np.asarray(r, dtype=float)
        y = 2 * x
        series = sum(y ** (2 * k + 1) / math.factorial(2 * k + 1)
                     for k in range(1, 12))
        odd = np.where(x < 0.5, series, np.sinh(y) - y)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x > 0, odd / (2 * np.sinh(x) ** 2), 0.0)
    return exact


def _n3_first_profile(a, tol):
    table = CoefficientTable(3)
    table.set(1, 0, 1.0)
    e = ext.build_extension(Hyperbolic(a), 3,
                            BoundaryData.from_coefficients(table), 1, tol=tol)
    return e.profiles[1]


def _assert_hyperbolic_modes_match(a, tol, ode_error):
    """The m = 1 profile at n = 3 against its closed form, and every mode
    m <= 8 at n = 3, 4, 5 against the hypergeometric oracle, each within
    its limit_error plus ode_error.  limit_error bounds the tail
    normalization only (1e-50 to 1e-19 here); the ODE solve's own error is
    not in it.  The round sphere refuses n >= 4, so the profiles are built
    as build_extension builds them, without a spectrum."""
    p = _n3_first_profile(a, tol)
    _assert_profile_matches(p, _n3_first_mode(a), p.limit_error + ode_error)
    w = Hyperbolic(a)
    for n in (3, 4, 5):
        modes = [eigen_round_sphere(n, m) for m in range(1, 9)]
        cert = suggest_rmax(w, n, modes[-1].lambda_sq,
                            criterion.march_criterion(w, n).certificate)
        for mode, raw in zip(modes, solve_modes(w, n, modes, r_max=cert.r_max,
                                                tol=tol)):
            p = normalize_profile(raw, cert)
            _assert_profile_matches(p, _hyperbolic_mode(a, n, mode.m),
                                    p.limit_error + ode_error)


@pytest.mark.parametrize("tol,ode_error", [(1e-8, 1e-9), (1e-10, 2e-10)])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_n3_hyperbolic_mode_matches_closed_form(a, tol, ode_error):
    # the slacks a DOP853 solve needed (it reached 4.4e-12 over the modes);
    # test_n3_modes_ode_error_is_within_1e_12 holds the panels to 1e-12
    _assert_hyperbolic_modes_match(a, tol, ode_error)


@pytest.mark.parametrize("tol,ode_error", [(1e-8, 2e-10), (1e-10, 2e-11)])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_n3_first_mode_ode_error_is_small(a, tol, ode_error):
    # DOP853 stepping z reached 8.8e-11 at tol 1e-8 and 8.1e-12 at tol
    # 1e-10 on the m = 1 mode (at a = 2), and stepping w = r phi_m'/phi_m
    # 2.8e-10 and 5.1e-11 near r = 0.2; the panels reach 1.0e-14
    p = _n3_first_profile(a, tol)
    _assert_profile_matches(p, _n3_first_mode(a), p.limit_error + ode_error)


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_n3_modes_ode_error_is_within_1e_12(a, tol):
    # the panel collocation's own error is up to 1.0e-14 on the m = 1
    # profile and 3.4e-13 over every mode; DOP853 failed this bound
    _assert_hyperbolic_modes_match(a, tol, 1e-12)


def test_user_rmax_below_certificate_start_is_honest():
    # the exact modes are tanh(r)^m; --rmax 4 lies below the tail
    # certificate's start, so the criterion, and with it the extension,
    # moves to the certified radius
    table = CoefficientTable(2)
    table.set(1, 0, 1.0)
    w = Hyperbolic(2.0)
    e = ext.build_extension(w, 2, BoundaryData.from_coefficients(table), 2,
                            criterion=criterion.march_criterion(w, 2, r_max=4.0))
    assert e.r_max == e.criterion.r_max > 4.0
    for m in (1, 2):
        p = e.profiles[m]
        assert abs(p.values[-1] - math.tanh(p.r_max) ** m) <= p.limit_error + 1e-9


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
def test_stacked_modes_within_their_limit_error(a, tol):
    # the n = 2 modes are exactly tanh(ar/2)^m, and the extension builds
    # them in closed form as exp(-lambda tau): every mode must lie within
    # 1e-11 of the exact one, and within its own certified limit_error
    table = CoefficientTable(2)
    for m in range(6):
        table.set(m, 0, 1.0)
    e = ext.build_extension(Hyperbolic(a), 2,
                            BoundaryData.from_coefficients(table), 5, tol=tol)
    for m, p in e.profiles.items():
        gap = np.max(np.abs(p.values - np.tanh(a * p.grid / 2) ** m))
        assert gap <= 1e-11 and gap <= p.limit_error + 1e-15, (m, gap, p.limit_error)
        r = np.linspace(0.0, p.r_max, 97)
        assert_allclose(p.interp(r), np.tanh(a * r / 2) ** m, rtol=0, atol=1e-11)


def test_evaluate_makes_one_tau_evaluation(monkeypatch):
    # all n = 2 modes share one tau: u at one radius is one log_between
    # call however many modes the band holds
    table = CoefficientTable(2)
    for m in range(5):
        table.set(m, 0, 1.0)
    e = ext.build_extension(Hyperbolic(1.0), 2,
                            BoundaryData.from_coefficients(table), 4)
    calls = count_calls(monkeypatch, LogCumulative, "log_between")
    th = np.linspace(0, 2 * math.pi, 9)
    u = ext.evaluate(e, 2.5, th)
    assert len(calls) == 1
    exact = sum(np.tanh(1.25) ** m * (np.cos(m * th) / math.sqrt(math.pi) if m
                                      else 1 / math.sqrt(2 * math.pi))
                for m in range(5))
    assert_allclose(u, exact, rtol=0, atol=1e-12)
    ext.evaluate(e, 3.5, th)
    assert len(calls) == 2


def test_constant_data_read_no_tau(monkeypatch, hyperbolic, hyperbolic_criterion):
    # m = 0 alone: the constant profile, whose values are 1 at every r,
    # reads no tau at the new point sets it is evaluated at
    table = CoefficientTable(2)
    table.set(0, 0, 2.5 * math.sqrt(2 * math.pi))   # f == 2.5
    e = ext.build_extension(hyperbolic, 2, BoundaryData.from_coefficients(table), 3,
                            criterion=hyperbolic_criterion)
    calls = count_calls(monkeypatch, LogCumulative, "log_between")
    th = np.linspace(0, 2 * math.pi, 17)
    u = ext.evaluate(e, np.array([0.0, 0.5, 3.0, 20.0]), th)
    assert_allclose(u, 2.5, rtol=1e-12)
    assert e.profiles[0].metadata() == {"m": 0, "lambda_sq": 0.0, "l": 0.0,
                                        "limit_estimate": 1.0, "limit_error": 0.0,
                                        "normalized": True}
    assert calls == []


@pytest.mark.parametrize("n", [2, 3])
def test_batched_evaluate_rows_equal_scalar_calls(n):
    # n = 2: conformal modes sharing one tau; n = 3: the dense output of
    # one stacked ODE solve.  Radii below the launch point take the r^l branch.
    table = CoefficientTable(n)
    for m in range(4):
        table.set(m, 0, 1.0 / (m + 1))
    e = ext.build_extension(Hyperbolic(1.0), n,
                            BoundaryData.from_coefficients(table), 3)
    radii = np.array([0.0, 1e-4, 0.37, 2.5, 11.0, e.r_max])
    if n == 2:
        omegas = [np.linspace(0, 2 * math.pi, 13), 0.7]
    else:
        omegas = [(np.linspace(0.1, 3.0, 13), np.linspace(0.0, 6.0, 13)), (1.1, 0.4)]
    for omega in omegas:
        rows = ext.evaluate(e, radii, omega)
        assert rows.shape == radii.shape + np.shape(ext.evaluate(e, 1.0, omega))
        for r, row in zip(radii, rows):
            assert row.tobytes() == np.asarray(ext.evaluate(e, r, omega)).tobytes()
    with pytest.raises(OutOfRange):
        ext.evaluate(e, [1.0, 2.0 * e.r_max], omegas[1])


def test_all_profiles_share_one_radius():
    table = CoefficientTable(2)
    table.set(1, 0, 1.0)
    e = ext.build_extension(Hyperbolic(0.1), 2,
                            BoundaryData.from_coefficients(table), 3)
    assert len({p.r_max for p in e.profiles.values()}) == 1


def _csv_writer_reference(e, path, r_values):
    quad = sphere_quadrature(e.n, e.M)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if e.n == 2:
            writer.writerow(["r", "theta", "u"])
            thetas = quad.points
            for r in r_values:
                for th, v in zip(thetas, ext.evaluate(e, r, thetas)):
                    writer.writerow([f"{r:.12g}", f"{th:.12g}", f"{v:.12g}"])
        else:
            writer.writerow(["r", "colat", "lon", "u"])
            for r in r_values:
                vals = ext.evaluate(e, r, quad.unpack())
                for (c0, l0), v in zip(quad.points, vals):
                    writer.writerow([f"{r:.12g}", f"{c0:.12g}", f"{l0:.12g}",
                                     f"{v:.12g}"])


def _extension_of(n):
    table = CoefficientTable(n)
    table.set(0, 0, 0.5)
    table.set(1, 0, 1.0)
    table.set(2, 1, -0.3)
    return ext.build_extension(Hyperbolic(1.0), n,
                               BoundaryData.from_coefficients(table), 2)


@pytest.mark.parametrize("n", [2, 3])
def test_evaluation_csv_matches_csv_writer(tmp_path, n):
    e = _extension_of(n)
    r_values = np.linspace(0.1, 12.0, 4)
    ext.dump_evaluation_csv(e, tmp_path / "eval.csv", r_values)
    _csv_writer_reference(e, tmp_path / "ref.csv", r_values)
    assert ((tmp_path / "eval.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


# values that print in exponent form, as -0, nan and inf, or with 12 digits
_ODD_VALUES = np.array([-0.0, 1e-300, -2.5e-17, 1e20, 123456789012.345, 0.1,
                        -1.0, 5e-324, math.nan, -math.inf, 1e16, 0.0])


@pytest.mark.parametrize("n", [2, 3])
def test_evaluation_csv_matches_csv_writer_on_odd_values(tmp_path, monkeypatch, n):
    def odd(e, r, omega):
        row = np.resize(_ODD_VALUES, np.size(omega if e.n == 2 else omega[0]))
        return np.multiply.outer(1.0 + np.asarray(r, dtype=float), row)

    monkeypatch.setattr(ext, "evaluate", odd)
    e = _extension_of(n)
    r_values = [0.0, 1e-7, 2.5, 1e5]
    ext.dump_evaluation_csv(e, tmp_path / "eval.csv", r_values)
    _csv_writer_reference(e, tmp_path / "ref.csv", r_values)
    text = (tmp_path / "eval.csv").read_bytes()
    assert text == (tmp_path / "ref.csv").read_bytes()
    assert b",-0\r\n" in text and b"\r\n1e-07," in text and b"e+20\r\n" in text


@pytest.mark.parametrize("n", [2, 3])
def test_evaluation_csv_rows_determine_the_extension(tmp_path, n):
    # the nodes are the degree-M quadrature's, exact for products of degree
    # 2M: one radius's rows project back to c_mk phi_m(r).  The file prints
    # 12 significant digits, so each value carries a relative rounding of
    # up to 5e-12, which the projection weighs by w_i |f_mk(x_i)|
    M = 4
    e = ext.build_extension(Hyperbolic(1.0), n,
                            _boundary_data({"n": n, "modes": M, "preset": "band4"}), M)
    r_values = np.linspace(0.1, 12.0, 4)
    ext.dump_evaluation_csv(e, tmp_path / "eval.csv", r_values)
    lines = (tmp_path / "eval.csv").read_text().splitlines()[1:]
    quad = sphere_quadrature(n, M)
    omega, nodes = quad.unpack(), len(quad.weights)
    assert len(lines) == len(r_values) * nodes
    for i, r in enumerate(r_values):
        u = np.array([float(line.rsplit(",", 1)[1])
                      for line in lines[i * nodes:(i + 1) * nodes]])
        got = project_boundary(BoundaryData.from_samples(n, M, u), M)
        for m in range(M + 1):
            for k in range(multiplicity(n, m)):
                want = e.coeffs.get(m, k) * float(e.profiles[m].interp(r))
                basis = np.abs(eigenfunction_eval(n, m, k, omega))
                rounding = 5e-12 * float(np.dot(quad.weights * basis, np.abs(u)))
                assert abs(got.get(m, k) - want) <= rounding + 1e-14, (r, m, k)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("M", [4, 5, 8])
def test_exact_coefficients_drop_nothing_from_the_truncation_bound(n, M):
    # band4 has modes 0..4: at M >= 4 nothing is dropped, so no tail is fitted
    f = _boundary_data({"n": n, "modes": M, "preset": "band4"})
    e = ext.build_extension(Hyperbolic(1.0), n, f, M)
    assert e.truncation_error_bound < 1e-12


def _l2_reference(e, r):
    """l2_distance_to_boundary as it was, one radius per call."""
    r = float(r)
    total = 0.0
    for m in sorted({m for m, _ in e.coeffs.entries}):
        gap = 1.0 - e.profiles[m].interp(r)
        total += gap * gap * e.coeffs.mode_energy(m)
    return math.sqrt(total)


@pytest.mark.parametrize("n", [2, 3])
def test_summary_l2_curve_is_the_per_radius_distance_bit_for_bit(n):
    # four modes with energy, so that the order of their sum shows in the bits
    table = CoefficientTable(n)
    for m, c in enumerate((0.5, 1.0, -0.7, 0.4, 0.3)):
        table.set(m, 0, c)
    table.set(2, 1, -0.3)
    e = ext.build_extension(Hyperbolic(0.8), n,
                            BoundaryData.from_coefficients(table), 4)
    r_line = np.linspace(0.1, min(e.r_max, 20.0), 40)
    radii = np.concatenate([[0.0, 1e-4], r_line, [e.r_max]])
    curve = ext.summary_json(e, radii)["l2_curve"]
    expect = [[float(r), _l2_reference(e, r)] for r in radii]
    assert np.array(curve).tobytes() == np.array(expect).tobytes()
    for r, d in expect:
        assert ext.l2_distance_to_boundary(e, r) == d
        assert type(ext.l2_distance_to_boundary(e, r)) is float


def test_constant_data_extends_constantly(hyperbolic, hyperbolic_criterion):
    table = CoefficientTable(2)
    table.set(0, 0, 2.5 * math.sqrt(2 * math.pi))   # f == 2.5
    f = BoundaryData.from_coefficients(table)
    e = ext.build_extension(hyperbolic, 2, f, 3,
                            criterion=hyperbolic_criterion)
    th = np.linspace(0, 2 * math.pi, 17)
    for r in (0.0, 0.5, 3.0, 20.0):
        assert_allclose(ext.evaluate(e, r, th), 2.5, rtol=1e-12)


def test_cos_extension_matches_closed_form(cos_extension):
    # u = tanh(r/2) cos(theta) is the exact harmonic extension
    assert_allclose(float(ext.evaluate(cos_extension, 1.0, 0.0)),
                    math.tanh(0.5), atol=1e-5)
    th = np.linspace(0, 2 * math.pi, 50)
    for r in (0.2, 1.0, 5.0, 15.0):
        assert_allclose(ext.evaluate(cos_extension, r, th),
                        np.tanh(r / 2) * np.cos(th), atol=1e-5)


def test_single_mode_extension(hyperbolic, hyperbolic_criterion):
    table = CoefficientTable(2)
    table.set(2, 0, 1.0)
    f = BoundaryData.from_coefficients(table)
    e = ext.build_extension(hyperbolic, 2, f, 4,
                            criterion=hyperbolic_criterion)
    th = np.linspace(0, 2 * math.pi, 30)
    prof = e.profiles[2]
    assert_allclose(ext.evaluate(e, 3.0, th),
                    prof.interp(3.0) * eigenfunction_eval(2, 2, 0, th),
                    atol=1e-12)
    assert np.max(np.abs(ext.evaluate(e, 0.0, th))) == 0.0


def test_evaluate_at_zero_is_mean(band_extension):
    e, f, fn = band_extension
    # all profiles with m >= 1 vanish at the origin like r^l
    quad = sphere_quadrature(2, 4)
    mean = float(np.dot(quad.weights, fn(quad.points))) / (2 * math.pi)
    assert_allclose(float(ext.evaluate(e, 0.0, 1.234)), mean, atol=1e-10)


def test_not_solvable_guard():
    table = CoefficientTable(2)
    table.set(1, 0, 1.0)
    f = BoundaryData.from_coefficients(table)
    with pytest.raises(NotSolvable):
        ext.build_extension(Euclidean(), 2, f, 3)


def test_out_of_range_refused(cos_extension):
    with pytest.raises(OutOfRange):
        ext.evaluate(cos_extension, cos_extension.r_max * 2.0, 0.0)


def test_boundary_series(cos_extension):
    th = np.linspace(0, 2 * math.pi, 40)
    assert_allclose(ext.boundary_value(cos_extension, th), np.cos(th),
                    atol=1e-12)


def test_l2_distance_single_mode(cos_extension):
    # single mode: distance = (1 - phi_1(r)) * ||f||, here ||f|| = sqrt(pi)
    for r in (0.5, 2.0, 8.0):
        expect = (1.0 - cos_extension.profiles[1].interp(r)) * math.sqrt(math.pi)
        assert_allclose(ext.l2_distance_to_boundary(cos_extension, r), expect,
                        rtol=1e-10)


def test_l2_distance_monotone_to_zero(band_extension):
    e, f, _ = band_extension
    rs = np.linspace(0.5, 15.0, 40)
    d = [ext.l2_distance_to_boundary(e, r) for r in rs]
    assert all(a >= b - 1e-12 for a, b in zip(d, d[1:]))
    assert d[-1] < 1e-3
    assert ext.l2_distance_to_boundary(e, 10.0) < ext.l2_distance_to_boundary(e, 1.0)


def test_constant_distance_zero(hyperbolic, hyperbolic_criterion):
    table = CoefficientTable(2)
    table.set(0, 0, 1.0)
    e = ext.build_extension(hyperbolic, 2,
                            BoundaryData.from_coefficients(table), 2,
                            criterion=hyperbolic_criterion)
    assert ext.l2_distance_to_boundary(e, 4.0) == 0.0
    assert _sup_distance(e, 4.0) < 1e-12


def _sup_distance(e, r):
    """max |u(r, .) - u(infinity, .)| over the nodes of the extension's
    degree-M quadrature."""
    omega = e.spectrum.quadrature(e.M).unpack()
    return float(np.max(np.abs(ext.evaluate(e, r, omega)
                               - ext.boundary_value(e, omega))))


def test_sup_distance(band_extension):
    e, f, _ = band_extension
    gap = ext.evaluate(e, 15.0, f.quadrature.unpack()) - f.samples
    assert float(np.max(np.abs(gap))) < 1e-3
    # single-mode case has the closed form (1 - phi_1(r)) * max|f_{1,0}|
    table = CoefficientTable(2)
    table.set(1, 0, 1.0)
    e1 = ext.build_extension(e.warp, 2,
                             BoundaryData.from_coefficients(table), 3,
                             criterion=e.criterion)
    r = 2.0
    expect = (1.0 - e1.profiles[1].interp(r)) / math.sqrt(math.pi)
    assert_allclose(_sup_distance(e1, r), expect, rtol=1e-8)


def test_maximum_principle(band_extension):
    e, f, fn = band_extension
    th = np.linspace(0, 2 * math.pi, 720, endpoint=False)
    f_dense = fn(th)
    eps = (e.truncation_error_bound + e.numeric_slack * 4.0
           + np.max(np.abs(f_dense)) * (2 * math.pi / 720) ** 2)
    lo, hi = f_dense.min() - eps, f_dense.max() + eps
    for r in np.linspace(0.1, 15.0, 60):
        vals = ext.evaluate(e, r, th)
        assert lo <= vals.min() and vals.max() <= hi, f"r={r}"


def test_linearity(hyperbolic, hyperbolic_criterion):
    tf = CoefficientTable(2, {(1, 0): 1.0, (2, 1): 0.5})
    tg = CoefficientTable(2, {(0, 0): 2.0, (1, 0): -0.7})
    alpha, beta = 1.25, -2.0
    combo = CoefficientTable(2)
    for (m, k) in set(tf.entries) | set(tg.entries):
        combo.set(m, k, alpha * tf.get(m, k) + beta * tg.get(m, k))
    build = lambda t: ext.build_extension(
        hyperbolic, 2, BoundaryData.from_coefficients(t), 4,
        criterion=hyperbolic_criterion)
    ef, eg, ec = build(tf), build(tg), build(combo)
    th = np.linspace(0, 2 * math.pi, 25)
    for r in (0.3, 2.0, 9.0):
        assert_allclose(ext.evaluate(ec, r, th),
                        alpha * ext.evaluate(ef, r, th)
                        + beta * ext.evaluate(eg, r, th), atol=1e-10)


def test_harmonicity_fd_residual(cos_extension):
    u = lambda r, th: float(ext.evaluate(cos_extension, r, th))
    for r, th in ((1.0, 0.4), (2.5, 2.0), (6.0, 5.1)):
        res = laplace_beltrami_residual_fn(Hyperbolic(1.0), 2, u, r, th, h=0.02)
        assert abs(res) < 1e-3


def test_rotation_equivariance(hyperbolic, hyperbolic_criterion):
    # rotating the data rotates the extension: coefficient identity for n=2
    rng = np.random.default_rng(3)
    table = CoefficientTable(2)
    for m in range(4):
        for k in range(1 if m == 0 else 2):
            table.set(m, k, float(rng.normal()))
    theta0 = 0.83
    rotated = CoefficientTable(2)
    rotated.set(0, 0, table.get(0, 0))
    for m in range(1, 4):
        a, b = table.get(m, 0), table.get(m, 1)
        # f(theta - theta0): cos/sin pair rotates by angle m*theta0
        rotated.set(m, 0, a * math.cos(m * theta0) - b * math.sin(m * theta0))
        rotated.set(m, 1, a * math.sin(m * theta0) + b * math.cos(m * theta0))
    build = lambda t: ext.build_extension(
        hyperbolic, 2, BoundaryData.from_coefficients(t), 5,
        criterion=hyperbolic_criterion)
    e0, e1 = build(table), build(rotated)
    th = np.linspace(0, 2 * math.pi, 37)
    for r in (0.7, 3.0, 12.0):
        assert_allclose(ext.evaluate(e1, r, th),
                        ext.evaluate(e0, r, th - theta0), atol=1e-10)


def test_n3_polar_mode(hyperbolic, hyperbolic_criterion):
    from weakmodel.criterion import march_criterion
    rep3 = march_criterion(hyperbolic, 3, tol=1e-8)
    table = CoefficientTable(3)
    table.set(1, 0, 1.0)
    e = ext.build_extension(hyperbolic, 3,
                            BoundaryData.from_coefficients(table), 3,
                            criterion=rep3)
    colat = np.linspace(0.1, math.pi - 0.1, 20)
    lon = np.zeros_like(colat)
    vals = ext.evaluate(e, 2.0, (colat, lon))
    expect = e.profiles[1].interp(2.0) * eigenfunction_eval(3, 1, 0, (colat, lon))
    assert_allclose(vals, expect, atol=1e-12)
    # maximum principle against the boundary eigenfunction range
    sup_f = math.sqrt(3 / (4 * math.pi))
    assert np.max(np.abs(vals)) <= sup_f + 1e-9
    # FD harmonicity for the n=3 stencil
    u = lambda r, om: float(ext.evaluate(e, r, om))
    res = laplace_beltrami_residual_fn(Hyperbolic(1.0), 3, u, 2.0, (1.1, 0.6),
                                       h=0.02)
    assert abs(res) < 1e-3


def _flat_table(top, bottom=0):
    table = CoefficientTable(2)
    for m in range(bottom, top + 1):
        table.set(m, 0, 1.0)
    return table


def test_decay_warning(hyperbolic, hyperbolic_criterion):
    # flat spectrum up to M, sampled on the grid: the tail check must warn
    f = BoundaryData.from_function(
        2, 4, lambda th: sum(eigenfunction_eval(2, m, 0, th) for m in range(5)))
    with pytest.warns(UserWarning, match="not well resolved"):
        ext.build_extension(hyperbolic, 2, f, 4,
                            criterion=hyperbolic_criterion)
    # exact coefficients with modes above M lose energy to the projection
    f = BoundaryData.from_coefficients(_flat_table(6))
    with pytest.warns(UserWarning, match="not well resolved"):
        ext.build_extension(hyperbolic, 2, f, 4,
                            criterion=hyperbolic_criterion)


def test_unresolved_samples_warn_with_their_dropped_energy(hyperbolic, hyperbolic_criterion):
    # cos(5 theta) on the n = 2, M = 4 grid projects to rounding noise: the
    # dropped share is of the samples' energy, not a ratio of that noise
    f = BoundaryData.from_function(2, 4, lambda th: np.cos(5 * th))
    with pytest.warns(UserWarning, match="modes >= 3 carry 1 of the energy"):
        ext.build_extension(hyperbolic, 2, f, 4,
                            criterion=hyperbolic_criterion)


@pytest.mark.filterwarnings("error::UserWarning")
def test_band_limited_samples_do_not_warn(hyperbolic, hyperbolic_criterion):
    # samples of modes below the top of the band drop nothing
    for n, M, fn in ((2, 4, lambda th: 1.0 + np.cos(th) - 0.5 * np.sin(2 * th)),
                     (3, 3, lambda colat, lon: np.cos(colat) + np.sin(colat) * np.cos(lon))):
        f = BoundaryData.from_function(n, M, fn)
        crit = hyperbolic_criterion if n == 2 else None
        ext.build_extension(hyperbolic, n, f, M, criterion=crit)


@pytest.mark.filterwarnings("error::UserWarning")
def test_exact_band_limited_coefficients_do_not_warn(hyperbolic, hyperbolic_criterion):
    # projecting coefficients with no mode above M is exact, so a top-heavy
    # band is resolved: the flat spectrum and the single:2:0 preset at M=2
    for table, M in ((_flat_table(4), 4), (_flat_table(2, bottom=2), 2)):
        ext.build_extension(hyperbolic, 2,
                            BoundaryData.from_coefficients(table), M,
                            criterion=hyperbolic_criterion)


@pytest.mark.parametrize("preset,M,warns", [
    ("single:5:0", 1, True), ("single:1:0", 0, True),
    ("cos", 1, False), ("constant", 0, False)])
def test_dropped_modes_warn_below_m2(hyperbolic, hyperbolic_criterion, preset, M, warns):
    # below M = 2 there is no top band to read; input modes above M decide
    f = _boundary_data({"n": 2, "modes": M, "preset": preset})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ext.build_extension(hyperbolic, 2, f, M,
                            criterion=hyperbolic_criterion)
    hits = [w for w in caught if "not well resolved" in str(w.message)]
    assert bool(hits) == warns
    if warns:
        assert f"modes >= {M + 1} carry 1 of the energy" in str(hits[0].message)


class StretchedCircle(SphereSpectrum):
    """A circle of circumference 4 pi: eigenvalues (m/2)^2."""

    def __init__(self):
        super().__init__(2)

    def mode(self, m):
        return EigenMode(m=m, lambda_sq=(m / 2.0) ** 2,
                         multiplicity=1 if m == 0 else 2)

    def eigenfunction(self, m, k, omega):
        omega = np.asarray(omega, dtype=float)
        norm = math.sqrt(2 * math.pi)     # half the round density
        if m == 0:
            return np.full_like(omega, 1.0 / math.sqrt(4 * math.pi))
        trig = np.cos if k == 0 else np.sin
        return trig(m * omega / 2.0) / norm

    def quadrature(self, M):
        N = max(4 * (M + 1), 8)
        pts = 4 * math.pi * np.arange(N) / N
        return SphereQuadrature(n=2, band_limit=M, points=pts,
                                weights=np.full(N, 4 * math.pi / N))

    def sup_norm(self, m):
        return 1.0 / math.sqrt((4 if m == 0 else 2) * math.pi)


def test_pluggable_spectrum(hyperbolic, hyperbolic_criterion):
    # the radial machinery only sees the spectral data, so solvability and
    # the extension work unchanged on a stretched circle
    spec = StretchedCircle()
    # orthonormality sanity of the plugged basis
    quad = spec.quadrature(3)
    f10 = spec.eigenfunction(1, 0, quad.points)
    f11 = spec.eigenfunction(1, 1, quad.points)
    assert_allclose(np.dot(quad.weights, f10 ** 2), 1.0, rtol=1e-12)
    assert abs(np.dot(quad.weights, f10 * f11)) < 1e-12

    table = CoefficientTable(2, {(1, 0): 1.0})
    e = ext.build_extension(hyperbolic, 2,
                            BoundaryData.from_coefficients(table), 3,
                            criterion=hyperbolic_criterion, spectrum=spec)
    assert e.profiles[1].mode.lambda_sq == 0.25
    th = np.linspace(0, 4 * math.pi, 33)
    vals = ext.evaluate(e, 2.0, th)
    expect = e.profiles[1].interp(2.0) * spec.eigenfunction(1, 0, th)
    assert_allclose(vals, expect, atol=1e-12)
    assert ext.l2_distance_to_boundary(e, 14.0) < 1e-3


def test_custom_spectrum_refuses_sampled_data(hyperbolic, hyperbolic_criterion):
    # samples are projected on the round-sphere basis; with another
    # spectrum that builds a wrong extension, so they are refused by name
    spec = StretchedCircle()
    f = BoundaryData.from_function(2, 3, lambda th: spec.eigenfunction(1, 0, th))
    with pytest.raises(UnsupportedSpectrum, match="StretchedCircle"):
        ext.build_extension(hyperbolic, 2, f, 3,
                            criterion=hyperbolic_criterion, spectrum=spec)


def test_exports(tmp_path, cos_extension):
    csv_path = tmp_path / "eval.csv"
    ext.dump_evaluation_csv(cos_extension, csv_path, r_values=[1.0, 2.0])
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "r,theta,u"
    assert len(lines) == 1 + 2 * 20    # the 4(M + 1) nodes at M = 4
    obj = ext.summary_json(cos_extension, r_values=[1.0, 5.0])
    assert obj["M"] == 4 and len(obj["l2_curve"]) == 2
    assert obj["l2_curve"][0][1] > obj["l2_curve"][1][1]
