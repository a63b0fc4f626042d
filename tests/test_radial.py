import json
import math
import os
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import cumulative_simpson, quad, solve_ivp

from conftest import count_calls, criterion_at, dop853_reference, normalized
from weakmodel import radial
from weakmodel.criterion import march_criterion, tail_certificate
from weakmodel.errors import (DegenerateProfile, MalformedArtifact,
                              NonPositiveWarp, NotConvergent, OutOfRange,
                              TailNotTight)
from weakmodel.radial import (RadialProfile, conformal_modes,
                              export_metadata_json, indicial_exponent,
                              lemma_bound_check, load_profile_csv,
                              normalize_profile, riccati_trace,
                              solve_modes, solve_radial, suggest_rmax)
from weakmodel.spectrum import EigenMode, eigen_round_sphere
from weakmodel.warp import (Euclidean, Hyperbolic, PowerGrowth, PowerLawGrowth,
                            PowerLog, Tabulated, WarpingFunction)


def _conformal(w, modes, r_max=30.0):
    """`conformal_modes` of w, read off its criterion report at r_max."""
    return conformal_modes(w, modes, march_criterion(w, 2, r_max=r_max))


def _search_from(w, n, lam2, R):
    """`suggest_rmax`'s search from the tail certificate at R."""
    return suggest_rmax(w, n, lam2, tail_certificate(w, n, R))


def test_indicial_exponent():
    for m in (1, 2, 3):
        assert_allclose(indicial_exponent(2, m * m), m, rtol=1e-15)
        assert_allclose(indicial_exponent(3, m * (m + 1)), m, rtol=1e-15)
    assert_allclose(indicial_exponent(4, 3.0), 1.0, rtol=1e-15)
    # residual of the defining polynomial
    for n in (2, 3, 4, 7):
        for lam2 in (0.0, 1.0, 6.0, 30.0):
            l = indicial_exponent(n, lam2)
            assert abs(l * (l - 1) + (n - 1) * l - lam2) < 1e-12
            assert l >= 0
    with pytest.raises(ValueError, match="^lambda\\^2 must be >= 0, got -1.0$"):
        indicial_exponent(2, -1.0)


def test_euclidean_mode_is_power():
    # with phi = r and lambda^2 = m^2 the solution is exactly r^m
    p = solve_radial(Euclidean(), 2, eigen_round_sphere(2, 2), r_max=10.0)
    assert abs(p.interp(2.0) / p.interp(1.0) - 4.0) < 1e-8
    r = np.linspace(0.2, 9.5, 50)
    assert_allclose(p.interp(r) / p.interp(1.0), r ** 2, rtol=1e-8)


def test_tanh_mode(tanh_profile):
    # oracle first: tanh(r/2) satisfies the equation for phi = sinh, lam2 = 1
    for r in (0.3, 1.0, 4.0):
        h = 1e-5
        u = lambda x: math.tanh(x / 2)
        d2 = (u(r + h) - 2 * u(r) + u(r - h)) / h ** 2
        d1 = (u(r + h) - u(r - h)) / (2 * h)
        res = d2 + (math.cosh(r) / math.sinh(r)) * d1 - u(r) / math.sinh(r) ** 2
        assert abs(res) < 1e-6
    r = np.linspace(0.1, 10.0, 300)
    assert np.max(np.abs(tanh_profile.interp(r) - np.tanh(r / 2))) < 1e-6
    assert tanh_profile.normalized
    assert tanh_profile.limit_estimate == 1.0
    assert tanh_profile.limit_error < 1e-4


def test_zero_mode_constant():
    for w in (Euclidean(), Hyperbolic(1.0), PowerGrowth(2.0)):
        p = solve_radial(w, 2, eigen_round_sphere(2, 0), r_max=15.0)
        assert np.all(p.values == 1.0)
        assert np.all(p.derivs == 0.0)
        assert p.normalized and p.limit_estimate == 1.0


def test_normalized_profile_invariants(tanh_profile):
    assert np.all(tanh_profile.values <= 1.0 + tanh_profile.limit_error)
    assert np.all(np.diff(tanh_profile.values) >= -1e-12)
    assert np.all(tanh_profile.values >= 0)


def test_limit_estimate_matches_closed_form():
    p = solve_radial(Hyperbolic(1.0), 2, eigen_round_sphere(2, 1), r_max=20.0)
    q = normalized(p)
    # the raw solve is scaled tanh(r/2); its limit estimate must sit within
    # delta of tanh(10) relative to the raw value at r_max
    assert q.limit_error < 1e-4
    assert abs(q.interp(10.0) - math.tanh(5.0)) < 1e-6


def test_interp_out_of_range(tanh_profile):
    with pytest.raises(OutOfRange):
        tanh_profile.interp(tanh_profile.r_max * 1.5)
    # below-launch evaluation follows the r^l power law down to 0
    assert tanh_profile.interp(0.0) == 0.0
    small = tanh_profile.interp(1e-5)
    assert_allclose(small, math.tanh(5e-6), rtol=1e-3)


def test_riccati_trace_euclidean():
    # x = phi phi_m'/(lam2 phi_m) = r * m r^{m-1} / (m^2 r^m) = 1/m; for m=1: 1
    p = solve_radial(Euclidean(), 2, eigen_round_sphere(2, 1), r_max=25.0)
    tr = riccati_trace(p)
    assert np.max(np.abs(tr.x - 1.0)) < 1e-8
    assert tr.residual_ok and tr.inequality_ok
    assert_allclose(riccati_trace(p, [1.0]).x[0], 1.0, atol=1e-9)   # A = x(1)
    assert_allclose(p.interp(1.0), 1.0, atol=1e-9)                  # B = phi_m(1)


def test_riccati_trace_hyperbolic(tanh_profile):
    # sinh(s) * (tanh(s/2))' / tanh(s/2) = 1 identically
    tr = riccati_trace(tanh_profile)
    assert np.max(np.abs(tr.x - 1.0)) < 1e-6
    assert tr.residual_ok and tr.inequality_ok
    assert_allclose(tanh_profile.interp(1.0), math.tanh(0.5), atol=1e-6)


def test_riccati_rejects_constant_mode():
    p = solve_radial(Euclidean(), 2, eigen_round_sphere(2, 0), r_max=10.0)
    with pytest.raises(DegenerateProfile):
        riccati_trace(p)
    # and a mode whose z, so phi_m', turns negative
    p = solve_radial(Euclidean(), 3, eigen_round_sphere(3, 1), r_max=10.0)
    flipped = replace(p, _dense=lambda s, ds=False: p._dense(s, ds) * [[1.0], [-1.0]])
    with pytest.raises(DegenerateProfile, match="^nonpositive phi_m or phi_m' in the "
                                                "trace range$"):
        riccati_trace(flipped)


def _hyperbolic_n2_exponent(x, a=0.7):
    F = np.log(np.tanh(0.5 * a * x)) - math.log(math.tanh(0.5 * a))
    return F, F ** 2 / 2.0


# (F, T) of the growth bound's exponent lambda^2 (A F + T) in closed form:
# F = int_1^x phi^{1-n} and T = int_1^x phi^{1-n}(t) int_1^t phi^{n-3}
_EXPONENTS = {
    "euclidean-n2": (Euclidean(), 2, lambda x: (np.log(x), np.log(x) ** 2 / 2.0)),
    "hyperbolic-n2": (Hyperbolic(0.7), 2, _hyperbolic_n2_exponent),
    "euclidean-n3": (Euclidean(), 3, lambda x: (1.0 - 1.0 / x, np.log(x) - 1.0 + 1.0 / x)),
}


def test_lemma_bound_euclidean_closed_form():
    # bound = B exp(lambda^2 (A F + T)), read on the trace grid and, as
    # verify reads it, on the solve's own grid inside [1, 20]
    for case, (w, n, exponent) in _EXPONENTS.items():
        p = solve_radial(w, n, eigen_round_sphere(n, 1), r_max=25.0)
        A, B = riccati_trace(p, [1.0]).x[0], p.interp(1.0)
        trace_grid = np.linspace(1.0, 20.0, 481)
        own = p.grid[(p.grid >= 1.0) & (p.grid <= 20.0)]
        for r in (trace_grid, own):
            bound, ok = lemma_bound_check(p, criterion_at(p), r)
            assert ok, case
            F, T = exponent(r)
            expect = B * np.exp(p.mode.lambda_sq * (A * F + T))
            assert_allclose(bound, expect, rtol=1e-12, err_msg=case)
            assert np.all(p.interp(r) <= bound * (1 + 1e-8)), case


def test_lemma_bound_zero_mode():
    # the constant mode has A = 0, B = 1 and lambda^2 = 0, which kills the
    # exponent: the bound is 1, and the constant 1 lies on it
    p = solve_radial(Hyperbolic(1.0), 2, eigen_round_sphere(2, 0), r_max=21.0)
    bound, ok = lemma_bound_check(p, criterion_at(p), np.linspace(1.0, 20.0, 481))
    assert ok and np.all(bound == 1.0)


@pytest.mark.parametrize("w,n", [
    (Hyperbolic(1.0), 2), (Hyperbolic(1.0), 3),
    (PowerGrowth(2.0), 2), (PowerGrowth(2.0), 3),
])
def test_lemma_suite(w, n):
    for m in range(1, 6):
        p = solve_radial(w, n, eigen_round_sphere(n, m), r_max=25.0)
        tr = riccati_trace(p)
        assert tr.residual_ok, f"m={m}"
        assert tr.inequality_ok, f"m={m}"
        _, ok = lemma_bound_check(p, criterion_at(p), tr.grid)
        assert ok, f"m={m}"


@pytest.mark.parametrize("m", [1, 4, 8])
@pytest.mark.parametrize("a", [2.04, 3.0])
def test_fast_growth_n5_trace_passes(a, m):
    # x' reaches phi^2 ~ e^120 here: the exact derivative leaves only the
    # solve's own defect, and the inequality's slack scales with phi^(n-3);
    # the round sphere refuses n = 5, so the mode is given by its eigenvalue
    p = solve_radial(Hyperbolic(a), 5, EigenMode(m, m * (m + 3), 1), r_max=30.0)
    tr = riccati_trace(p)
    assert tr.residual_ok and tr.inequality_ok


@pytest.mark.parametrize("n", [2, 3])
def test_wrong_eigenvalue_in_the_solver_fails_the_residual(monkeypatch, n):
    # the trace writes the x-form equation itself, so a solve of a slightly
    # wrong equation is caught
    mode = eigen_round_sphere(n, 2)
    assert riccati_trace(solve_radial(Hyperbolic(1.0), n, mode)).residual_ok
    solve_ivp = radial.solve_ivp
    monkeypatch.setattr(radial, "solve_ivp", lambda w, n, lam2, *args, **kwargs:
                        solve_ivp(w, n, np.multiply(lam2, 1 + 1e-4), *args, **kwargs))
    assert not riccati_trace(solve_radial(Hyperbolic(1.0), n, mode)).residual_ok


def _trace_and_bound_alone(profile):
    """riccati_trace's residual and lemma_bound_check's bound, each array
    computed for this one profile: the warp read on the trace grid, the
    panel triples of a criterion report of its own, and the profile's own
    dense rows."""
    w, n, lam2 = profile.warp, profile.n, profile.mode.lambda_sq
    s_grid = np.linspace(1.0, min(profile.r_max, 20.0), 481)
    z, dz = profile._dense(np.log(s_grid))[1], profile._dense(np.log(s_grid), True)[1]
    log_phi = np.asarray(w.log_phi(s_grid), dtype=float)
    source = np.exp((n - 3) * log_phi)
    x = s_grid * z * source
    phi, dphi = w.eval(s_grid)
    xp = source * (z * (1 + (n - 3) * (s_grid * dphi / phi)) + dz)
    residual = xp + np.exp(math.log(lam2) + 2 * np.log(x) - (n - 1) * log_phi) - source
    A = float(x[np.argmin(np.abs(s_grid - 1.0))])
    B = float(profile.interp(1.0))
    log_t, log_f, _ = radial._quadrature.log_prefix(criterion_at(profile).panels, s_grid)
    return residual, np.exp(math.log(B) + lam2 * (A * np.exp(log_f) + np.exp(log_t)))


@pytest.mark.parametrize("w,n", [(PowerGrowth(2.0), 3), (Hyperbolic(0.7), 3),
                                 (PowerLog(1.5), 2), (Hyperbolic(1.0), 2)])
def test_shared_trace_arrays_keep_every_bit(w, n):
    # the modes of one solve share the warp's arrays, the stack's dense
    # rows and the growth bound's exponent; each mode, read on a stack of
    # its own where no other mode shares anything, gives the same bits
    modes = [eigen_round_sphere(n, m) for m in range(1, 5)]
    solve = ((lambda: _conformal(w, modes)) if n == 2
             else (lambda: solve_modes(w, n, modes, r_max=30.0)))
    shared = solve()
    traces = [riccati_trace(p) for p in shared]
    report = criterion_at(shared[0])
    bounds = [lemma_bound_check(p, report, tr.grid)[0] for p, tr in zip(shared, traces)]
    for j in range(len(modes)):
        residual, bound = _trace_and_bound_alone(solve()[j])
        assert traces[j].residual.tobytes() == residual.tobytes()
        assert bounds[j].tobytes() == bound.tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_scaled_z_fails_the_residual(n):
    p = solve_radial(Hyperbolic(1.0), n, eigen_round_sphere(n, 2))
    dense = p._dense
    scaled = replace(p, _dense=lambda s, ds=False:
                     dense(s, ds) * np.array([[1.0], [1 + 1e-4]]))
    assert riccati_trace(p).residual_ok
    assert not riccati_trace(scaled).residual_ok


def ode_residual(profile: RadialProfile, r_points=None):
    """Finite-difference residual of the mode equation on interior points."""
    w = profile.warp
    n = profile.n
    lam2 = profile.mode.lambda_sq
    if r_points is None:
        r_points = np.linspace(max(profile.r0 * 20, 0.05),
                               profile.r_max * 0.98, 200)
    r = np.asarray(r_points, dtype=float)
    h = 1e-4 * np.maximum(1.0, r)
    f = profile.interp
    d2 = (f(r + h) - 2 * f(r) + f(r - h)) / h ** 2
    d1 = (f(r + h) - f(r - h)) / (2 * h)
    phi, dphi = w.eval(r)
    return d2 + (n - 1) * (dphi / phi) * d1 - lam2 / phi ** 2 * f(r)


def test_ode_residual_invariant(closed_families):
    for w in closed_families[:6]:
        p = solve_radial(w, 2, eigen_round_sphere(2, 2), r_max=20.0)
        res = ode_residual(p)
        phi_scale = np.abs(p.interp(np.linspace(0.05, p.r_max * 0.98, 200)))
        assert np.max(np.abs(res) / np.maximum(1.0, phi_scale)) < 1e-5


def test_frobenius_launch_consistency():
    # moving the launch point changes the normalized profile negligibly
    w = Hyperbolic(1.0)
    mode = eigen_round_sphere(2, 2)
    p1 = normalized(solve_radial(w, 2, mode, r_max=20.0, r0=1e-3))
    p2 = normalized(solve_radial(w, 2, mode, r_max=20.0, r0=1e-4))
    assert abs(p1.interp(1.0) - p2.interp(1.0)) < 1e-6
    # alpha(r) = phi_m r^{-l} tends to a finite positive limit at the origin
    r = np.array([2e-3, 4e-3, 8e-3])
    alpha = p1.interp(r) / r ** p1.indicial_l
    assert np.all(alpha > 0)
    assert np.max(np.abs(alpha / alpha[0] - 1.0)) < 1e-4


def test_riccati_reconstruction_cross_check(tanh_profile):
    # integrate x' = phi^{n-3} - lam2 x^2/phi^{n-1} from x(1) = A and rebuild
    # phi_m = B exp(int lam2 x / phi^{n-1}); must match the direct solve
    w, n, lam2 = Hyperbolic(1.0), 2, 1.0
    tr = riccati_trace(tanh_profile)

    def rhs(s, y):
        phi = math.sinh(s)
        return [phi ** (n - 3) - lam2 * y[0] ** 2 / phi ** (n - 1)]

    sol = solve_ivp(rhs, (1.0, 20.0), [tr.x[0]], method="DOP853", rtol=1e-11,
                    atol=1e-12, dense_output=True)
    s = np.linspace(1.0, 20.0, 2001)
    x = sol.sol(s)[0]
    integrand = lam2 * x / np.sinh(s) ** (n - 1)
    H = cumulative_simpson(integrand, x=s, initial=0.0)
    rebuilt = tanh_profile.interp(1.0) * np.exp(H)
    direct = tanh_profile.interp(s)
    assert np.max(np.abs(rebuilt / direct - 1.0)) < 1e-5


@pytest.mark.parametrize("w,n,r_top", [
    (Hyperbolic(1.0), 2, 40.0),
    (Hyperbolic(2.0), 3, 40.0),
    (PowerGrowth(2.0), 2, 4000.0),
])
def test_bounded_iff_convergent_plateau(w, n, r_top):
    rep = march_criterion(w, n, tol=1e-6)
    assert rep.verdict == "Convergent"
    p = solve_radial(w, n, eigen_round_sphere(n, 1), r_max=r_top)
    ratio = p.interp(r_top) / p.interp(r_top / 2)
    assert ratio - 1.0 < 1e-3


@pytest.mark.parametrize("w,n", [(Euclidean(), 2), (PowerGrowth(0.8), 3)])
def test_divergent_modes_keep_growing(w, n):
    p = solve_radial(w, n, eigen_round_sphere(n, 1), r_max=100.0)
    assert p.interp(100.0) / p.interp(50.0) > 1.05
    assert math.isinf(p.limit_estimate)


def test_normalize_errors():
    # no certificate exists for a divergent metric, so nothing to normalize by
    with pytest.raises(NotConvergent):
        tail_certificate(Euclidean(), 2, 20.0)
    # power growth at a short range: normalization reports the loose tail
    # as its limit_error; refusing it is suggest_rmax's choice of radius
    p = normalized(solve_radial(PowerGrowth(2.0), 2, eigen_round_sphere(2, 1),
                                r_max=30.0))
    assert p.normalized and p.limit_error >= radial._TAIL_DELTA


def test_normalize_refuses_a_delta_past_double_range():
    # PowerLog(0.51) converges so slowly that at R = 100 the growth bound's
    # exponent for m = 4 overflows: delta is inf and pins no limit, and
    # dividing by it would give a profile of zeros
    w = PowerLog(0.51)
    p = solve_radial(w, 3, eigen_round_sphere(3, 4), r_max=100.0)
    with pytest.raises(TailNotTight, match=r"^tail delta at r_max = 100 is inf "):
        normalize_profile(p, tail_certificate(w, 3, 100.0))


@pytest.mark.parametrize("n", [2, 3])
def test_suggest_rmax_keeps_the_certificate_at_lambda_zero(n):
    # with lambda^2 = 0 the tail delta is 0 at every R
    w = Hyperbolic(1.0)
    cert = tail_certificate(w, n, 30.0)
    assert suggest_rmax(w, n, 0.0, cert) is cert


def test_suggest_rmax_enables_normalization():
    w = PowerGrowth(2.0)
    mode = eigen_round_sphere(2, 1)
    cert = _search_from(w, 2, mode.lambda_sq, 30.0)
    p = normalize_profile(solve_radial(w, 2, mode, r_max=cert.r_max), cert)
    assert p.normalized and p.limit_error < 1e-4


def test_suggest_rmax_solves_no_mode(monkeypatch):
    # the tail delta needs the metric and the certificates only: R = 30 is
    # given with its certificate, then 900 is certified, then the search
    # narrows to the root near 282.8, certifying each radius it tries once
    ivps = count_calls(monkeypatch, radial, "solve_ivp")
    start = tail_certificate(PowerGrowth(2.0), 3, 30.0)
    certs = count_calls(monkeypatch, radial._criterion, "tail_certificate")
    cert = suggest_rmax(PowerGrowth(2.0), 3, 2.0, start)
    tried = [args[2] for args in certs]
    assert tried[:1] == [pytest.approx(900.0, rel=1e-15)]
    assert len(set(tried)) == len(tried) <= 5 and cert.r_max in tried
    assert 282.8 < cert.r_max < 283.2
    assert ivps == []


def test_suggest_rmax_stops_at_the_end_of_tabulated_data(monkeypatch):
    # a trusted power law sampled to r = 60: log R doubles from log 30 past
    # the samples, so the search tries the top instead, which the
    # certificate clips to just inside the hull; the refusal names the hull
    grid = np.geomspace(1e-4, 60.0, 400)
    w = Tabulated(grid, *PowerGrowth(1.5).eval(grid),
                  growth=PowerLawGrowth(1.5, 1.0))
    start = tail_certificate(w, 3, 30.0)
    certs = count_calls(monkeypatch, radial._criterion, "tail_certificate")
    with pytest.raises(TailNotTight,
                       match=r"^no r_max up to the end of the tabulated hull at "
                             r"59\.7 reaches .* at r_max = 59\.7,"):
        suggest_rmax(w, 3, 2.0, start)
    tried = [args[2] for args in certs]
    assert 59.7 < tried[0] <= 60.0 and len(tried) == 1


def test_suggest_rmax_refuses_a_clipped_hull_at_once(monkeypatch):
    # R = 100 lies past the samples: its certificate is clipped to just
    # inside the hull, and no larger R exists, so the search's one
    # certificate, at the top, clipped to the same radius, gives the refusal
    grid = np.geomspace(1e-4, 60.0, 400)
    w = Tabulated(grid, *PowerGrowth(1.5).eval(grid),
                  growth=PowerLawGrowth(1.5, 1.0))
    start = tail_certificate(w, 3, 100.0)
    assert start.r_max == 60.0 * 0.995
    certs = count_calls(monkeypatch, radial._criterion, "tail_certificate")
    with pytest.raises(TailNotTight,
                       match=r"^no r_max up to the end of the tabulated hull at "
                             r"59\.7 reaches .* at r_max = 59\.7,"):
        suggest_rmax(w, 3, 2.0, start)
    assert len(certs) == 1 and 59.7 < certs[0][2] <= 60.0


def _passes(w, n, lam2, R):
    A = radial._riccati_bound(w, n, lam2)
    return radial._tail_delta(A, lam2, tail_certificate(w, n, R)) < radial._TAIL_DELTA


# (metric, m, the radius the doubling search of 30 * 2^k certified at n = 3)
_DOUBLED_RADII = [
    (PowerGrowth(2.0), 1, 480.0), (PowerGrowth(2.0), 2, 960.0),
    (PowerGrowth(2.0), 4, 960.0), (PowerGrowth(2.0), 8, 1920.0),
    (PowerGrowth(1.5), 1, 245760.0), (PowerGrowth(1.5), 2, 491520.0),
    (PowerGrowth(1.5), 4, 1966080.0), (PowerGrowth(1.5), 8, 7864320.0),
    (PowerLog(5.0), 1, 120.0), (PowerLog(5.0), 2, 240.0),
    (PowerLog(5.0), 4, 480.0), (PowerLog(5.0), 8, 1920.0),
    (PowerLog(3.0), 1, 491520.0), (PowerLog(3.0), 2, 15728640.0),
]


def test_tail_delta_past_double_range_is_inf():
    # expm1 of lambda^2 (A T_in + C T_in + T_out) overflows: no radius of
    # this certificate is tight, and no OverflowError escapes
    cert = tail_certificate(PowerGrowth(1.5), 3, 2.0)
    assert radial._tail_delta(1.0, 1e8, cert) == math.inf


def test_launch_off_the_table_hull_and_other_warp_errors():
    # the cubic term of phi is read at r = 1e-2: a table whose hull starts
    # above it launches at first order, and any other error of the warp
    # there is the solve's own, where it used to launch at first order too
    mode = eigen_round_sphere(3, 1)
    grid = np.geomspace(0.02, 30.0, 400)
    table = Tabulated(grid, *Hyperbolic(1.0).eval(grid))
    p = solve_radial(table, 3, mode, r_max=20.0, r0=0.05)
    q = solve_radial(Hyperbolic(1.0), 3, mode, r_max=20.0, r0=0.05)
    assert p.r0 == 0.05 and np.max(np.abs(p.values / q.values - 1.0)) < 1e-3

    class Undefined(WarpingFunction):
        def eval(self, r):
            if np.any(np.asarray(r) == 1e-2):
                raise ArithmeticError("phi is undefined at r = 0.01")
            return Hyperbolic(1.0).eval(r)
    with pytest.raises(ArithmeticError, match="^phi is undefined at r = 0.01$"):
        solve_radial(Undefined(), 3, mode, r_max=20.0)


@pytest.mark.parametrize("w,m,doubled", _DOUBLED_RADII)
def test_no_certified_radius_grows(w, m, doubled):
    # the search returns a passing log R within _LOG_R_STEP of a failing
    # one, which for these metrics is no more than the first passing
    # doubling of 30
    lam2 = m * (m + 1)
    cert = _search_from(w, 3, lam2, 30.0)
    assert cert.r_max <= doubled
    assert radial._tail_delta(radial._riccati_bound(w, 3, lam2), lam2,
                              cert) < radial._TAIL_DELTA
    assert not _passes(w, 3, lam2, cert.r_max * math.exp(-radial._LOG_R_STEP))


def test_log_r_step_is_clipped_at_the_top(monkeypatch):
    # PowerGrowth(1.03) at m = 1 needs R near 1.26e107; doubling log R from
    # 3.4e94 would pass 1.3e154, where 1 + r*r overflows, so the step stops
    # at the top and no radius beyond it is certified
    w = PowerGrowth(1.03)
    certs = count_calls(monkeypatch, radial._criterion, "tail_certificate")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cert = _search_from(w, 3, 2.0, 30.0)
    assert 1.25e107 < cert.r_max < 1.27e107
    tried = np.array([args[2] for args in certs])
    assert tried.max() < 1.35e154 and tried.max() > 1e150
    assert np.all(np.isfinite(w.eval(tried)[0]))


def test_refusal_certifies_only_the_radius_it_prints(monkeypatch):
    # PowerLog(1) at m = 1 misses the target at every radius inside double
    # range: log R doubles from log 30 and then stops at the top, whose
    # certificate is the one the refusal prints.  Each radius is certified
    # once, and none past the top, where phi is not finite
    w = PowerLog(1.0)
    certs = count_calls(monkeypatch, radial._criterion, "tail_certificate")
    with pytest.raises(TailNotTight) as info:
        _search_from(w, 3, 2.0, 30.0)
    tried = [args[2] for args in certs]
    assert len(set(tried)) == len(tried) <= 10
    assert f"at r_max = {tried[-1]:g}," in str(info.value)
    assert tried[-1] == max(tried) > 1e305
    assert np.all(np.isfinite(w.eval(np.array(tried))[0]))


@pytest.mark.parametrize("w,top", [
    (PowerGrowth(1.02), r"1\.327\d*e\+154"), (PowerLog(1.0), r"3\.80\d*e\+305"),
    (PowerLog(0.6), r"4\.45\d*e\+306"),
])
def test_refusals_beyond_double_range_are_quick(w, top):
    # these need R beyond double range: each is refused at the top, just
    # below the first radius where phi is not finite, in under 0.1 s
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(TailNotTight, match=rf"^no r_max below {top} reaches "
                                               r"tail delta 1\.25e-05; at r_max = "):
            _search_from(w, 3, 2.0, 30.0)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.1


_FAMILIES = st.one_of(
    st.just(Euclidean()),
    st.floats(0.2, 2.5).map(Hyperbolic),
    st.floats(0.5, 3.0).map(PowerGrowth),
    st.floats(0.0, 2.0).map(PowerLog))


@settings(max_examples=50, deadline=None)
@given(w=_FAMILIES, n=st.sampled_from([3, 4, 5]), m=st.integers(1, 6))
def test_metric_bounds_riccati_x_at_one(w, n, m):
    # x(0+) = 0 and x' <= phi^(n-3) give x(1) <= int_0^1 phi^(n-3) for the
    # solved mode, whatever the metric; the bound is 1 at n = 3
    mode = eigen_round_sphere(n, m)
    bound = radial._riccati_bound(w, n, mode.lambda_sq)
    x1 = float(riccati_trace(solve_radial(w, n, mode, r_max=2.0), s_grid=[1.0]).x[0])
    assert 0.0 < x1 <= bound
    exact = quad(lambda r: float(w.eval(r)[0]) ** (n - 3), 0.0, 1.0,
                 epsabs=0.0, epsrel=1e-13)[0]
    assert exact <= bound <= exact * (1 + 1e-11)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(w=st.one_of(st.just(Euclidean()),
                   st.floats(0.2, 3.0).map(Hyperbolic),
                   st.floats(0.3, 3.0).map(PowerGrowth),
                   st.floats(0.0, 5.0).map(PowerLog)),
       n=st.sampled_from([2, 3, 4]),
       ms=st.lists(st.integers(1, 8), min_size=3, max_size=3, unique=True),
       r_max=st.sampled_from([10.0, 25.0, 60.0]))
def test_every_raw_profile_lies_below_the_growth_bound(w, n, ms, r_max):
    # the lemma's bound holds for every mode of every metric, convergent or
    # not, on the raw profiles as solved
    modes = [eigen_round_sphere(n, m) for m in sorted(ms)]
    report = None
    for p in solve_modes(w, n, modes, r_max=r_max):
        report = report or criterion_at(p)
        _, ok = lemma_bound_check(p, report, riccati_trace(p).grid)
        assert ok, f"{w!r} n={n} m={p.mode.m} r_max={r_max}"


def test_normalize_rejects_certificate_at_another_radius():
    w = Hyperbolic(1.0)
    p = solve_radial(w, 2, eigen_round_sphere(2, 1), r_max=20.0)
    with pytest.raises(TailNotTight):
        normalize_profile(p, tail_certificate(w, 2, 30.0))
    # a range below the certificate's start cannot be certified either
    short = solve_radial(Hyperbolic(2.0), 2, eigen_round_sphere(2, 1), r_max=4.0)
    with pytest.raises(TailNotTight):
        normalized(short)


def test_riccati_trace_stays_inside_solved_range():
    # the default grid runs to the end of the solved range, and no further
    p = solve_radial(Hyperbolic(2.0), 2, eigen_round_sphere(2, 2), r_max=13.0)
    tr = riccati_trace(p)
    assert tr.grid[-1] == p.r_max == 13.0
    assert tr.residual_ok and tr.inequality_ok
    with pytest.raises(DegenerateProfile, match="leaves the solved range"):
        riccati_trace(p, s_grid=np.linspace(1.0, 13.5, 50))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("w,n", [(Hyperbolic(1.0), 3), (PowerGrowth(2.0), 3),
                                 (Hyperbolic(1.0), 2)])
def test_growth_bound_starts_at_one(w, n):
    # A = x(1) and B = phi_m(1) are read at r = 1 itself, wherever the radii
    # start, bit for bit as riccati_trace and interp read them there; radii
    # below r = 1, where the bound does not start, are refused by name
    # rather than failed (or read backwards)
    p = solve_radial(w, n, eigen_round_sphere(n, 1), r_max=25.0)
    A, B = riccati_trace(p, s_grid=[1.0]).x[0], p.interp(1.0)
    report = criterion_at(p)
    for r in ([1.0, 1.5, 3.0], [1.03, 1.5, 3.0]):
        bound, ok = lemma_bound_check(p, report, r)
        log_t, log_f, _ = radial._quadrature.log_prefix(report.panels, np.array(r))
        expect = np.exp(math.log(B) + p.mode.lambda_sq * (A * np.exp(log_f) + np.exp(log_t)))
        assert ok and bound.tobytes() == expect.tobytes()
    with pytest.raises(DegenerateProfile, match="starts at r = 1.*r = 0.97"):
        lemma_bound_check(p, report, [0.97, 1.03, 1.1, 1.5, 3.0])
    assert lemma_bound_check(p, report, [1.03, 1.1, 1.5, 3.0])[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_growth_bound_stays_inside_the_criterion_radius():
    # the bound is read from the report's panels over [1, r_max]: --rmax 10
    # gives Hyperbolic(1) the radius 13, the sandwich's start, and a trace
    # grid past it is refused by name rather than read off the panels
    w = Hyperbolic(1.0)
    p = solve_radial(w, 3, eigen_round_sphere(3, 1), r_max=25.0)
    report = march_criterion(w, 3, r_max=10.0)
    assert report.r_max == 13.0
    with pytest.raises(DegenerateProfile, match="ends at the criterion's r_max = 13.*r = 20"):
        lemma_bound_check(p, report, riccati_trace(p).grid)
    assert lemma_bound_check(p, report, np.linspace(1.0, 13.0, 200))[1]


@pytest.mark.parametrize("report, message", [
    (lambda w: march_criterion(w, 2, r_max=25.0), r"of n = 2, not of the profile's n = 3"),
    (lambda w: march_criterion(Hyperbolic(2.0), 3, r_max=25.0),
     r"of Hyperbolic\(a=2\), another warp object than the profile's Hyperbolic\(a=1\)"),
    (lambda w: march_criterion(Hyperbolic(1.0), 3, r_max=25.0),
     r"of Hyperbolic\(a=1\), another warp object than the profile's Hyperbolic\(a=1\)")],
    ids=["another-n", "another-warp", "another-warp-object"])
def test_growth_bound_refuses_a_report_of_another_metric(report, message):
    # the exponent is read off the report's panels, which integrate one warp
    # at one n: an n = 2 report would give this n = 3 mode a bound up to
    # 5.8 times too large, and it is refused by name, as is a report of
    # another warp object, whose repr may not tell the two apart
    w = Hyperbolic(1.0)
    p = solve_radial(w, 3, eigen_round_sphere(3, 2), r_max=25.0)
    r = riccati_trace(p).grid
    assert lemma_bound_check(p, criterion_at(p), r)[1]
    with pytest.raises(DegenerateProfile, match="the criterion report is " + message):
        lemma_bound_check(p, report(w), r)


def test_nonpositive_warp_detected():
    class Collapsing(WarpingFunction):
        growth_class = Euclidean().growth_class

        def eval(self, r):
            r = np.asarray(r, dtype=float)
            return 1.0 * r * (1.0 - r / 4.0), np.ones_like(r)

    with pytest.raises(NonPositiveWarp):
        solve_radial(Collapsing(), 2, eigen_round_sphere(2, 1), r_max=10.0)


def test_profile_csv_roundtrip(tmp_path, tanh_profile):
    path = tmp_path / "p.csv"
    tanh_profile.to_csv(path)
    grid, values = load_profile_csv(path)
    assert_allclose(grid, tanh_profile.grid, rtol=1e-12)
    assert_allclose(values, tanh_profile.values, rtol=1e-12)


@pytest.mark.parametrize("body", ["", "0.001,0.5,0.1\n", "0.001,0.5\n1,0.9\n",
                                  "0.001,0.5,0.1\n1,nan,0.2\n",
                                  "0.001,0.5,0.1\n1,0.9\n"])
def test_malformed_profile_csv_refused_by_name(tmp_path, body):
    path = tmp_path / "profile_m1.csv"
    path.write_text("r,phi_m,dphi_m\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedArtifact, match="profile_m1.csv"):
            load_profile_csv(path)


def _savetxt_reference(profile, path):
    """RadialProfile.to_csv as it was."""
    data = np.column_stack([profile.grid, profile.values, profile.derivs])
    np.savetxt(path, data, delimiter=",", header="r,phi_m,dphi_m",
               comments="", fmt="%.15g")


def _odd_profile(profile):
    """The profile's columns with values that print in exponent form, as -0,
    nan and inf, or with 15 digits."""
    odd = np.resize([-0.0, 1e-300, 2.5e-17, 1e20, 1234567890.12345, math.nan,
                     math.inf, 5e-324, 1e15, 1e16], len(profile.grid))
    return replace(profile, values=odd, derivs=-odd[::-1])


@pytest.mark.parametrize("make", [
    lambda p: p,
    lambda p: solve_modes(Hyperbolic(1.0), 3, [eigen_round_sphere(3, m)
                                               for m in (0, 2)])[1],
    lambda p: solve_modes(Hyperbolic(1.0), 3, [eigen_round_sphere(3, 0)])[0],
    _odd_profile])
def test_profile_csv_is_the_savetxt_bytes(tmp_path, tanh_profile, make):
    profile = make(tanh_profile)
    profile.to_csv(tmp_path / "p.csv")
    _savetxt_reference(profile, tmp_path / "ref.csv")
    assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("n, solve", [
    (3, lambda modes: solve_modes(Hyperbolic(1.0), 3, modes)),
    (2, lambda modes: _conformal(Hyperbolic(1.0), modes))], ids=["n3", "n2"])
def test_one_solve_formats_its_r_column_once(tmp_path, n, solve):
    # the profiles of one solve, m = 0 included, share the memo in which the
    # r column is formatted once; each file keeps the savetxt bytes
    profiles = solve([eigen_round_sphere(n, m) for m in range(3)])
    assert all(p._memo is profiles[0]._memo for p in profiles)
    for p in profiles:
        p.to_csv(tmp_path / f"p{p.mode.m}.csv")
        _savetxt_reference(p, tmp_path / "ref.csv")
        assert (tmp_path / f"p{p.mode.m}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert sum(key[0] == "csv" for key in profiles[0]._memo._store) == 1


def test_warp_reaching_zero_inside_the_span_fails_by_name():
    # phi is r on the solve's grid, so the grid check passes, and 0 at
    # every other radius above 2, where the first stage there stops the solve
    grid = np.geomspace(1e-3, 10.0, 800)

    class ZeroOffGrid(WarpingFunction):
        growth_class = Euclidean().growth_class

        def eval(self, r):
            r = np.asarray(r, dtype=float)
            phi = np.where((r < 2.0) | np.isin(r, grid), r, 0.0)
            return phi, np.ones_like(r)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPositiveWarp, match=r"phi\(.*\) = 0 <= 0"):
            solve_modes(ZeroOffGrid(), 3, [eigen_round_sphere(3, m)
                                           for m in (1, 2)], r_max=10.0)


def _single_mode_reference(w, n, mode, r_max):
    """The per-mode solve the stacked solver replaced, at rtol 1e-13: the
    launch state of one mode, and scipy's DOP853 on its one (u, z) pair,
    restarted at the warp's breakpoints."""
    lam2 = mode.lambda_sq
    l = indicial_exponent(n, lam2)
    r0, h = 1e-3, 1e-2
    kappa2 = (-((float(w.eval(h)[0]) - h) / h ** 3)
              * (l * (n - 1) + lam2) / (2.0 * l + n))
    u0 = l * math.log(r0) + math.log1p(kappa2 * r0 ** 2)
    w0 = (l + (l + 2) * kappa2 * r0 ** 2) / (1.0 + kappa2 * r0 ** 2)
    rho0 = r0 / float(w.eval(r0)[0])
    z0 = w0 / (lam2 * rho0 * rho0)
    dense = dop853_reference(w, n, [lam2], (math.log(r0), math.log(r_max)),
                             [u0, z0], cuts=np.log(w.breakpoints))
    grid = np.geomspace(r0, r_max, 800)
    u, z = dense(np.log(grid))
    rho = grid / w.eval(grid)[0]
    values = np.exp(u)
    return values, values * (lam2 * rho * rho * z) / grid, dense


@pytest.mark.parametrize("w,n,m,tol", [
    (Hyperbolic(1.0), 2, 1, 1e-8), (Hyperbolic(2.5), 3, 3, 1e-10),
    (PowerGrowth(2.0), 3, 2, 1e-8), (PowerLog(1.2), 2, 4, 1e-10),
    (Euclidean(), 3, 1, 1e-10),
])
def test_one_mode_stack_is_the_single_mode_solve(w, n, m, tol):
    mode = eigen_round_sphere(n, m)
    values, derivs, dense = _single_mode_reference(w, n, mode, 30.0)
    p = solve_modes(w, n, [mode], r_max=30.0, tol=tol)[0]
    q = solve_radial(w, n, mode, r_max=30.0, tol=tol)
    assert p.values.tobytes() == q.values.tobytes()
    assert p.derivs.tobytes() == q.derivs.tobytes()
    assert_allclose(p.values, values, rtol=1e-12, atol=0)
    assert_allclose(p.derivs, derivs, rtol=1e-12, atol=0)
    s = np.linspace(math.log(1e-3), math.log(30.0), 97)
    assert np.max(np.abs(p._dense(s)[0] - dense(s)[0])) <= 1e-12


def test_stack_keeps_mode_order_and_agrees_per_mode():
    w, n = PowerGrowth(2.0), 3
    modes = [eigen_round_sphere(n, m) for m in (2, 0, 4, 1)]
    stack = solve_modes(w, n, modes, r_max=40.0)
    assert [p.mode for p in stack] == modes
    assert np.all(stack[1].values == 1.0) and stack[1].normalized
    r = np.geomspace(2e-3, 40.0, 60)
    for mode, p in zip(modes, stack):
        assert p.r_max == 40.0
        single = solve_radial(w, n, mode, r_max=40.0)
        assert_allclose(p.values, single.values, rtol=1e-9)
        assert_allclose(p.interp(r), single.interp(r), rtol=1e-9)
        if mode.m:
            assert_allclose(riccati_trace(p, s_grid=r).x,
                            riccati_trace(single, s_grid=r).x, rtol=1e-8)


def test_profiles_json_ignores_last_bits(tmp_path, tanh_profile):
    # limit_error is printed rounded up to 3 digits and every other float
    # at 12, so one ulp of a tail bracket leaves the file's bytes as they were
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    export_metadata_json([tanh_profile], first)
    err = tanh_profile.limit_error
    export_metadata_json([replace(tanh_profile, limit_error=math.nextafter(err, 0.0))],
                         second)
    assert first.read_bytes() == second.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["a.json", "b.json"]  # no temp left
    rec, = json.loads(first.read_text())
    assert err <= rec["limit_error"] <= err * 1.01
    assert rec["limit_error"] == float(f"{rec['limit_error']:.3g}")
    assert rec["lambda_sq"] == 1.0 and rec["normalized"] is True


def test_conformal_modes_of_power_growth_are_exact():
    # phi = r sqrt(1 + r^2) has tau = asinh(1/r), so the modes are
    # exp(-m asinh(1/r)), with no ODE and no search for R
    modes = [eigen_round_sphere(2, m) for m in range(6)]
    for p in _conformal(PowerGrowth(2.0), modes):
        m = p.mode.m
        assert p.normalized and p.limit_estimate == 1.0 and p.r_max == 30.0
        gap = np.max(np.abs(p.values - np.exp(-m * np.arcsinh(1.0 / p.grid))))
        assert gap <= 1e-11 and gap <= p.limit_error + 1e-15, (m, gap)
        r = np.geomspace(2e-3, 29.0, 50)
        assert_allclose(p.interp(r), np.exp(-m * np.arcsinh(1.0 / r)),
                        rtol=1e-12, atol=1e-15)
        if m:
            # the Riccati variable of exp(-lambda tau) is the constant 1/lambda
            assert_allclose(riccati_trace(p, s_grid=r).x, 1.0 / m, rtol=1e-13)
            assert_allclose(p.derivs, m * p.values / (p.grid * np.sqrt(1 + p.grid ** 2)),
                            rtol=1e-13)


def test_conformal_modes_start_where_the_tail_bracket_holds():
    # R is the report's, raised to the start of the sandwich as for a tail
    # certificate; the constant mode alone needs no tail but keeps that R
    w = Hyperbolic(2.0)
    one, = _conformal(w, [eigen_round_sphere(2, 1)], r_max=4.0)
    assert one.r_max == tail_certificate(w, 2, 4.0).r_max > 4.0
    zero, = _conformal(w, [eigen_round_sphere(2, 0)], r_max=4.0)
    assert zero.r_max == one.r_max and np.all(zero.values == 1.0)


def test_conformal_constant_mode_is_exp_of_zero_tau():
    # m = 0 is exp(-0 tau) = 1, which both solvers build as one constant
    # profile: the bits and the record solve_modes gives on the same grid
    w = Hyperbolic(1.0)
    zero, = _conformal(w, [eigen_round_sphere(2, 0)])
    const, = solve_modes(w, 2, [eigen_round_sphere(2, 0)], r_max=zero.r_max)
    assert zero.grid.tobytes() == const.grid.tobytes()
    assert zero.values.tobytes() == const.values.tobytes() == np.ones(800).tobytes()
    assert zero.derivs.tobytes() == const.derivs.tobytes() == np.zeros(800).tobytes()
    assert zero.metadata() == const.metadata()
    assert zero.limit_error == 0.0 and zero.interp(0.5) == 1.0


@pytest.mark.parametrize("w", [Hyperbolic(1.0), PowerGrowth(2.0)],
                         ids=["hyperbolic", "powergrowth"])
def test_ode_solve_matches_closed_form_at_n2(w):
    # the two n = 2 paths cross-check: the raw ODE solve on the same grid is
    # exp(-lambda tau) times a constant
    modes = [eigen_round_sphere(2, m) for m in (1, 3)]
    for closed in _conformal(w, modes):
        raw = solve_radial(w, 2, closed.mode, r_max=closed.r_max, tol=1e-10)
        assert raw.grid.tobytes() == closed.grid.tobytes()
        shape = raw.values / raw.values[-1]
        assert_allclose(shape, closed.values / closed.values[-1], rtol=1e-10)
        r = np.geomspace(0.1, 25.0, 40)
        assert_allclose(riccati_trace(raw, s_grid=r).x,
                        riccati_trace(closed, s_grid=r).x, rtol=1e-10)


def _neg_log_tanh(x):
    """-log tanh(x) without cancellation: log(1 + e^-2x) - log(1 - e^-2x)."""
    return np.log1p(np.exp(-2.0 * x)) - np.log(-np.expm1(-2.0 * x))


@pytest.mark.parametrize("w, exact", [
    (Hyperbolic(0.5), lambda r: _neg_log_tanh(0.25 * r)),
    (Hyperbolic(1.0), lambda r: _neg_log_tanh(0.5 * r)),
    (Hyperbolic(2.0), lambda r: _neg_log_tanh(r)),
    (PowerGrowth(2.0), lambda r: np.arcsinh(1.0 / r)),
    (Hyperbolic(0.3), lambda r: _neg_log_tanh(0.15 * r))])
@pytest.mark.parametrize("r_max", [30.0, 100.0, 1e3])
def test_conformal_time_within_its_bound_of_the_closed_form(w, exact, r_max):
    # tau = int_r^inf 1/phi, as conformal_modes builds it from the report,
    # on the solve's grid and at radii between its nodes; one call per
    # point set equals one call per radius, bit for bit
    report = march_criterion(w, 2, r_max=r_max)
    R = report.r_max
    grid = np.geomspace(radial._DEFAULT_R0, R, radial._GRID_SIZE)
    off = np.exp(np.random.default_rng(11).uniform(math.log(grid[0]), math.log(R), 500))
    for r in (grid, off):
        tau = radial._ConformalTime(w, report)
        t = tau(np.log(r))[0]
        assert np.all(np.abs(t - exact(r)) <= tau.error), (
            np.max(np.abs(t - exact(r))), tau.error)
        one = np.array([tau(s)[0] for s in np.log(r)])
        assert one.tobytes() == t.tobytes()
