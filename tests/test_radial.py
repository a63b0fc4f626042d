import json
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import cumulative_simpson, quad, solve_ivp

from conftest import count_calls, normalized
from weakmodel import radial
from weakmodel.criterion import march_criterion, tail_certificate
from weakmodel.errors import (DegenerateProfile, NonPositiveWarp,
                              NotConvergent, OutOfRange, TailNotTight)
from weakmodel.radial import (RadialProfile, conformal_modes,
                              export_metadata_json, indicial_exponent,
                              lemma_bound_check, load_profile_csv,
                              normalize_profile, riccati_trace, riccati_x,
                              solve_modes, solve_radial, suggest_rmax)
from weakmodel.spectrum import eigen_round_sphere
from weakmodel.warp import (Euclidean, Hyperbolic, PowerGrowth, PowerLog,
                            WarpingFunction)


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
    assert_allclose(tr.A, 1.0, atol=1e-9)
    assert_allclose(tr.B, 1.0, atol=1e-9)


def test_riccati_trace_hyperbolic(tanh_profile):
    # sinh(s) * (tanh(s/2))' / tanh(s/2) = 1 identically
    tr = riccati_trace(tanh_profile)
    assert np.max(np.abs(tr.x - 1.0)) < 1e-6
    assert tr.residual_ok and tr.inequality_ok
    assert_allclose(tr.B, math.tanh(0.5), atol=1e-6)


def test_riccati_rejects_constant_mode():
    p = solve_radial(Euclidean(), 2, eigen_round_sphere(2, 0), r_max=10.0)
    with pytest.raises(DegenerateProfile):
        riccati_trace(p)


def test_lemma_bound_euclidean_closed_form():
    # A = B = 1: bound(s) = s exp(log(s)^2/2) from the elementary integral
    p = solve_radial(Euclidean(), 2, eigen_round_sphere(2, 1), r_max=25.0)
    tr = riccati_trace(p)
    bound, ok = lemma_bound_check(p, tr)
    assert ok
    expect = tr.grid * np.exp(np.log(tr.grid) ** 2 / 2.0)
    assert_allclose(bound, expect, rtol=1e-6)
    assert np.all(p.interp(tr.grid) <= bound * (1 + 1e-8))


def test_lemma_bound_zero_mode():
    p = solve_radial(Hyperbolic(1.0), 2, eigen_round_sphere(2, 0), r_max=21.0)
    trace_like = riccati_trace(
        solve_radial(Hyperbolic(1.0), 2, eigen_round_sphere(2, 1),
                     r_max=21.0))
    # reuse grid/B but lambda^2 = 0 kills the exponent: bound == B
    from weakmodel.radial import RiccatiTrace
    tr0 = RiccatiTrace(grid=trace_like.grid, x=trace_like.x * 0, A=0.0, B=1.0,
                       residual=trace_like.residual * 0, residual_ok=True,
                       inequality_ok=True)
    bound, ok = lemma_bound_check(p, tr0)
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
        _, ok = lemma_bound_check(p, tr)
        assert ok, f"m={m}"


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
    phi, dphi, _ = w.eval(r)
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

    sol = solve_ivp(rhs, (1.0, 20.0), [tr.A], method="DOP853", rtol=1e-11,
                    atol=1e-12, dense_output=True)
    s = np.linspace(1.0, 20.0, 2001)
    x = sol.sol(s)[0]
    integrand = lam2 * x / np.sinh(s) ** (n - 1)
    H = cumulative_simpson(integrand, x=s, initial=0.0)
    rebuilt = tr.B * np.exp(H)
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


def test_suggest_rmax_enables_normalization():
    w = PowerGrowth(2.0)
    mode = eigen_round_sphere(2, 1)
    cert = suggest_rmax(w, 2, mode.lambda_sq, 30.0)
    p = normalize_profile(solve_radial(w, 2, mode, r_max=cert.r_max), cert)
    assert p.normalized and p.limit_error < 1e-4


def test_suggest_rmax_solves_no_mode(monkeypatch):
    # the tail delta needs the metric and the certificates only
    ivps = count_calls(monkeypatch, radial, "solve_ivp")
    certs = count_calls(monkeypatch, radial._criterion, "tail_certificate")
    cert = suggest_rmax(PowerGrowth(2.0), 3, 2.0, 30.0)
    assert cert.r_max == 480.0
    assert [args[2] for args in certs] == [30.0 * 2 ** k for k in range(5)]
    assert ivps == []


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
    x1 = float(riccati_x(solve_radial(w, n, mode, r_max=2.0), 1.0)[0])
    assert 0.0 < x1 <= bound
    exact = quad(lambda r: float(w.eval(r)[0]) ** (n - 3), 0.0, 1.0,
                 epsabs=0.0, epsrel=1e-13)[0]
    assert exact <= bound <= exact * (1 + 1e-11)


def test_normalize_rejects_certificate_at_another_radius():
    w = Hyperbolic(1.0)
    p = solve_radial(w, 2, eigen_round_sphere(2, 1), r_max=20.0)
    with pytest.raises(TailNotTight):
        normalize_profile(p, tail_certificate(w, 2, 30.0))
    # a range below the certificate's start cannot be certified either
    short = solve_radial(Hyperbolic(2.0), 2, eigen_round_sphere(2, 1), r_max=4.0)
    with pytest.raises(TailNotTight):
        normalized(short)


def test_riccati_stencil_stays_inside_solved_range():
    p = solve_radial(Hyperbolic(2.0), 2, eigen_round_sphere(2, 2), r_max=13.0)
    tr = riccati_trace(p)
    assert tr.grid[-1] + 2 * 0.02 <= p.r_max
    assert tr.residual_ok and tr.inequality_ok
    with pytest.raises(DegenerateProfile):
        riccati_trace(p, s_grid=np.linspace(1.0, 13.0, 50))


def test_nonpositive_warp_detected():
    class Collapsing(WarpingFunction):
        growth_class = Euclidean().growth_class

        def eval(self, r):
            r = np.asarray(r, dtype=float)
            return 1.0 * r * (1.0 - r / 4.0), np.ones_like(r), np.zeros_like(r)

    with pytest.raises(NonPositiveWarp):
        solve_radial(Collapsing(), 2, eigen_round_sphere(2, 1), r_max=10.0)


def test_profile_csv_roundtrip(tmp_path, tanh_profile):
    path = tmp_path / "p.csv"
    tanh_profile.to_csv(path)
    back = load_profile_csv(path, tanh_profile.mode, 2, Hyperbolic(1.0),
                            metadata=tanh_profile.metadata())
    assert back.normalized
    assert_allclose(back.values, tanh_profile.values, rtol=1e-12)


def test_loaded_profile_is_its_samples_only(tmp_path, tanh_profile):
    # no solution between the samples: interpolating them would pierce the
    # growth bound, so evaluation refuses by name
    path = tmp_path / "p.csv"
    tanh_profile.to_csv(path)
    back = load_profile_csv(path, tanh_profile.mode, 2, Hyperbolic(1.0))
    with pytest.raises(DegenerateProfile, match="m = 1 profile read from samples"):
        back.interp(np.linspace(0.5, 20.0, 40))
    with pytest.raises(DegenerateProfile, match="m = 1 profile read from samples"):
        riccati_x(back, 1.0)


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


def test_warp_reaching_zero_inside_the_span_fails_by_name():
    # phi is r on the solve's grid, so the grid check passes, and 0 at
    # every other radius above 2, where the first stage there stops the solve
    grid = np.geomspace(1e-3, 10.0, 800)

    class ZeroOffGrid(WarpingFunction):
        growth_class = Euclidean().growth_class

        def eval(self, r):
            r = np.asarray(r, dtype=float)
            phi = np.where((r < 2.0) | np.isin(r, grid), r, 0.0)
            return phi, np.ones_like(r), np.zeros_like(r)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPositiveWarp, match=r"phi\(.*\) = 0 <= 0"):
            solve_modes(ZeroOffGrid(), 3, [eigen_round_sphere(3, m)
                                           for m in (1, 2)], r_max=10.0)


def _single_mode_reference(w, n, mode, r_max, tol):
    """The per-mode solve the stacked solver replaced: a scalar right-hand
    side returning a list, on the one (u, w) pair of one mode."""
    lam2 = mode.lambda_sq
    l = indicial_exponent(n, lam2)
    r0, h = 1e-3, 1e-2
    kappa2 = (-((float(w.eval(h)[0]) - h) / h ** 3)
              * (l * (n - 1) + lam2) / (2.0 * l + n))
    u0 = l * math.log(r0) + math.log1p(kappa2 * r0 ** 2)
    w0 = (l + (l + 2) * kappa2 * r0 ** 2) / (1.0 + kappa2 * r0 ** 2)

    def rhs(s, y):
        r = math.exp(s)
        phi, dphi, _ = w.eval(r)
        ww = y[1]
        rho = r / phi
        return [ww, ww + lam2 * rho * rho - (n - 1) * (rho * dphi) * ww - ww * ww]

    sol = solve_ivp(rhs, (math.log(r0), math.log(r_max)), [u0, w0],
                    method="DOP853", dense_output=True,
                    rtol=min(max(tol * 1e-3, 1e-13), 1e-8),
                    atol=[1e-12, 1e-290])
    grid = np.geomspace(r0, r_max, 800)
    u, wlog = sol.sol(np.log(grid))
    values = np.exp(u)
    return values, values * wlog / grid, sol.sol


@pytest.mark.parametrize("w,n,m,tol", [
    (Hyperbolic(1.0), 2, 1, 1e-8), (Hyperbolic(2.5), 3, 3, 1e-10),
    (PowerGrowth(2.0), 3, 2, 1e-8), (PowerLog(1.2), 2, 4, 1e-10),
    (Euclidean(), 3, 1, 1e-10),
])
def test_one_mode_stack_is_the_single_mode_solve(w, n, m, tol):
    mode = eigen_round_sphere(n, m)
    values, derivs, dense = _single_mode_reference(w, n, mode, 30.0, tol)
    p = solve_modes(w, n, [mode], r_max=30.0, tol=tol)[0]
    assert p.values.tobytes() == values.tobytes()
    assert p.derivs.tobytes() == derivs.tobytes()
    s = np.linspace(math.log(1e-3), math.log(30.0), 97)
    assert p._dense(s).tobytes() == dense(s).tobytes()
    q = solve_radial(w, n, mode, r_max=30.0, tol=tol)
    assert q.values.tobytes() == values.tobytes()


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
            assert_allclose(riccati_x(p, r), riccati_x(single, r), rtol=1e-8)


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
    for p in conformal_modes(PowerGrowth(2.0), modes, 30.0):
        m = p.mode.m
        assert p.normalized and p.limit_estimate == 1.0 and p.r_max == 30.0
        gap = np.max(np.abs(p.values - np.exp(-m * np.arcsinh(1.0 / p.grid))))
        assert gap <= 1e-11 and gap <= p.limit_error + 1e-15, (m, gap)
        r = np.geomspace(2e-3, 29.0, 50)
        assert_allclose(p.interp(r), np.exp(-m * np.arcsinh(1.0 / r)),
                        rtol=1e-12, atol=1e-15)
        if m:
            # the Riccati variable of exp(-lambda tau) is the constant 1/lambda
            assert_allclose(riccati_x(p, r), 1.0 / m, rtol=1e-13)
            assert_allclose(p.derivs, m * p.values / (p.grid * np.sqrt(1 + p.grid ** 2)),
                            rtol=1e-13)


def test_conformal_modes_start_where_the_tail_bracket_holds():
    # R is raised to the start of the sandwich, as for a tail certificate;
    # with the constant mode alone no tail is needed and R is kept
    w = Hyperbolic(2.0)
    one, = conformal_modes(w, [eigen_round_sphere(2, 1)], r_max=4.0)
    assert one.r_max == tail_certificate(w, 2, 4.0).r_max > 4.0
    zero, = conformal_modes(w, [eigen_round_sphere(2, 0)], r_max=4.0)
    assert zero.r_max == 4.0 and np.all(zero.values == 1.0)


@pytest.mark.parametrize("w", [Hyperbolic(1.0), PowerGrowth(2.0)],
                         ids=["hyperbolic", "powergrowth"])
def test_ode_solve_matches_closed_form_at_n2(w):
    # the two n = 2 paths cross-check: the raw ODE solve on the same grid is
    # exp(-lambda tau) times a constant
    modes = [eigen_round_sphere(2, m) for m in (1, 3)]
    for closed in conformal_modes(w, modes, 30.0):
        raw = solve_radial(w, 2, closed.mode, r_max=closed.r_max, tol=1e-10)
        assert raw.grid.tobytes() == closed.grid.tobytes()
        shape = raw.values / raw.values[-1]
        assert_allclose(shape, closed.values / closed.values[-1], rtol=1e-10)
        r = np.geomspace(0.1, 25.0, 40)
        assert_allclose(riccati_x(raw, r), riccati_x(closed, r), rtol=1e-10)
