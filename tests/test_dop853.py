"""The radial mode stack's panel collocation, `radial.solve_ivp`, against
scipy's DOP853, the solver it replaced.

scipy's DOP853 at rtol 1e-13 serves only as an accuracy reference, on the
stacked mode systems that `radial.solve_modes` integrates, and as the
solver whose blow-up the panels must reproduce.  The rest are the
solver's own mechanics: its panel count where the modes are stiff, one
warp read per panel attempt, the dense output's exact derivative, and a
blow-up that ends the solve by name without a warning.
"""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import dop853_reference
from weakmodel import radial
from weakmodel.criterion import march_criterion
from weakmodel.errors import StepSizeUnderflow
from weakmodel.quadrature import _XK
from weakmodel.spectrum import EigenMode, eigen_round_sphere
from weakmodel.warp import (Euclidean, Hyperbolic, PowerGrowth, PowerLog,
                            Tabulated)

_MODE_STACKS = pytest.mark.parametrize("w,n,M,r_max", [
    (Hyperbolic(1.3), 3, 8, 30.0), (Hyperbolic(1.3), 4, 1, 30.0),
    (Hyperbolic(0.7), 5, 4, 40.0),
    (PowerGrowth(2.0), 3, 4, 60.0), (PowerGrowth(1.5), 4, 8, 200.0),
    (PowerGrowth(2.0), 5, 1, 60.0),
    (PowerLog(3.0), 3, 1, 60.0), (PowerLog(1.2), 4, 4, 100.0),
    (PowerLog(3.0), 5, 8, 60.0),
])


def _modes(n, M):
    """Modes 1..M by their eigenvalues m (m + n - 2), at any n."""
    return [EigenMode(m, m * (m + n - 2), 1) for m in range(1, M + 1)]


def _recorded_solve(monkeypatch, w, n, M, r_max, **kwargs):
    """solve_modes of modes 1..M; the arguments and result of its one solve."""
    calls = []
    solve_ivp = radial.solve_ivp

    def recorded(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        calls.append((args, kwargs, sol))
        return sol

    monkeypatch.setattr(radial, "solve_ivp", recorded)
    radial.solve_modes(march_criterion(w, n, r_max=r_max), _modes(n, M), r_max, **kwargs)
    [call] = calls
    return call


def _probes(t):
    """The panel edges, the midpoint of each panel, and the span's two ends."""
    return np.concatenate([t, 0.5 * (t[1:] + t[:-1]), [t[0], t[-1]]])


@_MODE_STACKS
def test_mode_stack_is_within_1e_12_of_scipys_dop853(monkeypatch, w, n, M, r_max):
    # the log of every mode's raw profile, on the solve's grid and at the
    # probes; the reference restarts at PowerLog's splice, as the panels do
    (_, _, lam2, s_span, y0), kwargs, sol = _recorded_solve(monkeypatch, w, n, M,
                                                           r_max)
    assert sol.t[0] == s_span[0] and sol.t[-1] == s_span[1]
    ref = dop853_reference(w, n, lam2, s_span, y0, cuts=np.log(w.breakpoints))
    s = np.concatenate([np.log(np.geomspace(1e-3, r_max, 800)), _probes(sol.t)])
    assert np.max(np.abs(sol.sol(s)[0::2] - ref(s)[0::2])) <= 1e-12
    # a scalar point gives the state vector, with the bits of its batch
    k = len(s) // 3
    assert sol.sol(s[k]).tobytes() == sol.sol(s)[:, k].tobytes()


def test_fast_growth_takes_few_steps(monkeypatch):
    # the bounded branch of z attracts at rate 1 + 2l near the origin and
    # 1 + (n - 3) r phi'/phi far out: DOP853 took 135, 1,789 and 2,756
    # steps here, bound by that rate, where each panel is solved whole
    for n, M in [(3, 4), (4, 8), (5, 8)]:
        _, _, sol = _recorded_solve(monkeypatch, Hyperbolic(3.0), n, M, 200.0,
                                    tol=1e-8)
        assert len(sol.t) - 1 < 40


@pytest.mark.parametrize("family,hull,r_max", [(Hyperbolic(1.0), 40.0, 30.0),
                                               (PowerGrowth(2.0), 400.0, 300.0)])
def test_table_modes_match_the_tables_own_ode(monkeypatch, family, hull, r_max):
    # the table's log phi is a cubic Hermite in log r, whose second
    # derivative jumps at every node; the reference restarts at each
    # (DOP853 stepping across them was 1.5e-10 off), and the panels' error
    # control finds them
    grid = np.geomspace(1e-4, hull, 400)
    w = Tabulated(grid, *family.eval(grid))
    (_, _, lam2, s_span, y0), _, sol = _recorded_solve(monkeypatch, w, 3, 4, r_max)
    s = np.log(np.geomspace(1e-3, r_max, 800))
    ref = dop853_reference(w, 3, lam2, s_span, y0, cuts=np.log(grid))(s)
    assert np.max(np.abs(np.expm1(sol.sol(s)[0::2] - ref[0::2]))) <= 1e-13


def _blow_up(lam2):
    """The mode system of Euclidean(), n = 3, with lambda^2 negated: then
    dz/ds = 1 - z + lambda^2 z^2, which for lambda^2 > 1/4 blows up in
    finite s, late when lambda^2 is just above 1/4.  Returns the
    arguments of its solve and the s where scipy's DOP853 fails on it."""
    from scipy.integrate import solve_ivp
    args = (Euclidean(), 3, [-lam2], (0.0, 60.0), [0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # scipy's error estimate warns
        ref = solve_ivp(lambda s, y: [-lam2 * y[1], 1.0 - y[1] + lam2 * y[1] ** 2],
                        args[3], args[4], method="DOP853", rtol=1e-12, atol=1e-14)
    assert not ref.success
    return args, ref.t[-1]


def test_blow_up_fails_like_scipy_without_warnings():
    # at lambda^2 = 2 the first panel's Newton solve does not converge, at
    # 0.26 z creeps past its bottleneck near 2 on long panels first; then
    # the panels shrink, with no warning, until one falls below rounding
    # where scipy's solve fails too, and the solve raises
    for lam2 in (2.0, 0.26):
        args, s_fail = _blow_up(lam2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeUnderflow, match="fell below rounding") as err:
                radial.solve_ivp(*args, rtol=1e-12)
        s = re.fullmatch(r"radial integration failed: the panel at s = (\S+) fell "
                         r"below rounding", str(err.value)).group(1)
        assert abs(float(s) - s_fail) < 1e-6


@pytest.mark.parametrize("z", [1e200, math.inf, math.nan])
def test_overflowing_newton_step_rejects_the_panel_without_warnings(z):
    # F = 1 - z (damp + a z) overflows at the first iteration: the panel
    # is rejected, with the ratio that cuts it most, and no warning
    a = -np.ones((2, len(_XK)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratio, y_new, c, iterations = radial._collocate(
            np.array([0.0, 1.0, 0.0, z]), np.ones(len(_XK)), a, 0.5, 1e-12)
    assert ratio == math.inf and y_new is None and c is None
    assert 1 <= iterations <= radial._NEWTON_ITERATIONS


@pytest.mark.parametrize("s_span", [(1.0, 1.0), (2.0, 1.0)])
def test_a_span_that_does_not_run_forward_is_refused(s_span):
    with pytest.raises(ValueError, match=re.escape(
            f"the span must run forward, got {s_span}")):
        radial.solve_ivp(Euclidean(), 3, [2.0], s_span, [0.0, 0.5], rtol=1e-12)


def test_solve_modes_reports_a_failed_solve(monkeypatch):
    # the negated eigenvalue stands in for a solve that cannot finish
    solve_ivp = radial.solve_ivp
    monkeypatch.setattr(radial, "solve_ivp", lambda w, n, lam2, *args, **kwargs:
                        solve_ivp(w, n, np.negative(lam2), *args, **kwargs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSizeUnderflow,
                           match=r"^radial integration failed: the panel at s = "):
            radial.solve_modes(march_criterion(Euclidean(), 3, r_max=30.0),
                               [eigen_round_sphere(3, 1)])


class _CountedWarp:
    """A warp whose evaluations are recorded."""

    def __init__(self, w):
        self.w, self.calls = w, []
        self.breakpoints = w.breakpoints

    def eval(self, r):
        self.calls.append(np.array(r, dtype=float))
        return self.w.eval(r)


@_MODE_STACKS
def test_mode_stack_evaluates_the_warp_once_per_step_attempt(monkeypatch, w, n, M,
                                                             r_max):
    counted = _CountedWarp(w)
    during = []

    def recorded(*args, **kwargs):
        before = len(counted.calls)
        sol = solve_ivp(*args, **kwargs)
        during.append((counted.calls[before:], sol))
        return sol

    solve_ivp = radial.solve_ivp
    monkeypatch.setattr(radial, "solve_ivp", recorded)
    report = replace(march_criterion(w, n, r_max=r_max), warp=counted)
    radial.solve_modes(report, _modes(n, M), r_max)
    [(calls, sol)] = during
    # each call reads the 15 nodes of one attempt, and no attempt repeats
    assert all(r.shape == (len(_XK),) for r in calls)
    assert len({r.tobytes() for r in calls}) == len(calls) >= len(sol.t) - 1
    # every accepted panel's nodes, as the solver forms them, were read
    read = {r.tobytes() for r in calls}
    for a, b in zip(sol.t[:-1], sol.t[1:]):
        assert np.exp(0.5 * (a + b) + 0.5 * (b - a) * _XK).tobytes() in read
    # nfev counts the stack's right-hand side at one node
    assert sol.nfev % len(_XK) == 0 and sol.nfev >= 2 * len(_XK) * (len(sol.t) - 1)


def test_dense_derivative_is_the_interpolants_own(monkeypatch):
    # at every panel's nodes the slope is the right-hand side at the dense
    # state there; between them it is the slope of the dense output
    w, n, M = Hyperbolic(1.0), 3, 4
    (_, _, lam2, _, _), _, sol = _recorded_solve(monkeypatch, w, n, M, 30.0)
    t = sol.t
    nodes = (0.5 * (t[1:] + t[:-1])[:, None] + 0.5 * np.diff(t)[:, None] * _XK).ravel()
    slope = sol.sol(nodes, derivative=True)
    r = np.exp(nodes)
    phi, dphi = w.eval(r)
    rho = r / phi
    z = sol.sol(nodes)[1::2]
    ww = np.asarray(lam2)[:, None] * rho * rho * z
    f = np.empty_like(slope)
    f[0::2], f[1::2] = ww, 1.0 - z * (1 + (n - 3) * (rho * dphi) + ww)
    scale = np.max(np.abs(f), axis=1, keepdims=True)
    assert np.all(np.abs(slope - f) <= 1e-14 * scale)

    mid = 0.5 * (t[1:] + t[:-1])
    e = 1e-5 * np.diff(t)
    centred = (sol.sol(mid + e) - sol.sol(mid - e)) / (2 * e)
    slope = sol.sol(mid, derivative=True)
    assert np.all(np.abs(slope - centred) <= 1e-7 * np.max(np.abs(slope), axis=1,
                                                          keepdims=True))
    # a scalar point gives one slope per component
    assert sol.sol(mid[3], derivative=True).tobytes() == slope[:, 3].tobytes()


def test_dense_output_is_continuous_at_the_panel_edges(monkeypatch):
    # a panel's polynomial ends on the next panel's start, bit for bit, so
    # a row that is flat within rounding stays nondecreasing across edges
    _, _, sol = _recorded_solve(monkeypatch, Hyperbolic(0.5), 3, 8, 48.0)
    t = sol.t[1:-1]
    before = sol.sol(t)
    after = sol.sol(np.nextafter(t, math.inf))
    starts = sol.sol._start[1:].T
    assert before.tobytes() == starts.tobytes()
    assert np.all(after[0::2] >= before[0::2])
