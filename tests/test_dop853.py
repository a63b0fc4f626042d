"""The package's DOP853 against scipy's, which serves only as a reference.

Same tableau, same arithmetic: the step times, the right-hand-side count
and the dense output must be the same bits, on the stacked mode systems
that `radial.solve_modes` integrates and on a solution that blows up.  The
mode systems evaluate the warp once per step attempt; scipy's reference
integrates the same system evaluating it at every call, one point at a
time.
"""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from weakmodel import dop853, radial
from weakmodel.errors import StepSizeUnderflow
from weakmodel.spectrum import eigen_round_sphere
from weakmodel.warp import Hyperbolic, PowerGrowth, PowerLog


def _reference(fun, t_span, y0, rtol, atol):
    return scipy_solve_ivp(fun, t_span, y0, method="DOP853", dense_output=True,
                           rtol=rtol, atol=atol)


def _probes(t):
    """The step times, the midpoint of each step, and the span's two ends."""
    return np.concatenate([t, 0.5 * (t[1:] + t[:-1]), [t[0], t[-1]]])


def _per_call_rhs(w, n, lam2):
    """The stacked mode system, evaluating the warp at each call's radius."""
    def rhs(s, y):
        r = math.exp(s)
        phi, dphi = w.eval(r)
        zz = y[1::2]
        rho = r / phi
        ww = lam2 * rho * rho * zz
        dy = np.empty_like(y)
        dy[0::2] = ww
        dy[1::2] = 1.0 - zz * (1 + (n - 3) * (rho * dphi) + ww)
        return dy
    return rhs


_MODE_STACKS = pytest.mark.parametrize("w,n,M,r_max", [
    (Hyperbolic(1.3), 3, 8, 30.0), (Hyperbolic(1.3), 4, 1, 30.0),
    (Hyperbolic(0.7), 5, 4, 40.0),
    (PowerGrowth(2.0), 3, 4, 60.0), (PowerGrowth(1.5), 4, 8, 200.0),
    (PowerGrowth(2.0), 5, 1, 60.0),
    (PowerLog(3.0), 3, 1, 60.0), (PowerLog(1.2), 4, 4, 100.0),
    (PowerLog(3.0), 5, 8, 60.0),
])


def _recorded_solve(monkeypatch, w, n, M, r_max, **kwargs):
    """solve_modes of modes 1..M; the arguments and result of its one solve."""
    calls = []

    def recorded(*args, **kwargs):
        sol = dop853.solve_ivp(*args, **kwargs)
        calls.append((args, kwargs, sol))
        return sol

    monkeypatch.setattr(radial, "solve_ivp", recorded)
    radial.solve_modes(w, n, [eigen_round_sphere(n, m) for m in range(1, M + 1)],
                       r_max=r_max, **kwargs)
    [call] = calls
    return call


@_MODE_STACKS
def test_mode_stack_solve_is_scipys_bit_for_bit(monkeypatch, w, n, M, r_max):
    (_, t_span, y0), kwargs, sol = _recorded_solve(monkeypatch, w, n, M, r_max)
    assert kwargs["before_attempt"] is not None
    lam2 = np.array([eigen_round_sphere(n, m).lambda_sq for m in range(1, M + 1)])
    ref = _reference(_per_call_rhs(w, n, lam2), t_span, y0,
                     kwargs["rtol"], kwargs["atol"])
    assert sol.success and sol.message == ref.message
    assert sol.t.tobytes() == ref.t.tobytes()
    assert sol.nfev == ref.nfev
    s = _probes(sol.t)
    assert sol.sol(s).tobytes() == ref.sol(s).tobytes()
    # a scalar point gives the state vector, as scipy's does
    assert sol.sol(s[len(s) // 3]).tobytes() == ref.sol(s[len(s) // 3]).tobytes()


def test_fast_growth_takes_few_steps(monkeypatch):
    # in (u, z) the coefficients r/phi and r phi'/phi stay bounded, so the
    # solver does not follow w = r phi_m'/phi_m as it decays like (r/phi)^2:
    # stepping w itself took 2,787 steps here
    _, _, sol = _recorded_solve(monkeypatch, Hyperbolic(3.0), 3, 4, 200.0, tol=1e-8)
    assert sol.success and len(sol.t) - 1 < 300


@pytest.mark.parametrize("w,n", [(Hyperbolic(1.3), 3), (PowerGrowth(2.0), 4),
                                 (PowerLog(3.0), 5), (PowerLog(1.2), 3)])
def test_mode_rhs_reads_the_stage_terms_with_the_initial_steps_bits(w, n):
    # the initial step's calls form the warp's terms at s alone, the others
    # read them from the attempt's one warp pass: both give the bits of the
    # array expression of the per-call reference
    lam2 = np.array([eigen_round_sphere(n, m).lambda_sq for m in (1, 2, 5)])
    evaluate_stages, rhs = radial._mode_rhs(w, n, lam2)
    reference = _per_call_rhs(w, n, lam2)
    ts = np.linspace(math.log(1e-3), math.log(60.0), 15).tolist()
    y = np.random.default_rng(7).uniform(0.1, 4.0, 2 * len(lam2))
    initial = [rhs(s, y) for s in ts]
    evaluate_stages(ts)
    for s, first in zip(ts, initial):
        assert rhs(s, y).tobytes() == first.tobytes() == reference(s, y).tobytes()


def _blow_up(t, y):
    return 1.0 + y * y   # y = tan(t): infinite at t = pi/2


def test_blow_up_fails_like_scipy_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = dop853.solve_ivp(_blow_up, (0.0, 2.0), [0.0], 1e-10, 1e-12)
        ref = _reference(_blow_up, (0.0, 2.0), [0.0], 1e-10, 1e-12)
    assert not ref.success
    assert not sol.success and sol.sol is None
    assert sol.message == ref.message == dop853.TOO_SMALL_STEP
    assert sol.t.tobytes() == ref.t.tobytes()
    assert sol.nfev == ref.nfev
    assert abs(sol.t[-1] - math.pi / 2) < 1e-7


def _late_blow_up(t, y):
    # flat until t = 0.5, so the steps grow tenfold each; then y' = y^2 from
    # y = 100, which blows up at t = 0.51, in Python floats that overflow to
    # inf without a warning
    v = float(y[0])
    return np.array([v * v if t >= 0.5 else 0.0])


def test_overflowing_trial_is_rejected_like_scipy_without_warnings():
    values = []

    def fun(t, y):
        dy = _late_blow_up(t, y)
        values.append(dy[0])
        return dy

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = dop853.solve_ivp(fun, (0.0, 1.0), [100.0], 1e-10, 1e-12)
    with warnings.catch_warnings():
        # scipy's error estimate warns on the same trial
        warnings.simplefilter("ignore")
        ref = _reference(_late_blow_up, (0.0, 1.0), [100.0], 1e-10, 1e-12)
    # the long trial that crosses t = 0.5 overflows, and is cut like scipy's
    assert any(math.isinf(v) for v in values)
    assert not sol.success and sol.message == ref.message == dop853.TOO_SMALL_STEP
    assert sol.t.tobytes() == ref.t.tobytes()
    assert sol.nfev == ref.nfev
    assert abs(sol.t[-1] - 0.51) < 1e-7


def test_solve_modes_reports_a_failed_solve(monkeypatch):
    # the mode system stands in for the blow-up, at the caller's tolerances
    monkeypatch.setattr(radial, "solve_ivp", lambda fun, t_span, y0, rtol, atol, **kw:
                        dop853.solve_ivp(_blow_up, (0.0, 2.0), [0.0], rtol, 1e-12))
    with pytest.raises(StepSizeUnderflow, match=re.escape(dop853.TOO_SMALL_STEP)):
        radial.solve_modes(Hyperbolic(1.0), 3, [eigen_round_sphere(3, 1)])


class _CountedWarp:
    """A warp whose evaluations are counted."""

    def __init__(self, w):
        self.w, self.calls = w, 0

    def eval(self, r):
        self.calls += 1
        return self.w.eval(r)


@_MODE_STACKS
def test_mode_stack_evaluates_the_warp_once_per_step_attempt(monkeypatch, w, n, M,
                                                             r_max):
    counted = _CountedWarp(w)
    during = []

    def recorded(*args, **kwargs):
        before = counted.calls
        sol = dop853.solve_ivp(*args, **kwargs)
        during.append((counted.calls - before, sol))
        return sol

    monkeypatch.setattr(radial, "solve_ivp", recorded)
    radial.solve_modes(counted, n, [eigen_round_sphere(n, m) for m in range(1, M + 1)],
                       r_max=r_max)
    [(calls, sol)] = during
    # nfev = 2 initial-step calls + 12 per attempt + 3 per accepted step
    steps = len(sol.t) - 1
    attempts, rest = divmod(sol.nfev - 2 - 3 * steps, 12)
    assert rest == 0 and attempts >= steps
    assert calls == attempts + 2


def test_before_attempt_sees_every_time_fun_is_called():
    seen, called = [], []

    def fun(t, y):
        called.append(t)
        return -y

    sol = dop853.solve_ivp(fun, (0.0, 3.0), [1.0, 2.0], 1e-10, 1e-12,
                           before_attempt=lambda ts: seen.append(list(ts)))
    assert sol.success
    assert all(len(ts) == 15 for ts in seen)
    assert len(called) == sol.nfev
    # every call after the two of the initial step is at a time handed over
    stage_times = {t for ts in seen for t in ts}
    assert all(t in stage_times for t in called[2:])
    ref = _reference(fun, (0.0, 3.0), [1.0, 2.0], 1e-10, 1e-12)
    assert sol.t.tobytes() == ref.t.tobytes() and sol.nfev == ref.nfev


def test_dense_derivative_is_the_interpolants_own(monkeypatch):
    # at every step time the interpolant's slope is the right-hand side at
    # the state there; between them it is the slope of the dense output
    w, n, M = Hyperbolic(1.0), 3, 4
    _, _, sol = _recorded_solve(monkeypatch, w, n, M, 30.0)
    lam2 = np.array([eigen_round_sphere(n, m).lambda_sq for m in range(1, M + 1)])
    rhs = _per_call_rhs(w, n, lam2)
    t = sol.t
    slope = sol.sol(t, derivative=True)
    f = np.array([rhs(ti, yi) for ti, yi in zip(t, sol.sol(t).T)]).T
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
