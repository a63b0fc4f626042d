"""The package's DOP853 against scipy's, which serves only as a reference.

Same tableau, same arithmetic: the step times, the right-hand-side count
and the dense output must be the same bits, on the stacked mode systems
that `radial.solve_modes` integrates and on a solution that blows up.
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


@pytest.mark.parametrize("w,n,M,r_max", [
    (Hyperbolic(1.3), 3, 8, 30.0), (Hyperbolic(1.3), 4, 1, 30.0),
    (Hyperbolic(0.7), 5, 4, 40.0),
    (PowerGrowth(2.0), 3, 4, 60.0), (PowerGrowth(1.5), 4, 8, 200.0),
    (PowerGrowth(2.0), 5, 1, 60.0),
    (PowerLog(3.0), 3, 1, 60.0), (PowerLog(1.2), 4, 4, 100.0),
    (PowerLog(3.0), 5, 8, 60.0),
])
def test_mode_stack_solve_is_scipys_bit_for_bit(monkeypatch, w, n, M, r_max):
    calls = []

    def recorded(*args, **kwargs):
        sol = dop853.solve_ivp(*args, **kwargs)
        calls.append((args, kwargs, sol))
        return sol

    monkeypatch.setattr(radial, "solve_ivp", recorded)
    radial.solve_modes(w, n, [eigen_round_sphere(n, m) for m in range(1, M + 1)],
                       r_max=r_max)
    [(args, kwargs, sol)] = calls
    ref = _reference(*args, **kwargs)
    assert sol.success and sol.message == ref.message
    assert sol.t.tobytes() == ref.t.tobytes()
    assert sol.nfev == ref.nfev
    s = _probes(sol.t)
    assert sol.sol(s).tobytes() == ref.sol(s).tobytes()
    # a scalar point gives the state vector, as scipy's does
    assert sol.sol(s[len(s) // 3]).tobytes() == ref.sol(s[len(s) // 3]).tobytes()


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


def test_solve_modes_reports_a_failed_solve(monkeypatch):
    # the mode system stands in for the blow-up, at the caller's tolerances
    monkeypatch.setattr(radial, "solve_ivp", lambda fun, t_span, y0, rtol, atol:
                        dop853.solve_ivp(_blow_up, (0.0, 2.0), [0.0], rtol, 1e-12))
    with pytest.raises(StepSizeUnderflow, match=re.escape(dop853.TOO_SMALL_STEP)):
        radial.solve_modes(Hyperbolic(1.0), 3, [eigen_round_sphere(3, 1)])
