import math

import numpy as np
import pytest

from weakmodel.criterion import _finite
from weakmodel.errors import InvalidTolerance
from weakmodel.quadrature import LogCumulative, adaptive_quad_log
from weakmodel.spectrum import eigen_round_sphere
from weakmodel.warp import (Euclidean, Hyperbolic, PowerGrowth, PowerLog,
                            WarpingFunction)


@pytest.fixture(scope="session")
def closed_families():
    return [
        Euclidean(),
        Hyperbolic(0.5), Hyperbolic(1.0), Hyperbolic(2.0),
        PowerGrowth(0.8), PowerGrowth(1.0), PowerGrowth(1.5), PowerGrowth(2.0),
        PowerLog(0.3), PowerLog(0.6), PowerLog(1.2),
    ]


@pytest.fixture(scope="session")
def hyperbolic():
    """Hyperbolic(1), the warp object of `hyperbolic_criterion`: a report
    serves only extensions of the warp object it integrates."""
    return Hyperbolic(1.0)


@pytest.fixture(scope="session")
def hyperbolic_criterion(hyperbolic):
    from weakmodel.criterion import march_criterion
    return march_criterion(hyperbolic, 2, tol=1e-8)


def normalized(profile):
    """`normalize_profile` with the tail certificate at the profile's r_max."""
    from weakmodel.criterion import tail_certificate
    from weakmodel.radial import normalize_profile
    return normalize_profile(
        profile, tail_certificate(profile.warp, profile.n, profile.r_max))


@pytest.fixture(scope="session")
def tanh_profile():
    """Normalized m=1 profile for Hyperbolic(1), n=2; exact value tanh(r/2)."""
    from weakmodel.radial import solve_radial
    return normalized(
        solve_radial(Hyperbolic(1.0), 2, eigen_round_sphere(2, 1), r_max=25.0))


def fubini_check(w: WarpingFunction, n: int, R: float):
    """Both iterated orders of the finite-box integral over 1<=sigma<=tau<=R.

    Returns (lhs, rhs); the two must agree to roundoff-dominated accuracy.
    """
    if R <= 1.0:
        raise InvalidTolerance(f"fubini box needs R > 1, got {R}")
    lhs = _finite(w, n, R, True)[0]   # the pass of panel triples

    def log_inner(t):
        return (1 - n) * w.log_phi(t)
    cum = LogCumulative(adaptive_quad_log(log_inner, np.linspace(1.0, R, 9), rtol=1e-12)[2])

    def log_rhs(ss):
        return (n - 3) * w.log_phi(ss) + cum.log_between(ss)

    rv, _, _ = adaptive_quad_log(log_rhs, [1.0, R], rtol=1e-12)
    return lhs, math.exp(rv)


def write_tabulated_csv(path, w, r_grid):
    phi, dphi = w.eval(np.asarray(r_grid, dtype=float))
    with open(path, "w") as fh:
        fh.write("r,phi,dphi\n")
        for row in zip(r_grid, phi, dphi):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return path


def count_calls(monkeypatch, module, name):
    """Wrap module.name so each call's positional arguments are recorded."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def sphere_laplacian_s2(F: np.ndarray, colat: np.ndarray,
                        lon: np.ndarray) -> np.ndarray:
    """Lat-lon FD Laplacian on S^2 for samples F[i, j] = f(colat_i, lon_j).

    Returns values on interior colatitude rows (poles excluded); longitude
    wraps.  Second order in both steps.
    """
    hc = colat[1] - colat[0]
    hl = lon[1] - lon[0]
    Fcc = (F[2:, :] - 2 * F[1:-1, :] + F[:-2, :]) / hc ** 2
    Fc = (F[2:, :] - F[:-2, :]) / (2 * hc)
    Fll = (np.roll(F, -1, axis=1) - 2 * F + np.roll(F, 1, axis=1))[1:-1, :] / hl ** 2
    ct = 1.0 / np.tan(colat[1:-1])[:, None]
    s2 = np.sin(colat[1:-1])[:, None] ** 2
    return Fcc + ct * Fc + Fll / s2


def dop853_reference(w: WarpingFunction, n: int, lam2, s_span, y0, cuts=(),
                     rtol=1e-13):
    """scipy's DOP853 on the stacked (u, z) system of the modes lam2, at
    rtol and the atol (1e-14, 1e-290) of each pair, reading the warp at each
    call's radius alone and restarting at every cut inside s_span.

    Returns the rows at an array of s, each point read from the piece that
    holds it, like the solver's dense output.
    """
    from scipy.integrate import solve_ivp
    lam2 = np.asarray(lam2, dtype=float)

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

    edges = [s_span[0], *[c for c in cuts if s_span[0] < c < s_span[1]], s_span[1]]
    pieces, y = [], np.asarray(y0, dtype=float)
    for a, b in zip(edges[:-1], edges[1:]):
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", dense_output=True,
                        rtol=rtol, atol=[1e-14, 1e-290] * len(lam2))
        assert sol.success, sol.message
        pieces.append(sol.sol)
        y = sol.y[:, -1]

    def dense(s):
        s = np.asarray(s, dtype=float)
        piece = np.clip(np.searchsorted(edges, s, side="left") - 1, 0, len(pieces) - 1)
        out = np.empty((len(y), len(s)))
        for i in np.unique(piece):
            out[:, piece == i] = pieces[i](s[piece == i])
        return out
    return dense
