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
def hyperbolic_criterion():
    from weakmodel.criterion import march_criterion
    return march_criterion(Hyperbolic(1.0), 2, tol=1e-8)


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
    lhs, _, _ = _finite(w, n, R, True, 1e-12)   # the pass of panel triples
    cum = LogCumulative(lambda t: (1 - n) * w.log_phi(t), 1.0, R, rtol=1e-12)

    def log_rhs(ss):
        return (n - 3) * w.log_phi(ss) + cum.log_between(ss, R)

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
