import numpy as np
import pytest

from weakmodel.spectrum import eigen_round_sphere
from weakmodel.warp import Euclidean, Hyperbolic, PowerGrowth, PowerLog


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


@pytest.fixture(scope="session")
def tanh_profile(hyperbolic_criterion):
    """Normalized m=1 profile for Hyperbolic(1), n=2; exact value tanh(r/2)."""
    from weakmodel.radial import normalize_profile, solve_radial
    return normalize_profile(
        solve_radial(Hyperbolic(1.0), 2, eigen_round_sphere(2, 1), r_max=25.0),
        hyperbolic_criterion)


def write_tabulated_csv(path, w, r_grid):
    phi, dphi, ddphi = w.eval(np.asarray(r_grid, dtype=float))
    with open(path, "w") as fh:
        fh.write("r,phi,dphi,ddphi\n")
        for row in zip(r_grid, phi, dphi, ddphi):
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
