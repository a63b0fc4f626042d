import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import write_tabulated_csv
from weakmodel.errors import InvalidFamily, OutOfDomain
from weakmodel.warp import (Euclidean, Hyperbolic, PowerGrowth, PowerLog,
                            Tabulated, UnknownGrowth, load_tabulated_csv,
                            radial_curvature, warp_eval)


def taylor_sinh_cosh(x, terms=30):
    """Series oracle, independent of numpy's sinh/cosh."""
    s, c = 0.0, 0.0
    term_s, term_c = x, 1.0
    for k in range(terms):
        s += term_s
        c += term_c
        term_s *= x * x / ((2 * k + 2) * (2 * k + 3))
        term_c *= x * x / ((2 * k + 1) * (2 * k + 2))
    return s, c


def test_hyperbolic_at_zero():
    assert warp_eval(Hyperbolic(1.0), 0.0) == (0.0, 1.0, 0.0)


def test_euclidean_values():
    phi, dphi, ddphi = warp_eval(Euclidean(), 2.0)
    assert (phi, dphi, ddphi) == (2.0, 1.0, 0.0)


def test_hyperbolic_taylor_oracle():
    # frozen from the series oracle: sinh(1), cosh(1)
    s1, c1 = taylor_sinh_cosh(1.0)
    assert_allclose((s1, c1), (1.1752011936438014, 1.5430806348152437), rtol=1e-15)
    phi, dphi, ddphi = warp_eval(Hyperbolic(1.0), 1.0)
    assert_allclose((phi, dphi, ddphi), (s1, c1, s1), atol=1e-6)


def test_curvature_euclidean_zero():
    for r in (0.1, 1.0, 7.0, 42.0):
        assert radial_curvature(Euclidean(), r) == 0.0


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("r", [0.5, 1.0, 5.0])
def test_curvature_hyperbolic_constant(a, r):
    # sinh''(ar) = a^2 sinh(ar), so k = -a^2 identically
    assert_allclose(radial_curvature(Hyperbolic(a), r), -a * a, rtol=1e-12)


def test_curvature_powerlog_asymptotic():
    # k(r) -> -c/(r^2 log r); cross-check against finite differences of phi
    w = PowerLog(1.0)
    r = 100.0
    k = radial_curvature(w, r)
    assert_allclose(k, -1.0 / (10000.0 * math.log(100.0)), rtol=0.2)
    h = 1e-3 * r
    phi = lambda x: w.eval(x)[0]
    ddphi_fd = (phi(r + h) - 2 * phi(r) + phi(r - h)) / h ** 2
    assert_allclose(k, -ddphi_fd / phi(r), rtol=1e-4)


@pytest.mark.parametrize("w", [
    Euclidean(), Hyperbolic(0.5), Hyperbolic(1.0), Hyperbolic(2.0),
    PowerGrowth(0.8), PowerGrowth(1.5), PowerGrowth(2.0),
    PowerLog(0.0), PowerLog(0.4), PowerLog(1.2),
], ids=repr)
def test_derivatives_match_finite_differences(w):
    # 5-point central stencils of phi reproduce phi' and phi'' everywhere,
    # including across the power-log splice seams
    r = np.concatenate([
        np.linspace(0.01, 0.99, 23),
        np.linspace(1.0, 12.0, 67),
        np.linspace(12.5, 50.0, 41),
    ])
    h = 1e-4 * np.maximum(1.0, r)
    phi = lambda x: w.eval(x)[0]
    d1 = (phi(r - 2 * h) - 8 * phi(r - h) + 8 * phi(r + h) - phi(r + 2 * h)) / (12 * h)
    d2 = (-phi(r - 2 * h) + 16 * phi(r - h) - 30 * phi(r)
          + 16 * phi(r + h) - phi(r + 2 * h)) / (12 * h ** 2)
    _, dphi, ddphi = w.eval(r)
    assert np.all(phi(r) > 0)
    assert_allclose(d1, dphi, rtol=1e-6, atol=1e-9)
    # absolute floor covers cancellation noise of the stencil where phi'' = 0
    ok = np.abs(d2 - ddphi) <= 1e-6 * np.abs(ddphi) + 1e-7 * np.maximum(1, np.abs(dphi))
    assert np.all(ok), f"worst at r={r[np.argmin(ok)]}"


def test_hyperbolic_small_rate_limit():
    w = Hyperbolic(1e-6)
    r = np.linspace(0.0, 10.0, 101)
    assert np.max(np.abs(w.eval(r)[0] - r)) < 1e-9


def test_power_growth_one_is_euclidean():
    w = PowerGrowth(1.0)
    e = Euclidean()
    for r in (0.0, 0.3, 1.0, 17.5):
        assert w.eval(r)[0] == e.eval(r)[0]
        assert w.eval(r)[1] == e.eval(r)[1]
        assert w.eval(r)[2] == e.eval(r)[2]


def test_powerlog_structure():
    w = PowerLog(0.7)
    # identity below e
    r_low = np.linspace(0.0, math.e, 50)
    assert_allclose(w.eval(r_low)[0], r_low, rtol=0, atol=0)
    # exact elementary tail beyond e^2
    r_hi = np.array([7.5, 20.0, 100.0, 1e4])
    C = w.match_constant
    assert_allclose(w.eval(r_hi)[0], C * r_hi * np.log(r_hi) ** 0.7, rtol=1e-14)
    # splice keeps phi and phi' positive and phi increasing
    r_mid = np.linspace(2.5, 8.0, 400)
    phi, dphi, _ = w.eval(r_mid)
    assert np.all(phi > 0) and np.all(dphi > 0)
    # continuity at the seams
    for seam in (math.e, math.e ** 2):
        left = w.eval(seam - 1e-10)
        right = w.eval(seam + 1e-10)
        assert_allclose(left[0], right[0], rtol=1e-9)
        assert_allclose(left[1], right[1], rtol=1e-7)


def test_weak_model_axioms(closed_families):
    for w in closed_families:
        phi0, dphi0, _ = w.eval(0.0)
        assert abs(phi0) < 1e-10 and abs(dphi0 - 1.0) < 1e-10
        r = np.geomspace(1e-6, 50.0, 80)
        assert np.all(w.eval(r)[0] > 0)


@pytest.mark.parametrize("bad", [
    lambda: Hyperbolic(0.0),
    lambda: Hyperbolic(-1.0),
    lambda: PowerGrowth(0.0),
    lambda: PowerGrowth(-2.0),
    lambda: PowerLog(-0.1),
])
def test_invalid_family_parameters(bad):
    with pytest.raises(InvalidFamily):
        bad()


def test_negative_radius_rejected():
    with pytest.raises(OutOfDomain):
        warp_eval(Euclidean(), -0.5)
    with pytest.raises(OutOfDomain):
        radial_curvature(Euclidean(), 0.0)


# ---------------------------------------------------------------------------
# Tabulated family
# ---------------------------------------------------------------------------

def test_tabulated_roundtrip(tmp_path):
    w = Hyperbolic(1.0)
    grid = np.geomspace(1e-4, 40.0, 4000)
    path = write_tabulated_csv(tmp_path / "hyp.csv", w, grid)
    t = load_tabulated_csv(path)
    assert isinstance(t.growth_class, UnknownGrowth)
    r = np.linspace(0.05, 39.0, 57)
    # monotone cubic interpolation: accuracy set by the sample density
    assert_allclose(t.eval(r)[0], w.eval(r)[0], rtol=2e-5)
    assert_allclose(t.eval(r)[1], w.eval(r)[1], rtol=2e-5)
    with pytest.raises(OutOfDomain):
        t.eval(41.0)
    with pytest.raises(OutOfDomain):
        t.eval(1e-6)


def test_tabulated_validation(tmp_path):
    # non-increasing grid
    with pytest.raises(InvalidFamily):
        Tabulated([0.1, 0.2, 0.2, 0.4], [1, 2, 3, 4], [1, 1, 1, 1], [0, 0, 0, 0])
    # nonpositive phi
    with pytest.raises(InvalidFamily):
        Tabulated([0.1, 0.2, 0.3, 0.4], [1, -2, 3, 4], [1, 1, 1, 1], [0, 0, 0, 0])
    # first node too large for the CSV contract
    path = write_tabulated_csv(tmp_path / "late.csv", Euclidean(),
                               np.linspace(0.5, 10, 30))
    with pytest.raises(InvalidFamily):
        load_tabulated_csv(path)
    # malformed header
    bad = tmp_path / "bad.csv"
    bad.write_text("r,phi\n0.001,0.001\n")
    with pytest.raises(InvalidFamily):
        load_tabulated_csv(bad)

