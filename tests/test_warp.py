import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import write_tabulated_csv
from weakmodel.errors import InvalidFamily, OutOfDomain
from weakmodel.warp import (Euclidean, Hyperbolic, PchipInterpolator,
                            PowerGrowth, PowerLog, Tabulated, UnknownGrowth,
                            load_tabulated_csv)


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


def radial_curvature(w, r):
    """k(r) = -phi''(r)/phi(r)."""
    phi, _, ddphi = w.eval(r)
    return -ddphi / phi


def test_hyperbolic_at_zero():
    assert Hyperbolic(1.0).eval(0.0) == (0.0, 1.0, 0.0)


def test_euclidean_values():
    phi, dphi, ddphi = Euclidean().eval(2.0)
    assert (phi, dphi, ddphi) == (2.0, 1.0, 0.0)


def test_hyperbolic_taylor_oracle():
    # frozen from the series oracle: sinh(1), cosh(1)
    s1, c1 = taylor_sinh_cosh(1.0)
    assert_allclose((s1, c1), (1.1752011936438014, 1.5430806348152437), rtol=1e-15)
    phi, dphi, ddphi = Hyperbolic(1.0).eval(1.0)
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


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _probe_points(x, rng):
    """Random points over the hull and a little beyond, every node, the hull
    ends and the floats just outside them."""
    span = x[-1] - x[0]
    return np.concatenate([
        rng.uniform(x[0] - 0.05 * span, x[-1] + 0.05 * span, 300), x,
        [np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf)]])


def _pchip_cases():
    rng = np.random.default_rng(12)
    cases = []
    for k in range(40):          # random grids over six decades of spacing
        x = np.cumsum(rng.exponential(size=rng.integers(3, 50)))
        x = x * 10.0 ** rng.uniform(-3, 3)
        cases.append((x, rng.normal(size=x.size) * 10.0 ** rng.uniform(-5, 5)))
    for k in range(20):          # flat segments and sign changes
        x = np.sort(rng.uniform(0, 10, rng.integers(4, 30)))
        cases.append((x, np.round(2 * rng.normal(size=x.size)) * (k % 2 - 0.5)))
    # end slopes: the three-point estimate against m0's sign (set to 0), and
    # m0, m1 of opposite signs with the estimate above 3 |m0| (set to 3 m0);
    # each at the left end, then mirrored to the right end
    for x, y in ((np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 7.0, 7.5])),
                 (np.array([0.0, 1.0, 11.0, 12.0]), np.array([0.0, 1.0, -299.0, -290.0]))):
        cases += [(x, y), (-x[::-1], y[::-1])]
    return cases


@pytest.mark.parametrize("x,y", _pchip_cases())
def test_pchip_matches_scipy_bit_for_bit(x, y):
    from scipy.interpolate import PchipInterpolator as ScipyPchip
    ref = ScipyPchip(x, y)
    r = _probe_points(x, np.random.default_rng(x.size))
    assert _same_bits(PchipInterpolator(x, y)(r), ref(r))
    grid2d = r[:300].reshape(-1, 3)
    assert _same_bits(PchipInterpolator(x, y)(grid2d), ref(grid2d))
    for point in (x[0], 0.5 * (x[0] + x[1]), x[-1] + 1.0):
        assert float(PchipInterpolator(x, y)(point)).hex() == float(ref(point)).hex()


def test_pchip_end_slope_clamps_are_exercised():
    from scipy.interpolate import PchipInterpolator as ScipyPchip
    zero, zero_right, three, three_right = _pchip_cases()[-4:]
    for (x, y), end in ((zero, 0), (zero_right, -1)):
        assert ScipyPchip(x, y).derivative()(x[end]) == 0.0
    for (x, y), end, m0 in ((three, 0, 1.0), (three_right, -1, -1.0)):
        assert ScipyPchip(x, y).derivative()(x[end]) == 3.0 * m0


def test_pchip_stack_matches_one_scipy_interpolant_per_row():
    from scipy.interpolate import PchipInterpolator as ScipyPchip
    w = PowerGrowth(1.5)
    grid = np.geomspace(1e-4, 400.0, 400)
    cols = w.eval(grid)
    stack = PchipInterpolator(grid, np.stack(cols))
    rng = np.random.default_rng(3)
    for r in (_probe_points(grid, rng), rng.uniform(1.0, 390.0, (5, 6)), 17.25):
        want = np.stack([ScipyPchip(grid, col)(r) for col in cols])
        assert _same_bits(stack(r), want)
    t = Tabulated(grid, *cols)
    r = np.linspace(1e-4, 400.0, 450)
    for got, col in zip(t.eval(r), cols):
        assert _same_bits(got, ScipyPchip(grid, col)(r))
    assert t.eval(17.25) == tuple(float(ScipyPchip(grid, col)(17.25)) for col in cols)


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



def _splice_J_loop(s):
    """PowerLog's int_1^s q(t)/t dt as first written: its forward series
    summed one term per loop pass, its backward branch in closed form."""
    s = np.asarray(s, dtype=float)
    u = s - 1.0
    out = np.empty_like(u)
    fwd = u <= 0.5
    uf = u[fwd]
    acc = 2.5 * uf ** 4 - 5.0 * uf ** 5
    term = uf ** 6
    for k in range(6, 81):
        acc = acc + (31.0 / k) * term * (1 if k % 2 == 0 else -1)
        term = term * uf
    out[fwd] = acc
    v = 1.0 - u[~fwd]
    K = (1.2 * v ** 5 - 0.75 * v ** 4 + (4.0 / 3.0) * v ** 3
         + 4.0 * v ** 2 + 16.0 * v + 31.0 * np.log1p(-0.5 * v))
    out[~fwd] = PowerLog.J2 - K
    return out


@pytest.mark.parametrize("s", [
    np.random.default_rng(5).uniform(1.0, 2.0, 20000),   # both branches, > 1 block
    np.random.default_rng(6).uniform(1.0, 1.5, 300),
    np.array([1.5]), np.array([1.0, 1.5, 1.5 + 1e-16, 2.0]),
    np.array([1.2]), np.array([1.9]), np.array([]),
], ids=["both-20000", "forward-300", "u=0.5", "ends", "one-forward",
        "one-backward", "empty"])
def test_splice_series_is_the_term_by_term_loop_bit_for_bit(s):
    out = PowerLog._J(s)
    assert out.shape == s.shape
    assert out.tobytes() == _splice_J_loop(s).tobytes()


_RADII = np.concatenate([
    np.random.default_rng(7).uniform(0.0, 12.0, 3000),
    np.geomspace(1e-3, 1e6, 500), [0.0, math.e, math.e ** 2, 1.0]])


def _tabulated(w, top=1e6):
    grid = np.geomspace(1e-4, top, 700)
    return Tabulated(grid, *w.eval(grid))


@pytest.mark.parametrize("w", [
    PowerGrowth(0.8), PowerGrowth(1.5), PowerGrowth(3.0),
    PowerLog(0.0), PowerLog(0.6), PowerLog(3.0),
    _tabulated(PowerGrowth(1.5)), _tabulated(PowerLog(1.2)),
], ids=repr)
def test_log_phi_is_log_of_phi_bit_for_bit(w):
    r = _RADII[_RADII >= 1e-4] if isinstance(w, Tabulated) else _RADII
    with np.errstate(divide="ignore"):
        expected = np.log(w.eval(r)[0])
        got = w.log_phi(r)
    finite = np.isfinite(expected)
    assert finite.sum() > 0.9 * r.size
    assert got[finite].tobytes() == expected[finite].tobytes()
    for x in r[finite][::97]:
        assert w.log_phi(float(x)) == np.log(w.eval(float(x))[0])


@pytest.mark.parametrize("w", [
    Euclidean(), Hyperbolic(0.5), Hyperbolic(2.0),
    PowerGrowth(0.8), PowerGrowth(1.5), PowerGrowth(2.0), PowerGrowth(3.0),
    PowerLog(0.0), PowerLog(0.6), PowerLog(1.2), PowerLog(5.0),
    _tabulated(Hyperbolic(1.0), top=40.0), _tabulated(PowerLog(1.2)),
], ids=repr)
def test_scalar_eval_is_the_point_of_an_array_eval(w):
    # solve_modes evaluates the warp at all stage times of a step attempt at
    # once, and the initial step one point at a time: both give the same bits
    top = w.grid[-1] if isinstance(w, Tabulated) else 60.0
    r = np.random.default_rng(8).uniform(1e-4, top, 1500)
    r[:3] = [math.e, math.e ** 2, 1e-4]
    columns = np.array(w.eval(r))
    for i, x in enumerate(r):
        assert np.array(w.eval(float(x))).tobytes() == columns[:, i].tobytes(), x
