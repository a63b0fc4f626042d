import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import write_tabulated_csv
from weakmodel.errors import InvalidFamily, OutOfDomain
from weakmodel.warp import (Euclidean, Hyperbolic, PowerGrowth, PowerLog,
                            Tabulated, UnknownGrowth, WarpingFunction,
                            family_from_name, load_tabulated_csv)


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


def radial_curvature(w, r, h):
    """k(r) = -phi''(r)/phi(r), phi'' the central difference of phi' at step h."""
    return -(w.eval(r + h)[1] - w.eval(r - h)[1]) / (2 * h * w.eval(r)[0])


def test_hyperbolic_at_zero():
    assert Hyperbolic(1.0).eval(0.0) == (0.0, 1.0)


def test_euclidean_values():
    phi, dphi = Euclidean().eval(2.0)
    assert (phi, dphi) == (2.0, 1.0)


def test_hyperbolic_taylor_oracle():
    # frozen from the series oracle: sinh(1), cosh(1)
    s1, c1 = taylor_sinh_cosh(1.0)
    assert_allclose((s1, c1), (1.1752011936438014, 1.5430806348152437), rtol=1e-15)
    phi, dphi = Hyperbolic(1.0).eval(1.0)
    assert_allclose((phi, dphi), (s1, c1), atol=1e-6)


def test_curvature_euclidean_zero():
    for r in (0.1, 1.0, 7.0, 42.0):
        assert radial_curvature(Euclidean(), r, 1e-4) == 0.0


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("r", [0.5, 1.0, 5.0])
def test_curvature_hyperbolic_constant(a, r):
    # k = -a^2 identically: with phi(0) = 0 and phi'(0) = 1, phi'' = a^2 phi
    # holds exactly when its first integral phi'^2 = 1 + a^2 phi^2 does
    phi, dphi = Hyperbolic(a).eval(r)
    assert_allclose(dphi ** 2, 1.0 + (a * phi) ** 2, rtol=1e-12)


def test_curvature_powerlog_asymptotic():
    # k(r) -> -c/(r^2 log r); cross-check against finite differences of phi
    w = PowerLog(1.0)
    r = 100.0
    h = 1e-3 * r
    k = radial_curvature(w, r, h)
    assert_allclose(k, -1.0 / (10000.0 * math.log(100.0)), rtol=0.2)
    phi = lambda x: w.eval(x)[0]
    ddphi_fd = (phi(r + h) - 2 * phi(r) + phi(r - h)) / h ** 2
    assert_allclose(k, -ddphi_fd / phi(r), rtol=1e-4)


@pytest.mark.parametrize("w", [
    Euclidean(), Hyperbolic(0.5), Hyperbolic(1.0), Hyperbolic(2.0),
    PowerGrowth(0.8), PowerGrowth(1.5), PowerGrowth(2.0),
    PowerLog(0.0), PowerLog(0.4), PowerLog(1.2),
], ids=repr)
def test_derivatives_match_finite_differences(w):
    # 5-point central stencils of phi reproduce phi' everywhere, including
    # across the power-log splice seams
    r = np.concatenate([
        np.linspace(0.01, 0.99, 23),
        np.linspace(1.0, 12.0, 67),
        np.linspace(12.5, 50.0, 41),
    ])
    h = 1e-4 * np.maximum(1.0, r)
    phi = lambda x: w.eval(x)[0]
    d1 = (phi(r - 2 * h) - 8 * phi(r - h) + 8 * phi(r + h) - phi(r + 2 * h)) / (12 * h)
    _, dphi = w.eval(r)
    assert np.all(phi(r) > 0)
    assert_allclose(d1, dphi, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("c", [0.4, 1.2, 3.0])
def test_powerlog_splice_is_c2(c):
    # phi'' is continuous across both seams: the 5-point second differences
    # of phi 3h below and 3h above e and e^2 agree, up to the change of phi''
    # over 6h; a splice that is C^1 only would jump by about c/e at e
    w = PowerLog(c)
    phi = lambda x: w.eval(x)[0]
    h = 1e-4
    for seam in (math.e, math.e ** 2):
        r = seam + np.array([-3 * h, 3 * h])
        d2 = (-phi(r - 2 * h) + 16 * phi(r - h) - 30 * phi(r)
              + 16 * phi(r + h) - phi(r + 2 * h)) / (12 * h ** 2)
        assert_allclose(d2[0], d2[1], rtol=2e-4, atol=1e-6)


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
    phi, dphi = w.eval(r_mid)
    assert np.all(phi > 0) and np.all(dphi > 0)
    # continuity at the seams
    for seam in (math.e, math.e ** 2):
        left = w.eval(seam - 1e-10)
        right = w.eval(seam + 1e-10)
        assert_allclose(left[0], right[0], rtol=1e-9)
        assert_allclose(left[1], right[1], rtol=1e-7)


def test_weak_model_axioms(closed_families):
    for w in closed_families:
        phi0, dphi0 = w.eval(0.0)
        assert abs(phi0) < 1e-10 and abs(dphi0 - 1.0) < 1e-10
        r = np.geomspace(1e-6, 50.0, 80)
        assert np.all(w.eval(r)[0] > 0)


class _OffAxioms(WarpingFunction):
    """phi = 1 + r: phi(0) = 1 breaks the weak-model axioms."""

    def __init__(self):
        self._check_axioms()

    def eval(self, r):
        return 1.0 + r, 1.0


@pytest.mark.parametrize("bad", [
    lambda: Hyperbolic(0.0),
    lambda: Hyperbolic(-1.0),
    lambda: PowerGrowth(0.0),
    lambda: PowerGrowth(-2.0),
    lambda: PowerLog(-0.1),
    lambda: family_from_name("power"),
    lambda: family_from_name("powerlog"),
    lambda: _OffAxioms(),
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
    # cubic Hermite of log phi in log r: accuracy set by the sample density
    assert_allclose(t.eval(r)[0], w.eval(r)[0], rtol=2e-5)
    assert_allclose(t.eval(r)[1], w.eval(r)[1], rtol=2e-5)
    with pytest.raises(OutOfDomain):
        t.eval(41.0)
    with pytest.raises(OutOfDomain):
        t.eval(1e-6)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_tabulated_validation(tmp_path):
    # non-increasing grid
    with pytest.raises(InvalidFamily):
        Tabulated([0.1, 0.2, 0.2, 0.4], [1, 2, 3, 4], [1, 1, 1, 1])
    # nonpositive phi
    with pytest.raises(InvalidFamily):
        Tabulated([0.1, 0.2, 0.3, 0.4], [1, -2, 3, 4], [1, 1, 1, 1])
    with pytest.raises(InvalidFamily, match="^tabulated grid needs at least 4 nodes$"):
        Tabulated([0.1, 0.2, 0.3], [1, 2, 3], [1, 1, 1])
    with pytest.raises(InvalidFamily, match="^tabulated grid must be positive$"):
        Tabulated([-0.1, 0.2, 0.3, 0.4], [1, 2, 3, 4], [1, 1, 1, 1])
    with pytest.raises(InvalidFamily,
                       match="^tabulated columns must share the grid shape$"):
        Tabulated([0.1, 0.2, 0.3, 0.4], [1, 2, 3, 4], [1, 1, 1])
    empty = tmp_path / "empty.csv"
    empty.write_text("r,phi,dphi\n\n")
    with pytest.raises(InvalidFamily, match=f"^{re.escape(str(empty))}: no data rows$"):
        load_tabulated_csv(empty)
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


@pytest.mark.parametrize("column", ["grid", "phi", "dphi"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_tabulated_refuses_non_finite_samples_by_name(column, value):
    cols = {"grid": [0.1, 0.2, 0.3, 0.4], "phi": [0.1, 0.2, 0.3, 0.4],
            "dphi": [1.0, 1.0, 1.0, 1.0]}
    cols[column][2] = value
    with pytest.raises(InvalidFamily, match=rf"^tabulated {column}\[2\] = {value} "):
        Tabulated(cols["grid"], cols["phi"], cols["dphi"])


@pytest.mark.parametrize("row,message", [
    ("0.5,0.5", "dphi is missing"),
    ("0.5,,1.0", "phi is missing"),
    ("0.5,abc,1.0", "phi is 'abc', not a finite number"),
    ("0.5,nan,1.0", "phi is 'nan', not a finite number"),
    ("inf,0.5,1.0", "r is 'inf', not a finite number"),
], ids=["short", "empty", "text", "nan", "inf"])
def test_tabulated_csv_refuses_a_bad_sample_by_file_and_line(tmp_path, row, message):
    path = write_tabulated_csv(tmp_path / "w.csv", Hyperbolic(1.0),
                               np.geomspace(1e-4, 30.0, 50))
    lines = path.read_text().splitlines()
    lines[4] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidFamily, match=re.escape(f"{path}, line 5: {message}")):
        load_tabulated_csv(path)


def test_columns_are_read_by_name(tmp_path):
    # r,phi,dphi files, the old r,phi,dphi,ddphi layout, and that header on
    # three values per row all give the same interpolant, bit for bit
    w = Hyperbolic(1.0)
    grid = np.geomspace(1e-4, 30.0, 400)
    phi, dphi = w.eval(grid)
    three = load_tabulated_csv(write_tabulated_csv(tmp_path / "three.csv", w, grid))
    old = tmp_path / "old.csv"
    np.savetxt(old, np.column_stack([grid, phi, dphi, phi]), fmt="%.17g",
               delimiter=",", header="r,phi,dphi,ddphi", comments="")
    short = tmp_path / "short.csv"
    np.savetxt(short, np.column_stack([grid, phi, dphi]), fmt="%.17g",
               delimiter=",", header="r,phi,dphi,ddphi", comments="")
    for path in (old, short):
        t = load_tabulated_csv(path)
        assert _same_bits(t.grid, three.grid)
        assert _same_bits(t._c, three._c)


def test_columns_are_read_in_any_order_across_line_ends_and_blank_lines(tmp_path):
    # CRLF line ends, the columns in another order beside one more, and a
    # trailing blank line give the plain table's interpolant, bit for bit
    w = Hyperbolic(1.0)
    grid = np.geomspace(1e-4, 30.0, 400)
    phi, dphi = w.eval(grid)
    plain = load_tabulated_csv(write_tabulated_csv(tmp_path / "plain.csv", w, grid))
    mixed = tmp_path / "mixed.csv"
    with open(mixed, "w", newline="") as fh:
        fh.write("dphi,r,extra,phi\r\n")
        for r, p, d in zip(grid, phi, dphi):
            fh.write(f"{d:.17g},{r:.17g},x,{p:.17g}\r\n")
        fh.write("\r\n")
    t = load_tabulated_csv(mixed)
    assert _same_bits(t.grid, plain.grid)
    assert _same_bits(t._c, plain._c)


def test_a_cubic_log_phi_in_log_r_is_reproduced_to_rounding():
    # the interpolant is the cubic Hermite of log phi in s = log r through
    # the sampled slopes r phi'/phi, so a warp whose log phi is a cubic in s
    # comes back exactly, phi and phi' alike, between the nodes too
    coef = np.array([0.01, -0.05, 1.2, 0.3])
    slope = np.polyder(coef)
    grid = np.geomspace(0.5, 20.0, 12)
    phi = np.exp(np.polyval(coef, np.log(grid)))
    t = Tabulated(grid, phi, phi * np.polyval(slope, np.log(grid)) / grid)
    r = np.concatenate([np.sqrt(grid[:-1] * grid[1:]),
                        np.random.default_rng(1).uniform(0.5, 20.0, 200)])
    want = np.exp(np.polyval(coef, np.log(r)))
    got_phi, got_dphi = t.eval(r)
    assert_allclose(got_phi, want, rtol=1e-13)
    assert_allclose(got_dphi, want * np.polyval(slope, np.log(r)) / r, rtol=1e-13)


def test_tabulated_dphi_is_the_derivative_of_its_phi():
    # phi' between nodes is the interpolant's own derivative, not a second
    # interpolant of the dphi column: central differences of phi agree
    grid = np.geomspace(1e-4, 30.0, 400)
    t = Tabulated(grid, *Hyperbolic(1.0).eval(grid))
    mid = 0.5 * (grid[:-1] + grid[1:])
    h = 1e-5 * mid
    diff = (t.eval(mid + h)[0] - t.eval(mid - h)[0]) / (2 * h)
    assert_allclose(diff, t.eval(mid)[1], rtol=1e-6)



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
