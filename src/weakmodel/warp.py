"""Warping functions phi for metrics dr^2 + phi^2(r) g_omega on R^n.

Every closed family satisfies the weak-model axioms phi(0) = 0,
phi'(0) = 1 and phi > 0 for r > 0.  Evaluation returns (phi, phi') and is
vectorized over r: the criterion integrates powers of phi, and the mode
equation reads phi and phi' only.  Each family carries a growth descriptor
consumed by the criterion module for analytic tail bounds.  A table of
samples (`Tabulated`) is read between its nodes through one cubic Hermite
of log phi in log r, whose slopes are the sampled r phi'/phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidFamily, NonPositiveWarp, OutOfDomain
from .report import read_csv_columns

_AXIOM_TOL = 1e-10

# PowerLog's splice series: the coefficients (-1)^k 31/k of its terms
# k = 6..80, one row each, and the points summed in one buffer
_SERIES_COEF = np.array([[31.0 / k if k % 2 == 0 else -(31.0 / k)]
                         for k in range(6, 81)])
_SERIES_BLOCK = 256


# ---------------------------------------------------------------------------
# Growth descriptors: phi(r) ~ scale * psi(r) for large r, where psi is
# exp(rate*r), r^exponent or r*(log r)^log_exponent.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialGrowth:
    rate: float
    scale: float

    def describe(self):
        return f"phi ~ {self.scale:.6g}*exp({self.rate:.6g}*r)"


@dataclass(frozen=True)
class PowerLawGrowth:
    exponent: float
    scale: float = 1.0

    def describe(self):
        return f"phi ~ {self.scale:.6g}*r^{self.exponent:.6g}"


@dataclass(frozen=True)
class PowerLogGrowth:
    log_exponent: float
    scale: float

    def describe(self):
        return f"phi ~ {self.scale:.6g}*r*(log r)^{self.log_exponent:.6g}"


@dataclass(frozen=True)
class UnknownGrowth:
    def describe(self):
        return "tail growth unknown"


class WarpingFunction:
    """Base class.  Subclasses implement eval(r) -> (phi, dphi).  A pass over
    a range that holds `breakpoints`, where phi is less smooth, starts with
    panel edges there.

    A `growth_class` other than UnknownGrowth is a promise about phi on
    every [r0, inf) with r0 past its start (max(5, 10/rate), 20 and 8):
    exponential growth lies within [1 - e^(-2 rate r0), 1] of scale*psi, a
    power law within (1 + r0^-2)^(+-|exponent - 1|/2) of it, and power-log
    is scale*psi exactly.  The criterion certifies tails from that promise
    alone, refusing a warp other than a table that breaks it at the radius
    certified; only `PowerGrowth`, whose phi it knows, gets exact power tails.
    """

    growth_class = UnknownGrowth()
    breakpoints = ()

    def eval(self, r):
        raise NotImplementedError

    def log_phi(self, r):
        """log phi(r), overridable for families where phi overflows."""
        return np.log(self.eval(r)[0])

    def _check_axioms(self):
        phi0, dphi0 = self.eval(0.0)
        if abs(phi0) > _AXIOM_TOL or abs(dphi0 - 1.0) > _AXIOM_TOL:
            raise InvalidFamily(
                f"{self!r}: phi(0)={phi0!r}, phi'(0)={dphi0!r} violate the "
                "weak-model axioms")


def with_breakpoints(w: WarpingFunction, edges):
    """The sorted edges of a pass, with w's breakpoints inside their span added."""
    inside = [x for x in w.breakpoints if edges[0] < x < edges[-1] and x not in edges]
    return np.sort(np.r_[edges, inside])


class Euclidean(WarpingFunction):
    """phi(r) = r."""

    growth_class = PowerLawGrowth(1.0)

    def __init__(self):
        self._check_axioms()

    def eval(self, r):
        r = np.asarray(r, dtype=float)
        return r + 0.0, np.ones_like(r)

    def log_phi(self, r):
        return np.log(np.asarray(r, dtype=float))

    def __repr__(self):
        return "Euclidean()"


class Hyperbolic(WarpingFunction):
    """phi(r) = sinh(a*r)/a, constant radial curvature -a^2."""

    def __init__(self, a):
        if not (a > 0 and math.isfinite(a)):
            raise InvalidFamily(f"Hyperbolic rate must be positive, got {a!r}")
        self.a = float(a)
        self.growth_class = ExponentialGrowth(rate=self.a, scale=1.0 / (2 * self.a))
        self._check_axioms()

    def eval(self, r):
        r = np.asarray(r, dtype=float)
        ar = self.a * r
        return np.sinh(ar) / self.a, np.cosh(ar)

    def log_phi(self, r):
        # log(sinh(ar)/a) without overflow for large ar
        ar = self.a * np.asarray(r, dtype=float)
        out = np.where(
            ar > 20.0,
            ar - math.log(2 * self.a) + np.log1p(-np.exp(-2 * np.minimum(ar, 700.0))),
            np.log(np.sinh(np.minimum(ar, 20.0)) / self.a),
        )
        return out

    def __repr__(self):
        return f"Hyperbolic(a={self.a:g})"


class PowerGrowth(WarpingFunction):
    """phi(r) = r*(1+r^2)^((p-1)/2), asymptotically r^p."""

    def __init__(self, p):
        if not (p > 0 and math.isfinite(p)):
            raise InvalidFamily(f"PowerGrowth exponent must be positive, got {p!r}")
        self.p = float(p)
        self.growth_class = PowerLawGrowth(exponent=self.p)
        self._check_axioms()

    def eval(self, r):
        # a scalar takes the array arithmetic: numpy's scalar ** is libm's
        # pow, its array ** is not, and the two differ in the last bit
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        p = self.p
        one = 1.0 + r * r
        phi = r * one ** ((p - 1) / 2)
        dphi = one ** ((p - 3) / 2) * (1.0 + p * r * r)
        if scalar:
            return float(phi[0]), float(dphi[0])
        return phi, dphi

    def log_phi(self, r):
        # log(eval(r)[0]) bit for bit where that is finite; beyond, where
        # phi or r*r overflows, p log r + (p-1)/2 log1p(r^-2)
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        p = self.p
        with np.errstate(over="ignore", divide="ignore"):
            out = np.log(r * (1.0 + r * r) ** ((p - 1) / 2))
        far = ~np.isfinite(out) & (r > 1.0)
        if np.any(far):
            out = np.where(far, p * np.log(r) + (p - 1) / 2 * np.log1p(r ** -2.0), out)
        return out[0] if scalar else out

    def __repr__(self):
        return f"PowerGrowth(p={self.p:g})"


class PowerLog(WarpingFunction):
    """phi(r) = r below e, exactly C*r*(log r)^c beyond e^2.

    The two regimes are joined on [e, e^2] by blending the logarithmic
    derivative: phi'/phi = 1/r + c*q(log r)/(r log r) with q a quintic
    smoothstep in log r.  q(t)/t has an elementary antiderivative, so the
    matching constant C and all values on the splice are closed-form.  The
    blend keeps phi > 0, phi' > 0 and phi in C^3.
    """

    S1 = math.e
    S2 = math.e ** 2
    breakpoints = (S1, S2)
    # J2 = int_1^2 q(t)/t dt, frozen at quad precision
    J2 = 0.29577073597502874

    def __init__(self, c):
        if not (c >= 0 and math.isfinite(c)):
            raise InvalidFamily(f"PowerLog exponent must be >= 0, got {c!r}")
        self.c = float(c)
        self.match_constant = math.exp(self.c * self.J2) / 2.0 ** self.c
        self.growth_class = PowerLogGrowth(log_exponent=self.c, scale=self.match_constant)
        self._check_axioms()

    @staticmethod
    def _q(t):
        # quintic smoothstep q = 10u^3 - 15u^4 + 6u^5 in u = t-1;
        # q(1) = 0, q(2) = 1, q' = q'' = 0 at both ends
        u = t - 1.0
        return ((6.0 * u - 15.0) * u + 10.0) * u ** 3

    @classmethod
    def _J(cls, s):
        """int_1^s q(t)/t dt, evaluated without cancellation.

        Forward branch (u = s-1 <= 1/2): the series
        J = 2.5 u^4 - 5 u^5 + 31 sum_{k>=6} (-1)^k u^k / k.
        Backward branch: J = J2 - K(2-s) with
        K(v) = 6/5 v^5 - 3/4 v^4 + 4/3 v^3 + 4 v^2 + 16 v + 31 log1p(-v/2).
        """
        s = np.asarray(s, dtype=float)
        u = s - 1.0
        out = np.empty_like(u)
        fwd = u <= 0.5
        if np.any(fwd):
            out[fwd] = cls._series(u[fwd])
        if np.any(~fwd):
            v = 1.0 - u[~fwd]
            K = (1.2 * v ** 5 - 0.75 * v ** 4 + (4.0 / 3.0) * v ** 3
                 + 4.0 * v ** 2 + 16.0 * v + 31.0 * np.log1p(-0.5 * v))
            out[~fwd] = cls.J2 - K
        return out

    @staticmethod
    def _series(u):
        """2.5 u^4 - 5 u^5 + sum_{k=6}^{80} (-1)^k (31/k) u^k, term by term.

        Per block of points, one buffer of 76 rows: row 0 holds the first
        two terms, rows 1 to 75 the powers u^6, u^7, ... as running
        products, then the terms, then the running sums down the rows.  So
        each point takes the same float operations, in the same order, as a
        loop over k that adds one term and multiplies the power by u.
        """
        out = np.empty_like(u)
        for i in range(0, u.size, _SERIES_BLOCK):
            ub = u[i:i + _SERIES_BLOCK]
            buf = np.empty((_SERIES_COEF.size + 1, ub.size))
            buf[0] = 2.5 * ub ** 4 - 5.0 * ub ** 5
            buf[1] = ub ** 6
            buf[2:] = ub
            np.multiply.accumulate(buf[1:], axis=0, out=buf[1:])
            buf[1:] *= _SERIES_COEF
            np.add.accumulate(buf, axis=0, out=buf)
            out[i:i + _SERIES_BLOCK] = buf[-1]
        return out

    def _phi(self, r):
        """phi alone at a 1-D r, with the arithmetic of `eval`."""
        phi = np.empty_like(r)
        low = r <= self.S1
        phi[low] = r[low]
        mid = (r > self.S1) & (r < self.S2)
        if np.any(mid):
            rm = r[mid]
            phi[mid] = rm * np.exp(self.c * self._J(np.log(rm)))
        hi = r >= self.S2
        if np.any(hi):
            rh = r[hi]
            phi[hi] = self.match_constant * rh * np.log(rh) ** self.c
        return phi

    def eval(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        phi = self._phi(r)
        dphi = np.empty_like(r)
        c = self.c
        dphi[r <= self.S1] = 1.0

        mid = (r > self.S1) & (r < self.S2)
        if np.any(mid):
            rm = r[mid]
            s = np.log(rm)
            dphi[mid] = phi[mid] * ((1.0 + c * self._q(s) / s) / rm)

        hi = r >= self.S2
        if np.any(hi):
            L = np.log(r[hi])
            dphi[hi] = self.match_constant * L ** (c - 1) * (L + c)

        if scalar:
            return float(phi[0]), float(dphi[0])
        return phi, dphi

    def log_phi(self, r):
        # log(eval(r)[0]) bit for bit where that is finite; beyond, where
        # (log r)^c overflows, log C + log r + c log log r
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        with np.errstate(over="ignore"):
            out = np.log(self._phi(r))
        far = ~np.isfinite(out) & (r >= self.S2)
        if np.any(far):
            rf = np.where(far, r, self.S2)
            out = np.where(far, math.log(self.match_constant) + np.log(rf)
                           + self.c * np.log(np.log(rf)), out)
        return out[0] if scalar else out

    def __repr__(self):
        return f"PowerLog(c={self.c:g})"


class Tabulated(WarpingFunction):
    """Warping function given by samples of (phi, phi') on a grid.

    Between nodes, y = log phi is the cubic Hermite in s = log r through
    the samples' values log phi and slopes dy/ds = r phi'/phi, so no slope
    is estimated and the interpolation error is O(h^4) in s.  phi' is
    that interpolant's own derivative, phi (dy/ds) / r, and equals the
    sampled phi' at the nodes.  Growth defaults to Unknown, for which the
    criterion module certifies no tail and reports Inconclusive.
    """

    def __init__(self, grid, phi, dphi, growth=None):
        grid = np.asarray(grid, dtype=float)
        phi = np.asarray(phi, dtype=float)
        dphi = np.asarray(dphi, dtype=float)
        if grid.ndim != 1 or len(grid) < 4:
            raise InvalidFamily("tabulated grid needs at least 4 nodes")
        for name, col in (("grid", grid), ("phi", phi), ("dphi", dphi)):
            bad = np.flatnonzero(~np.isfinite(col))
            if bad.size:
                raise InvalidFamily(
                    f"tabulated {name}[{bad[0]}] = {col.flat[bad[0]]} is not finite")
        if np.any(np.diff(grid) <= 0):
            raise InvalidFamily("tabulated grid must be strictly increasing")
        if grid[0] <= 0:
            raise InvalidFamily("tabulated grid must be positive")
        if np.any(phi <= 0):
            raise InvalidFamily("tabulated phi must be positive on the grid")
        if not (phi.shape == dphi.shape == grid.shape):
            raise InvalidFamily("tabulated columns must share the grid shape")
        self.grid = grid
        self.growth_class = growth if growth is not None else UnknownGrowth()
        # per interval, y = y0 + d0 t + c2 t^2 + c3 t^3 in t = s - s0
        s, y, d = np.log(grid), np.log(phi), grid * dphi / phi
        h = np.diff(s)
        m = np.diff(y) / h
        self._s = s
        self._c = np.stack([(d[:-1] + d[1:] - 2 * m) / (h * h),
                            (3 * m - 2 * d[:-1] - d[1:]) / h, d[:-1], y[:-1]])

    def _check_hull(self, r):
        if np.any(r < self.grid[0] - 1e-15) or np.any(r > self.grid[-1] + 1e-15):
            raise OutOfDomain(
                f"r outside tabulated hull [{self.grid[0]:g}, {self.grid[-1]:g}]")

    def _log_phi_and_slope(self, r):
        """(log phi, d log phi / d log r) at the radii r, refused outside
        the hull; the end cubics cover the hull's rounding slack."""
        self._check_hull(r)
        s = np.log(r)
        i = np.searchsorted(self._s[1:-1], s, side="right")
        t = s - self._s[i]
        c3, c2, d0, y0 = self._c.take(i, axis=-1)
        return ((c3 * t + c2) * t + d0) * t + y0, (3 * c3 * t + 2 * c2) * t + d0

    def eval(self, r):
        r = np.asarray(r, dtype=float)
        y, dy = self._log_phi_and_slope(r)
        phi = np.exp(y)
        dphi = phi * dy / r
        if np.ndim(r) == 0:
            return float(phi), float(dphi)
        return phi, dphi

    def log_phi(self, r):
        # the log of eval's phi, bit for bit, not y itself
        y = self._log_phi_and_slope(np.asarray(r, dtype=float))[0]
        return np.log(np.exp(y))

    def __repr__(self):
        return (f"Tabulated({len(self.grid)} nodes on "
                f"[{self.grid[0]:g}, {self.grid[-1]:g}])")


# ---------------------------------------------------------------------------
# Module operations
# ---------------------------------------------------------------------------

def phi_on(w: WarpingFunction, r, where: str):
    """phi at the radii r, refused where it is not positive (NonPositiveWarp)
    or not finite (OutOfDomain), by the first such radius and `where`.
    Only phi is read, so neither its overflow nor an invalid phi' warns."""
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.asarray(w.eval(r)[0], dtype=float)
    if np.any(phi <= 0):
        raise NonPositiveWarp(f"phi({r[np.argmax(phi <= 0)]:g}) <= 0 {where}")
    if not np.all(np.isfinite(phi)):
        raise OutOfDomain(f"phi({r[np.argmax(~np.isfinite(phi))]:g}) is not "
                          f"finite {where}")
    return phi


def load_tabulated_csv(path, growth=None) -> Tabulated:
    """Read a tabulated family from CSV with the columns r, phi and dphi,
    read and refused by `report.read_csv_columns` (InvalidFamily).

    The r column must be strictly increasing with r[0] <= 1e-3 so that
    radial solves can launch inside the hull.
    """
    data = read_csv_columns(path, ("r", "phi", "dphi"), InvalidFamily)
    if not len(data):
        raise InvalidFamily(f"{path}: no data rows")
    if data[0, 0] > 1e-3:
        raise InvalidFamily(
            f"{path}: first grid point {data[0, 0]:g} must be <= 1e-3")
    return Tabulated(data[:, 0], data[:, 1], data[:, 2], growth=growth)


def family_from_name(name, a=None, p=None, c=None) -> WarpingFunction:
    """Construct a closed family from CLI-style arguments."""
    name = name.lower()
    if name == "euclidean":
        return Euclidean()
    if name == "hyperbolic":
        if a is None:
            raise InvalidFamily("hyperbolic family requires parameter a")
        return Hyperbolic(a)
    if name in ("powergrowth", "power"):
        if p is None:
            raise InvalidFamily("power-growth family requires parameter p")
        return PowerGrowth(p)
    if name == "powerlog":
        if c is None:
            raise InvalidFamily("power-log family requires parameter c")
        return PowerLog(c)
    raise InvalidFamily(f"unknown family {name!r}")
