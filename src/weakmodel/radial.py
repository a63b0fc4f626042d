"""Radial mode profiles: the ODE, its bound structure, and normalization.

For each cross-section eigenvalue lambda^2 the radial factor phi_m solves

    phi_m'' + (n-1) (phi'/phi) phi_m' - (lambda^2/phi^2) phi_m = 0,

is launched at a small r0 from its r^l leading behaviour (l the positive
indicial root), and is nondecreasing and positive.  The substitution
x = phi^{n-1} phi_m' / (lambda^2 phi_m) turns the equation into
x' + (lambda^2/phi^{n-1}) x^2 = phi^{n-3}.  Integration runs on the scaled
Riccati system (u, z) = (log phi_m, x / (r phi^{n-3})), which is regular at
the origin and immune to amplitude overflow.  With s = log r, rho = r/phi
and w = r phi_m'/phi_m = lambda^2 rho^2 z,

    du/ds = w,   dz/ds = 1 - z (1 + (n-3) r phi'/phi + w),

one system for all the modes of an extension, at an rtol never looser
than 1e-12 whatever the tol.  Its coefficients rho and r phi'/phi stay
bounded where phi grows, and at n = 3 z runs from l/lambda^2 at the
origin to 1 at infinity, so the solver need not follow w, which decays
like (r/phi)^2 there.  The bounded branch of z attracts at the rate
1 + 2l near the origin and 1 + (n-3) r phi'/phi far out, which bounds an
explicit method's steps whatever the solution does.  So `solve_ivp`
solves each panel in s whole, by collocation at the K15 nodes the
quadrature already holds (Hairer and Wanner, *Solving ODEs II*, IV.5),
in the spectral-integration form of `quadrature._S15` (Greengard, 1991),
with Newton's method: tens of panels where an explicit method takes
hundreds to thousands of steps.  The Riccati equation yields the verified
growth bound

    phi_m(s) <= B exp( int_1^s lambda^2/phi^{n-1} (A + int_1^t phi^{n-3}) )

with A = x(1), B = phi_m(1); the same bound, with A replaced by its
metric bound int_0^1 phi^{n-3}, certifies the normalization error when
the criterion integral converges.

At n = 2 the equation is u'' = lambda^2 u in the conformal time
tau(r) = int_r^inf 1/phi, so the bounded mode with limit 1 is exactly
exp(-lambda tau(r)); `conformal_modes` builds those without an ODE solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import criterion as _criterion
from . import quadrature as _quadrature
from .quadrature import _S15, _TO_LEGENDRE, _WK_G7, _XK
from .errors import (DegenerateProfile, MalformedArtifact, NonPositiveWarp,
                     NotConvergent, OutOfDomain, OutOfRange, StepSizeUnderflow,
                     TailNotTight)
from .report import round_up_3, write_json_atomic
from .spectrum import EigenMode
from .warp import WarpingFunction, phi_on, with_breakpoints

_DEFAULT_R0 = 1e-3
_GRID_SIZE = 800
_TAIL_DELTA = 1.25e-5
_TAU_RTOL = 1e-12
_NEAR_PANELS = 16        # tau's pass over [r0, 1], in panels equal in log r
_MEMO_SETS = 16          # entries a profile memo keeps before it starts over
_LOG_R_STEP = 1e-3       # suggest_rmax's passing and failing log R are this close


def indicial_exponent(n: int, lambda_sq: float) -> float:
    """Positive root l of l(l-1) + (n-1)l - lambda^2 = 0."""
    if lambda_sq < 0:
        raise ValueError(f"lambda^2 must be >= 0, got {lambda_sq}")
    return 0.5 * (-(n - 2) + math.sqrt((n - 2) ** 2 + 4.0 * lambda_sq))


class _Memo:
    """Arrays computed once per point set, shared by the profiles of one
    solve (one warp, one n, one stacked or conformal solution).

    `get(tag, x, compute)` returns compute(x) for the points x, computing
    it only the first time the tag meets points of that shape and those
    bits.  Stored arrays are read-only, so no caller can change what
    another mode reads.  Past _MEMO_SETS entries the store starts over; it
    is replaced whole, so concurrent calls stay right.
    """

    def __init__(self):
        self._store = {}

    def get(self, tag, x, compute):
        x = np.asarray(x, dtype=float)
        key = (tag, x.shape, x.tobytes())
        store = self._store
        if key not in store:
            val = compute(x)
            for a in val if isinstance(val, tuple) else (val,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
            if len(store) >= _MEMO_SETS:
                store = self._store = {}
            store[key] = val
        return store[key]


@dataclass
class RadialProfile:
    mode: EigenMode
    n: int
    warp: WarpingFunction
    grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    limit_error: float
    _dense: object             # s = log r -> (log raw phi_m, z)
    _scale: float = 1.0        # divisor applied to the raw solution
    _memo: _Memo = field(default_factory=_Memo)   # shared by one solve's profiles

    @property
    def r0(self):
        return float(self.grid[0])

    @property
    def r_max(self):
        return float(self.grid[-1])

    @property
    def indicial_l(self):
        return indicial_exponent(self.n, self.mode.lambda_sq)

    @property
    def normalized(self):       # a raw profile's limit_error is inf
        return math.isfinite(self.limit_error)

    @property
    def limit_estimate(self):   # math.inf while the profile is raw, unbounded
        return 1.0 if self.normalized else math.inf

    def _solution(self, r, ds=False):
        """The dense rows (log raw phi_m, z) at r, or with `ds` their exact
        derivatives in s = log r."""
        return self._dense(np.log(r), ds)

    def _log_raw(self, r):
        """log of the unnormalized phi_m at r (r >= r0, within range)."""
        return self._solution(r)[0]

    def interp(self, r):
        """phi_m(r) for 0 <= r <= r_max (vectorized)."""
        r = np.asarray(r, dtype=float)
        if np.any(r < 0) or np.any(r > self.r_max * (1 + 1e-12)):
            raise OutOfRange(f"r outside [0, {self.r_max:g}]")
        scalar = r.ndim == 0
        r = np.atleast_1d(r).copy()
        out = np.empty_like(r)
        below = r < self.r0
        inside = ~below
        if np.any(inside):
            out[inside] = np.exp(self._log_raw(r[inside])) / self._scale
        if np.any(below):
            # Frobenius launch behaviour phi_m ~ r^l below the launch point
            v0 = self.values[0]
            out[below] = v0 * (r[below] / self.r0) ** self.indicial_l
        return float(out[0]) if scalar else out

    def to_csv(self, path):
        """r,phi_m,dphi_m at 15 significant digits, as np.savetxt writes them.
        The r column, which the profiles of one solve share, is formatted
        once per grid into the format string of the rows, in the memo."""
        rows = self._memo.get("csv", self.grid, lambda grid: "r,phi_m,dphi_m\n" + "".join(
            "%.15g" % r + ",%.15g,%.15g\n" for r in grid.tolist()))
        with open(path, "w") as fh:
            fh.write(rows % tuple(np.column_stack([self.values, self.derivs]).ravel().tolist()))

    def metadata(self):
        lim = self.limit_estimate
        return {
            "m": self.mode.m,
            "lambda_sq": self.mode.lambda_sq,
            "l": self.indicial_l,
            "limit_estimate": ("Unbounded" if math.isinf(lim) else lim),
            "limit_error": round_up_3(self.limit_error),
            "normalized": self.normalized,
        }


def load_profile_csv(path):
    """(grid, values) of a profile CSV `to_csv` wrote, refused by name
    unless it holds at least 2 rows of 3 finite numbers.  Samples alone:
    interpolating them pierces the growth bound where it touches phi_m."""
    try:
        with warnings.catch_warnings():   # a header-only file is refused below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise MalformedArtifact(f"{path}: not a profile CSV: {exc}") from None
    if data.shape[0] < 2 or data.shape[1] != 3 or not np.all(np.isfinite(data)):
        raise MalformedArtifact(
            f"{path}: expected at least 2 rows of 3 finite numbers "
            f"r,phi_m,dphi_m, got {data.shape[0]} rows of {data.shape[1]}")
    return data[:, 0], data[:, 1]


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------

def _cubic_beta(w: WarpingFunction) -> float:
    """beta3 of phi = r + beta3 r^3 + O(r^5), by a finite difference at 1e-2.

    Recovered numerically so that tabulated data works too; 0 when r = 1e-2
    lies off a table's hull.
    """
    h = 1e-2
    try:
        phi_h = float(w.eval(h)[0])
    except OutOfDomain:
        return 0.0
    return (phi_h - h) / h ** 3


def _launch_state(n, lam2, beta3, r_launch, rho0):
    """(u, z) at r_launch from phi_m ~ r^l (1 + kappa2 r^2), l the indicial
    exponent, with rho0 = r_launch / phi(r_launch)."""
    l = indicial_exponent(n, lam2)
    kappa2 = -beta3 * (l * (n - 1) + lam2) / (2.0 * l + n)
    u0 = l * math.log(r_launch) + math.log1p(kappa2 * r_launch ** 2)
    w0 = (l + (l + 2) * kappa2 * r_launch ** 2) / (1.0 + kappa2 * r_launch ** 2)
    return u0, w0 / (lam2 * rho0 * rho0)


def _constant_profile(w, n, mode, grid, memo):
    """The m = 0 profile: the constant 1, normalized and exact, with the
    memo of the solve it belongs to.  Its dense rows are (log 1, z) = 0."""
    return RadialProfile(
        mode=mode, n=n, warp=w, grid=grid, values=np.ones_like(grid),
        derivs=np.zeros_like(grid), limit_error=0.0,
        _dense=lambda s, ds=False: np.zeros((2,) + np.shape(s)), _memo=memo)


def _mode_rows(memo, dense, j):
    """The (u, z) rows of the j-th solved mode in a stacked dense solution,
    or with `ds` their derivatives in s: slices of one evaluation of the
    whole stack per point set, kept in the stack's memo."""
    return lambda s, ds=False: memo.get(
        ("dense", ds), s, lambda s: dense(s, derivative=ds))[2 * j:2 * j + 2]


_U_ATOL = 1e-14          # the u rows' absolute error target per panel
_NEWTON_ITERATIONS = 8   # a panel whose Newton solve takes more is rejected
_NEWTON_RTOL = 1e-10     # converged: the error left is about its square


class OdeResult(NamedTuple):
    t: np.ndarray                   # the panel edges in s, the span's start first
    sol: PanelSolution
    nfev: int                       # right-hand sides of the stack at one node


class PanelSolution:
    """The continuous solution of `solve_ivp`: each panel's collocation
    polynomial, in x in [-1, 1] across the panel.

    Per panel it keeps the start state and the Legendre coefficients c_k of
    the slopes in s, the interpolant of the right-hand side at the nodes.
    The values are the start plus (h/2) sum c_k int_{-1}^x P_k, with
    int_{-1}^x P_k = (P_k+1 - P_k-1)/(2k + 1): that is the start at x = -1
    and the next panel's start at x = 1, bit for bit, and it adds the start
    last, so a flat row stays monotone through rounding.  A call evaluates
    every point with elementwise arithmetic and no reduction across points,
    so a point's bits do not depend on the others.  A point on a panel edge
    belongs to the panel that ends there, and points outside the span
    extrapolate the first or the last panel.
    """

    def __init__(self, t, starts, coefficients):
        self.t = t                          # (panels + 1,) edges
        self._half = 0.5 * np.diff(t)
        self._start = starts                # (panels, rows)
        self._c = coefficients              # (panels, 15, rows)

    def __call__(self, s, derivative=False):
        """The rows at s, a float or a 1-D array: shape (rows,) or
        (rows, len(s)); with `derivative`, their exact derivative in s."""
        s = np.asarray(s, dtype=float)
        seg = np.clip(np.searchsorted(self.t, s, side="left") - 1,
                      0, len(self._half) - 1)
        x = ((s - self.t[seg]) / self._half[seg] - 1.0)[..., None]
        count = self._c.shape[1]
        P = _quadrature.legendre(x, count + 1)
        basis = P[:-1] if derivative else _quadrature.legendre_integrals(P)
        out = sum(self._c[seg, k] * b for k, b in enumerate(basis))
        if not derivative:
            out = self._start[seg] + self._half[seg][..., None] * out
        return np.moveaxis(out, -1, 0)


def _collocate(y, damp, a, half, rtol):
    """One panel of the stack: (error ratio, end state, Legendre
    coefficients of the slopes, Newton iterations), the ratio inf when
    Newton's method fails.

    damp = 1 + (n-3) r phi'/phi and a = lambda^2 rho^2 are at the 15 nodes,
    so w = a z.  The slopes are the right-hand side at the nodes, (15, rows).
    """
    z = y[1::2, None]
    zz = np.repeat(z, len(_XK), axis=1)
    eye = np.eye(len(_XK))
    with np.errstate(all="ignore"):   # an overflow fails to converge, unwarned
        for k in range(1, _NEWTON_ITERATIONS + 1):
            F = 1.0 - zz * (damp + a * zz)
            jac = eye + half * _S15 * (damp + 2 * a * zz)[:, None, :]
            try:
                dz = np.linalg.solve(jac, (zz - z - half * F @ _S15.T)[..., None])[..., 0]
            except np.linalg.LinAlgError:
                return math.inf, None, None, k
            zz = zz - dz
            if np.all(np.abs(dz) <= _NEWTON_RTOL * np.abs(zz)):
                break
        else:
            return math.inf, None, None, k
        slopes = np.empty((len(_XK), len(y)))
        slopes[:, 0::2] = (a * zz).T
        slopes[:, 1::2] = (1.0 - zz * (damp + a * zz)).T
        c = _TO_LEGENDRE @ slopes
        y_new = y + half * (2.0 * c[0])   # the K15 rule, as the dense output ends
        scale = np.full_like(y, _U_ATOL)
        scale[1::2] = rtol * np.abs(y_new[1::2])
        ratio = float(np.max(half * np.abs(_WK_G7 @ slopes) / scale))
    return (math.inf if math.isnan(ratio) else ratio), y_new, c, k


def solve_ivp(w: WarpingFunction, n: int, lam2, s_span, y0, rtol: float) -> OdeResult:
    """Integrate the stacked (u, z) system of the modes lam2 over s_span
    from the pairs y0, by collocation at the K15 nodes on panels in s.

    On a panel [s_a, s_a + h] the z rows solve z_i = z_a + (h/2) (S F)_i
    at the nodes, S the Legendre integration matrix `quadrature._S15`, by
    Newton's method from z_i = z_a.  The modes share the panels and
    nothing else, so the Jacobian I + (h/2) S diag(damp + 2w) is one
    15 x 15 system per mode.  The u rows and the ends follow from the K15
    weights, and the warp is read once per panel attempt, at its 15 nodes.

    A panel is accepted when (h/2) |K15 - G7| of each z row's right-hand
    side is within rtol |z| and of each u row's within 1e-14.  The next h
    is 0.9 ratio^(-1/14) times this one, within [1/5, 3]; a Newton solve
    that does not converge or overflows is rejected with the cut 1/5, and
    without a warning.  Panel edges fall on the warp's breakpoints, the
    first panel is at most 1 long, and a panel below rounding raises
    StepSizeUnderflow.  phi <= 0 at a node raises NonPositiveWarp.
    `nfev` counts right-hand sides of the stack at one node: 15 per Newton
    iteration and per accepted panel.
    """
    s, s_end = map(float, s_span)
    if not s_end > s:
        raise ValueError(f"the span must run forward, got {s_span}")
    lam2 = np.asarray(lam2, dtype=float)[:, None]
    y = np.asarray(y0, dtype=float)
    stops = sorted({b for b in np.log(w.breakpoints).tolist() if s < b < s_end}
                   | {s_end})
    h = min(1.0, s_end - s)
    edges, starts, coefficients, nfev = [s], [], [], 0
    while s < s_end:
        b = min(s + h, next(b for b in stops if b > s))
        if b - s < 10 * (np.nextafter(s, math.inf) - s):
            raise StepSizeUnderflow(f"radial integration failed: the panel at "
                                    f"s = {s:.17g} fell below rounding")
        half = 0.5 * (b - s)
        r = np.exp(0.5 * (s + b) + half * _XK)
        phi, dphi = w.eval(r)
        if np.any(phi <= 0):
            i = int(np.argmax(phi <= 0))
            raise NonPositiveWarp(f"phi({r[i]:g}) = {phi[i]:g} <= 0")
        rho = r / phi
        ratio, y_new, c, iterations = _collocate(
            y, 1 + (n - 3) * (rho * dphi), lam2 * rho * rho, half, rtol)
        nfev += len(_XK) * (iterations + (ratio <= 1))
        factor = 0.2 if ratio == math.inf else 3.0 if ratio == 0 else min(
            3.0, max(0.2, 0.9 * ratio ** (-1 / 14)))
        if ratio > 1:
            h = factor * (b - s)
            continue
        # a panel cut short at a breakpoint does not shorten the next one
        h = factor * (b - s) if b == s + h else max(h, factor * (b - s))
        edges.append(b)
        starts.append(y)
        coefficients.append(c)
        s, y = b, y_new
    return OdeResult(np.array(edges), PanelSolution(
        np.array(edges), np.array(starts), np.array(coefficients)), nfev)


def solve_modes(w: WarpingFunction, n: int, modes, r_max: float = 30.0,
                tol: float = 1e-10, r0: float | None = None,
                grid_size: int = _GRID_SIZE) -> list[RadialProfile]:
    """Solve the radial mode equation of every mode on one [r0, r_max].

    Returns the raw profiles in the order of `modes`.  An m = 0 mode
    short-circuits to the constant 1.  All other modes are integrated as one
    system whose state stacks their (u, z) pairs, by `solve_ivp`'s panel
    collocation: the modes share its panels, and the warp is evaluated once
    per panel attempt, at its 15 nodes, for the whole stack, at
    rtol = tol * 1e-4 clipped to [1e-13, 1e-12].  Each profile reads its
    rows of the stack's dense output.  They are returned unnormalized with
    an unbounded limit estimate, and `normalize_profile` rescales a
    convergent one to limit 1.
    """
    grid = np.geomspace(r0 or _DEFAULT_R0, r_max, grid_size)
    memo = _Memo()
    profiles = [_constant_profile(w, n, mode, grid, memo) if mode.m == 0 else None
                for mode in modes]
    solved = [i for i, mode in enumerate(modes) if mode.m != 0]
    if not solved:
        return profiles

    r_launch = float(grid[0])
    if r_max <= 1.0:
        raise ValueError(f"r_max must exceed 1, got {r_max}")
    rho = grid / phi_on(w, grid, f"inside [{grid[0]:g}, {grid[-1]:g}]; the "
                                 "radial solve needs a smaller r_max")
    beta3 = _cubic_beta(w)
    rho0 = r_launch / float(w.eval(r_launch)[0])
    y0 = [v for i in solved
          for v in _launch_state(n, modes[i].lambda_sq, beta3, r_launch, rho0)]
    # pure relative control on z, which stays positive and away from 0
    # (between l/lambda^2 and 1 at n = 3), so x = r phi^{n-3} z keeps the
    # relative accuracy the Riccati trace reads; the G7 estimate is so
    # pessimistic that tol 1e-8 and 1e-10 give the same profiles to 1e-14
    sol = solve_ivp(w, n, [modes[i].lambda_sq for i in solved],
                    (math.log(r_launch), math.log(r_max)), y0,
                    rtol=min(max(tol * 1e-4, 1e-13), 1e-12))

    stack = sol.sol(np.log(grid))
    for j, i in enumerate(solved):
        values = np.exp(stack[2 * j])
        wlog = modes[i].lambda_sq * rho * rho * stack[2 * j + 1]
        derivs = values * wlog / grid
        profiles[i] = RadialProfile(
            mode=modes[i], n=n, warp=w, grid=grid, values=values, derivs=derivs,
            limit_error=math.inf, _dense=_mode_rows(memo, sol.sol, j), _memo=memo)
    return profiles


def solve_radial(w: WarpingFunction, n: int, mode: EigenMode,
                 r_max: float = 30.0, tol: float = 1e-10,
                 r0: float | None = None,
                 grid_size: int = _GRID_SIZE) -> RadialProfile:
    """The raw profile of one mode: `solve_modes` of a one-mode stack."""
    return solve_modes(w, n, [mode], r_max, tol, r0, grid_size)[0]


# ---------------------------------------------------------------------------
# n = 2: modes in closed form
# ---------------------------------------------------------------------------

class _ConformalTime:
    """tau(r) = int_r^inf 1/phi of a convergent n = 2 metric, and r/phi.

    tau is one LogCumulative of 1/phi over [r0, R]: a pass of _NEAR_PANELS
    panels equal in log r over [r0, 1], then the int phi^-1 column of the
    criterion report's pass over [1, R], so [1, R] is integrated once per
    metric, plus the midpoint of the report's inner tail bracket at R.
    `error` bounds |tau - exact| by the bracket's half-width plus the
    panels' error estimates.  tau and r/phi read log phi alone, so they hold
    past the r where phi overflows.  tau, r/phi and phi' are computed once
    per point set, in `memo`, which the modes of one extension share.
    """

    def __init__(self, w: WarpingFunction, criterion):
        self.w = w

        def logf(t):
            return -w.log_phi(t)
        near = _quadrature.adaptive_quad_log(logf, with_breakpoints(
            w, np.geomspace(_DEFAULT_R0, 1.0, _NEAR_PANELS + 1)), rtol=_TAU_RTOL)[2]
        far = criterion.panels   # triples (-1, -1): int phi^-1 is A, of f = phi^-1
        one = {"a": far.a, "b": far.b, "log_val": far.log_val[:, 1],
               "log_err": far.log_err[:, 1], "log_fix": far.log_fix[:, 1],
               "log_node": far.log_node[:, 0]}
        self.cum = _quadrature.LogCumulative(np.rec.fromarrays(
            [np.concatenate([near[name], one[name]]) for name in near.dtype.names],
            dtype=near.dtype))
        lo, hi = (math.exp(b) for b in criterion.certificate.log_inner)
        self.tail = 0.5 * (lo + hi)
        self.error = 0.5 * (hi - lo) + math.exp(self.cum.log_err)
        self.memo = _Memo()

    def __call__(self, s):
        """(tau, r/phi) at s = log r."""
        def compute(s):
            r = np.exp(s)
            return self.tail + np.exp(self.cum.log_between(r)), np.exp(s - self.w.log_phi(r))
        return self.memo.get("tau", s, compute)


def _conformal_rows(tau: _ConformalTime, lam: float):
    """The (log phi_m, z) rows of exp(-lam tau), like `_dense`: its
    w = lam rho and x = 1/lam give z = 1/(lam rho).  Their derivatives in s
    are closed forms too, from dtau/ds = -rho and drho/ds = rho (1 - r phi'/phi)."""
    def dense(s, ds=False):
        t, rho = tau(s)
        if ds:
            dphi = tau.memo.get("dphi", s, lambda s: tau.w.eval(np.exp(s))[1])
            return np.stack([lam * rho, (rho * dphi - 1.0) / (lam * rho)])
        with np.errstate(divide="ignore"):   # z = inf where r/phi underflows
            return np.stack([-lam * t, 1.0 / (lam * rho)])
    return dense


def conformal_modes(w: WarpingFunction, modes,
                    criterion: _criterion.CriterionReport) -> list[RadialProfile]:
    """The normalized n = 2 profiles exp(-lambda tau) of every mode; m = 0 is
    the constant 1 of `solve_modes`, which reads no tau.

    The grid is the one `solve_modes` uses, up to the R of `criterion`, the
    Convergent `march_criterion` report of (w, 2) that tau reads, with no
    ODE solve and no search for R; a report of another warp object or n, or
    with no certificate, is refused with NotConvergent.  All modes share
    one tau, and each mode's limit_error is lambda times tau's error bound,
    which bounds |phi_m - exact| on the whole range.
    """
    _criterion.check_report(criterion, w, 2, "modes'", NotConvergent, certified=True)
    grid = np.geomspace(_DEFAULT_R0, criterion.r_max, _GRID_SIZE)
    tau = _ConformalTime(w, criterion)
    t, rho = tau(np.log(grid))
    profiles = []
    for mode in modes:
        if mode.m == 0:
            profiles.append(_constant_profile(w, 2, mode, grid, tau.memo))
            continue
        lam = math.sqrt(mode.lambda_sq)
        values = np.exp(-lam * t)
        profiles.append(RadialProfile(
            mode=mode, n=2, warp=w, grid=grid, values=values,
            derivs=lam * values * rho / grid, limit_error=lam * tau.error,
            _dense=_conformal_rows(tau, lam), _memo=tau.memo))
    return profiles


# ---------------------------------------------------------------------------
# Normalization via the certified tail bound
# ---------------------------------------------------------------------------

def _riccati_bound(w: WarpingFunction, n: int, lambda_sq: float) -> float:
    """A >= x(1) of the bounded mode, from the metric alone: x = 1/lambda at
    n = 2; at n >= 3, x(0+) = 0 and x' <= phi^{n-3} give int_0^1 phi^{n-3}."""
    if n == 2:
        return 1.0 / math.sqrt(lambda_sq)
    if n == 3:
        return 1.0
    log_val, log_err, _ = _quadrature.adaptive_quad_log(
        lambda r: (n - 3) * w.log_phi(r), [0.0, 1.0], rtol=1e-12)
    # rounded up: the K15 estimate leaves out roundoff (int_0^1 1 gives 1 - 1 ulp)
    return (math.exp(log_val) + math.exp(log_err)) * (1.0 + 1e-12)


def _tail_terms(A: float, cert):
    """The growth bound's exponent beyond R over lambda^2, in its three
    parts: A*T_in(R), C(1,R)*T_in(R) and T_out(R).

    T_in and T_out are the certified single and double tails, C the
    cumulative of phi^{n-3} and A >= x(1) from the metric
    (`_riccati_bound`), so no profile is needed.
    """
    log_in_hi = cert.log_inner[1]
    return (A * math.exp(log_in_hi), math.exp(cert.log_cum + log_in_hi),
            cert.double[1])


def _tail_delta(A: float, lambda_sq: float, cert) -> float:
    """Upper bound for phi_m(inf)/phi_m(R) - 1 from the growth bound tail,
    or inf past double range, where it bounds nothing and is never tight."""
    a_in, cross, outer = _tail_terms(A, cert)
    try:
        return math.expm1(lambda_sq * (a_in + cross + outer))
    except OverflowError:
        return math.inf


def normalize_profile(profile: RadialProfile,
                      cert: _criterion.TailCertificate) -> RadialProfile:
    """Rescale a profile so its limit at infinity is 1.

    The limit is pinned between phi_m(R) and phi_m(R)(1 + delta), with delta
    from `cert`, the certified tail beyond the profile's own R = r_max, and
    becomes the profile's limit_error.  At n >= 3 that bounds the tail
    normalization only, not the ODE solve's own error.  Whether delta is
    small enough is the caller's choice of R (`suggest_rmax`).  Raises
    TailNotTight when the certificate starts at another radius, or when
    delta is not finite and so pins no limit.
    """
    if profile.mode.m == 0:
        return profile
    if cert.r_max != profile.r_max:
        raise TailNotTight(
            f"tail certificate starts at r = {cert.r_max:g}, not at the "
            f"profile's r_max = {profile.r_max:g}; solve to the certified radius")
    lam2 = profile.mode.lambda_sq
    delta = _tail_delta(_riccati_bound(profile.warp, profile.n, lam2), lam2, cert)
    if not math.isfinite(delta):
        raise TailNotTight(
            f"tail delta at r_max = {cert.r_max:g} is {delta:g} and pins no limit; "
            "solve to the radius suggest_rmax certifies")
    limit = profile.values[-1] * (1.0 + delta)
    return replace(
        profile,
        values=profile.values / limit,
        derivs=profile.derivs / limit,
        limit_error=delta,
        _scale=profile._scale * limit)


def suggest_rmax(w: WarpingFunction, n: int, lambda_sq: float,
                 cert: _criterion.TailCertificate) -> _criterion.TailCertificate:
    """Certificate near the smallest radius whose tail delta for a mode of
    eigenvalue lambda_sq is below _TAIL_DELTA, from certificates alone.

    It starts from `cert`, a criterion report's certificate, and keeps it if
    it passes, with no certificate of its own.  Else log R doubles until a
    certificate passes, up to the top: the last R with finite phi and phi',
    by bisection, which a table's certificate clips to its hull.  The
    Illinois form of regula falsi on g = log log1p(delta), linear in log R
    for power growth, then narrows the bracket to _LOG_R_STEP, trying at
    least half that inside it.  At lambda^2 = 0 the delta is 0 at every R,
    so `cert` is kept.
    """
    if lambda_sq == 0:
        return cert
    A = _riccati_bound(w, n, lambda_sq)

    def judge(cert):
        delta = _tail_delta(A, lambda_sq, cert)
        g = math.log(math.log1p(delta) / math.log1p(_TAIL_DELTA)) if delta else -math.inf
        return cert, delta, math.log(cert.r_max), g

    def refuse(cert, delta, trial):
        reach = (f"up to the end of the tabulated hull at {cert.r_max:g}"
                 if cert.r_max < trial else f"below {math.exp(s_out):g}")
        a_in, cross, outer = (lambda_sq * t for t in _tail_terms(A, cert))
        raise TailNotTight(
            f"no r_max {reach} reaches tail delta {_TAIL_DELTA:g}; at r_max = "
            f"{cert.r_max:g}, delta = {delta:.3g} is the expm1 of lambda^2 times "
            f"(A*T_in + C*T_in + T_out) = {a_in:.3g} + {cross:.3g} + {outer:.3g}")

    s_out = math.log(np.finfo(float).max)
    cert, delta, s_lo, g_lo = judge(cert)
    if delta < _TAIL_DELTA:
        return cert
    s_hi = s_lo
    while s_out - s_hi > _LOG_R_STEP:     # the top; off a table's hull w.eval raises
        s = 0.5 * (s_hi + s_out)
        try:
            with np.errstate(all="ignore"):
                finite = all(map(math.isfinite, w.eval(math.exp(s))))
        except OutOfDomain:
            finite = False
        s_hi, s_out = (s, s_out) if finite else (s_hi, s)
    g_hi, passed, kept = math.nan, None, None
    while passed is None or s_hi - s_lo > _LOG_R_STEP:
        if passed is None:       # expand
            s = min(2.0 * s_lo, s_hi)
        else:                    # refine
            s = 0.5 * (s_lo + s_hi)
            if math.isfinite(g_lo - g_hi) and g_lo > g_hi:
                s = s_hi - g_hi * (s_hi - s_lo) / (g_hi - g_lo)
            s = min(max(s, s_lo + 0.5 * _LOG_R_STEP), s_hi - 0.5 * _LOG_R_STEP)
        top, trial = s == s_hi, math.exp(s)
        cert, delta, s, g = judge(_criterion.tail_certificate(w, n, trial))
        if delta < _TAIL_DELTA:   # Illinois: an end kept twice has its g halved
            passed, s_hi, g_hi, g_lo = cert, s, g, g_lo * (0.5 if kept else 1.0)
        elif top:
            refuse(cert, delta, trial)
        else:
            s_lo, g_lo, g_hi = s, g, g_hi * (0.5 if kept is False else 1.0)
        kept = delta < _TAIL_DELTA
    return passed


# ---------------------------------------------------------------------------
# Riccati trace and growth bound verification
# ---------------------------------------------------------------------------

@dataclass
class RiccatiTrace:
    grid: np.ndarray
    x: np.ndarray
    residual: np.ndarray      # x' + (lambda^2/phi^{n-1}) x^2 - phi^{n-3}
    residual_ok: bool
    inequality_ok: bool       # x' <= phi^{n-3} + 1e-9 (max(1, phi^{n-3}) at n >= 4)


def riccati_trace(profile: RadialProfile, s_grid=None) -> RiccatiTrace:
    """Log-derivative substitution trace x on the radii s_grid, with its
    equation residual.

    x = r phi^{n-3} z, and x' = phi^{n-3} (z (1 + (n-3) r phi'/phi) + dz/ds)
    from the solved rows' exact derivative in s = log r.  The equation is
    written here apart from the solver's, so the residual is the solution's
    own defect.  phi, phi' and log phi on s_grid come from the memo the
    profiles of one solve share, so each point set reads the warp once.
    """
    w = profile.warp
    n = profile.n
    lam2 = profile.mode.lambda_sq
    if lam2 <= 0:
        raise DegenerateProfile("Riccati trace needs lambda^2 > 0 (m >= 1)")
    if s_grid is None:
        s_grid = np.linspace(1.0, min(profile.r_max, 20.0), 481)
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid[0] < profile.r0 or s_grid[-1] > profile.r_max * (1 + 1e-12):
        raise DegenerateProfile("trace grid leaves the solved range")

    z = profile._solution(s_grid)[1]
    dz = profile._solution(s_grid, ds=True)[1]
    log_phi, phi, dphi = profile._memo.get(("warp", w), s_grid, lambda r: (
        np.asarray(w.log_phi(r), dtype=float), *w.eval(r)))
    source = np.exp((n - 3) * log_phi)
    x = s_grid * z * source
    if np.any(~np.isfinite(x)) or np.any(x < 0):
        raise DegenerateProfile("nonpositive phi_m or phi_m' in the trace range")
    xp = source * (z * (1 + (n - 3) * (s_grid * dphi / phi)) + dz)

    quad_term = np.exp(math.log(lam2) + 2 * np.log(x) - (n - 1) * log_phi,
                       where=x > 0, out=np.zeros_like(x))
    residual = xp + quad_term - source
    residual_ok = bool(np.all(np.abs(residual) <= 1e-6 * (1.0 + source)))
    # x' reaches phi^{n-3} up to its rounding, which at n >= 4 grows with phi
    slack = 1e-9 * (np.maximum(1.0, source) if n >= 4 else 1.0)
    inequality_ok = bool(np.all(xp <= source + slack))
    return RiccatiTrace(grid=s_grid, x=x, residual=residual,
                        residual_ok=residual_ok, inequality_ok=inequality_ok)


def lemma_bound_check(profile: RadialProfile, report: _criterion.CriterionReport, r):
    """Verify phi_m(r) <= B exp(int_1^r lambda^2/phi^{n-1} (A + int_1^t phi^{n-3}))
    at the radii r, with A = x(1) and B = phi_m(1) read off the profile at
    r = 1 itself.

    Returns (bound at r, satisfied flag).  The exponent is lambda^2 (A F + T),
    with F = int_1^r phi^{1-n} and the triangle
    T = int_1^r phi^{1-n}(t) int_1^t phi^{n-3}: the integrals of March's
    criterion, read at each radius off the panel triples of `report`, the
    criterion report of (warp, n), by `quadrature.log_prefix`.  So the bound
    uses only the warping function and no pass of its own, independent of
    the ODE solver.  The profiles of one solve share F and T per point set
    and report.  A report of another warp or n, and radii outside
    [1, report.r_max], are refused.
    """
    lam2, w, n = profile.mode.lambda_sq, profile.warp, profile.n
    _criterion.check_report(report, w, n, "profile's", DegenerateProfile)
    r = np.asarray(r, dtype=float)
    lo, hi = np.min(r, initial=1.0), np.max(r, initial=report.r_max)
    if lo < 1.0 or hi > report.r_max:
        raise DegenerateProfile(f"the growth bound starts at r = 1 and ends at the "
                                f"criterion's r_max = {report.r_max:g}, and the "
                                f"radii reach r = {lo if lo < 1.0 else hi:g}")

    one = np.array([1.0])
    log_phi_one = profile._memo.get(("log_phi", w), one, w.log_phi)
    A = float(profile._solution(one)[1][0] * np.exp((n - 3) * log_phi_one)[0])
    B = float(profile.interp(1.0))
    log_t, log_f, _ = profile._memo.get(
        ("exponent", w, n, report.panels.tobytes()), r, lambda x:
        _quadrature.log_prefix(report.panels, x))
    with np.errstate(over="ignore"):
        log_bound = math.log(B) + lam2 * (A * np.exp(log_f) + np.exp(log_t))
        bound = np.exp(np.minimum(log_bound, 700.0))
        bound[log_bound > 700.0] = math.inf
    log_vals = profile._log_raw(r) - math.log(profile._scale)
    satisfied = bool(np.all(log_vals <= log_bound + math.log1p(1e-8)))
    return bound, satisfied


def export_metadata_json(profiles, path):
    """profiles.json: each profile's metadata, written like every report."""
    write_json_atomic([p.metadata() for p in profiles], path)
