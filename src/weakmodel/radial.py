"""Radial mode profiles: the ODE, its bound structure, and normalization.

For each cross-section eigenvalue lambda^2 the radial factor phi_m solves

    phi_m'' + (n-1) (phi'/phi) phi_m' - (lambda^2/phi^2) phi_m = 0,

is launched at a small r0 from its r^l leading behaviour (l the positive
indicial root), and is nondecreasing and positive.  Integration runs on the
log-log system (u, w) = (log phi_m, r phi_m'/phi_m), which is regular at the
origin and immune to amplitude overflow:

    du/ds = w,   dw/ds = w + lambda^2 (r/phi)^2 - (n-1) (r phi'/phi) w - w^2,

with s = log r, by the package's DOP853 (`dop853.solve_ivp`), one system for
all the modes of an extension.  The substitution
x = phi^{n-1} phi_m' / (lambda^2 phi_m) turns the equation into
x' + (lambda^2/phi^{n-1}) x^2 = phi^{n-3}, which yields the verified growth
bound

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
from dataclasses import dataclass, replace

import numpy as np

from . import criterion as _criterion
from . import quadrature as _quadrature
from .dop853 import solve_ivp
from .errors import (DegenerateProfile, NonPositiveWarp, OutOfDomain,
                     OutOfRange, QuadratureFailure, StepSizeUnderflow,
                     TailNotTight)
from .report import round_up_3, write_json_atomic
from .spectrum import EigenMode
from .warp import WarpingFunction

_DEFAULT_R0 = 1e-3
_GRID_SIZE = 800
_TAIL_DELTA = 1.25e-5
_FD_STEP = 2e-2
_MASTER_NODES = 16385
_TAU_RTOL = 1e-12


def indicial_exponent(n: int, lambda_sq: float) -> float:
    """Positive root l of l(l-1) + (n-1)l - lambda^2 = 0."""
    if lambda_sq < 0:
        raise ValueError(f"lambda^2 must be >= 0, got {lambda_sq}")
    return 0.5 * (-(n - 2) + math.sqrt((n - 2) ** 2 + 4.0 * lambda_sq))


@dataclass
class RadialProfile:
    mode: EigenMode
    n: int
    warp: WarpingFunction
    indicial_l: float
    grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    limit_estimate: float      # math.inf when the mode is unbounded
    limit_error: float
    normalized: bool
    r0: float
    _dense: object = None      # s = log r -> (log raw phi_m, r phi_m'/phi_m), or None
    _scale: float = 1.0        # divisor applied to the raw solution

    @property
    def r_max(self):
        return float(self.grid[-1])

    def _solution(self, r):
        """The dense rows (log raw phi_m, r phi_m'/phi_m) at r; a profile read
        from samples has none, since interpolating them pierces the growth
        bound where it touches phi_m."""
        if self._dense is None:
            raise DegenerateProfile(
                f"the m = {self.mode.m} profile read from samples is its grid "
                "and values only; solve the mode to evaluate it between them")
        return self._dense(np.log(r))

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
        if self.mode.m == 0:
            out[:] = self.values[0]
            return float(out[0]) if scalar else out
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
        """r,phi_m,dphi_m at 15 significant digits, as np.savetxt writes them."""
        data = np.column_stack([self.grid, self.values, self.derivs])
        with open(path, "w") as fh:
            fh.write("r,phi_m,dphi_m\n" + ("%.15g,%.15g,%.15g\n" * len(data))
                     % tuple(data.ravel().tolist()))

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


def load_profile_csv(path, mode: EigenMode, n: int, warp: WarpingFunction,
                     metadata=None) -> RadialProfile:
    """Rebuild a profile from exported samples: its grid, values and
    derivatives, with no dense solution, so `interp` and `riccati_x`
    refuse an m >= 1 profile read this way."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    lim = math.inf
    lim_err = 0.0
    normalized = False
    if metadata:
        raw = metadata.get("limit_estimate", math.inf)
        lim = math.inf if raw == "Unbounded" else float(raw)
        lim_err = float(metadata.get("limit_error", 0.0))
        normalized = bool(metadata.get("normalized", False))
    return RadialProfile(
        mode=mode, n=n, warp=warp,
        indicial_l=indicial_exponent(n, mode.lambda_sq),
        grid=data[:, 0], values=data[:, 1], derivs=data[:, 2],
        limit_estimate=lim, limit_error=lim_err, normalized=normalized,
        r0=float(data[0, 0]))


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------

def _cubic_beta(w: WarpingFunction) -> float:
    """beta3 of phi = r + beta3 r^3 + O(r^5), by a finite difference at 1e-2.

    Recovered numerically so that tabulated data works too; 0 when the warp
    cannot be evaluated there.
    """
    h = 1e-2
    try:
        phi_h = float(w.eval(h)[0])
    except Exception:
        return 0.0
    return (phi_h - h) / h ** 3


def _launch_state(n, l, lam2, beta3, r_launch):
    """(u, w) at r_launch from phi_m ~ r^l (1 + kappa2 r^2)."""
    kappa2 = -beta3 * (l * (n - 1) + lam2) / (2.0 * l + n)
    u0 = l * math.log(r_launch) + math.log1p(kappa2 * r_launch ** 2)
    w0 = (l + (l + 2) * kappa2 * r_launch ** 2) / (1.0 + kappa2 * r_launch ** 2)
    return u0, w0


def _check_warp_on_grid(w: WarpingFunction, grid):
    """Refuse a grid where phi <= 0, or where phi overflows double precision."""
    with np.errstate(over="ignore"):
        phi = np.asarray(w.eval(grid)[0], dtype=float)
    span = f"inside [{grid[0]:g}, {grid[-1]:g}]"
    if np.any(phi <= 0):
        raise NonPositiveWarp(f"phi({grid[np.argmax(phi <= 0)]:g}) <= 0 {span}")
    if not np.all(np.isfinite(phi)):
        bad = grid[np.argmax(~np.isfinite(phi))]
        raise OutOfDomain(f"phi overflows double precision at r = {bad:g} "
                          f"{span}; the radial solve needs a smaller r_max")


def _constant_profile(w, n, mode, grid):
    """The m = 0 profile: the constant 1, normalized and exact."""
    return RadialProfile(
        mode=mode, n=n, warp=w, indicial_l=0.0, grid=grid,
        values=np.ones_like(grid), derivs=np.zeros_like(grid),
        limit_estimate=1.0, limit_error=0.0, normalized=True,
        r0=float(grid[0]))


def _mode_rows(dense, j):
    """The (u, w) rows of the j-th solved mode in a stacked dense solution."""
    return lambda s: dense(s)[2 * j:2 * j + 2]


def _mode_rhs(w: WarpingFunction, n: int, lam2: np.ndarray):
    """(evaluate_stages, rhs) of the stacked (u, w) system of the modes lam2.

    evaluate_stages(ts) evaluates the warp once, at all the times of a step
    attempt, and keeps (r, phi, phi') there as floats.  rhs(s, y) reads them
    for s, evaluating the warp at s alone for the initial step's two calls,
    and works float by float in numpy's order, so its bits are those of the
    array expression
    `ww + lam2 * rho * rho - (n - 1) * (rho * dphi) * ww - ww * ww`.
    """
    lam2 = lam2.tolist()
    stages = {}

    def evaluate_stages(ts):
        rs = [math.exp(s) for s in ts]
        phi, dphi, _ = w.eval(np.array(rs))
        stages.clear()
        stages.update(zip(ts, zip(rs, phi.tolist(), dphi.tolist())))

    def rhs(s, y):
        if s not in stages:   # the initial step's two calls
            evaluate_stages([s])
        r, phi, dphi = stages[s]
        if phi <= 0:
            raise NonPositiveWarp(f"phi({r:g}) = {phi:g} <= 0")
        rho = r / phi
        damp = (n - 1) * (rho * dphi)
        dy = []
        for wj, lj in zip(y[1::2].tolist(), lam2):
            dy += (wj, wj + lj * rho * rho - damp * wj - wj * wj)
        return np.array(dy)

    return evaluate_stages, rhs


def solve_modes(w: WarpingFunction, n: int, modes, r_max: float = 30.0,
                tol: float = 1e-10, r0: float | None = None,
                grid_size: int = _GRID_SIZE) -> list[RadialProfile]:
    """Solve the radial mode equation of every mode on one [r0, r_max].

    Returns the raw profiles in the order of `modes`.  An m = 0 mode
    short-circuits to the constant 1.  All other modes are integrated as one
    DOP853 system whose state stacks their (u, w) pairs, and the warp is
    evaluated once per step attempt, at all its stage times, for the whole
    stack.  They are returned unnormalized with an unbounded limit estimate,
    and `normalize_profile` rescales a convergent one to limit 1.
    """
    grid = np.geomspace(r0 or _DEFAULT_R0, r_max, grid_size)
    profiles = [_constant_profile(w, n, mode, grid) if mode.m == 0 else None
                for mode in modes]
    solved = [i for i, mode in enumerate(modes) if mode.m != 0]
    if not solved:
        return profiles

    r_launch = r0 or _DEFAULT_R0
    if r_max <= 1.0:
        raise ValueError(f"r_max must exceed 1, got {r_max}")
    _check_warp_on_grid(w, grid)
    beta3 = _cubic_beta(w)
    ls = [indicial_exponent(n, modes[i].lambda_sq) for i in solved]
    y0 = [v for i, l in zip(solved, ls)
          for v in _launch_state(n, l, modes[i].lambda_sq, beta3, r_launch)]
    evaluate_stages, rhs = _mode_rhs(
        w, n, np.array([modes[i].lambda_sq for i in solved]))

    # near-pure relative control on w: it decays doubly-exponentially for
    # fast-growing phi and x = phi^{n-1} w/(lambda^2 r) re-amplifies any
    # absolute error floor, so w must stay relatively accurate
    sol = solve_ivp(rhs, (math.log(r_launch), math.log(r_max)), y0,
                    rtol=min(max(tol * 1e-3, 1e-13), 1e-8),
                    atol=[1e-12, 1e-290] * len(solved),
                    before_attempt=evaluate_stages)
    if not sol.success:
        raise StepSizeUnderflow(f"radial integration failed: {sol.message}")

    stack = sol.sol(np.log(grid))
    for j, (i, l) in enumerate(zip(solved, ls)):
        values = np.exp(stack[2 * j])
        derivs = values * stack[2 * j + 1] / grid
        profiles[i] = RadialProfile(
            mode=modes[i], n=n, warp=w, indicial_l=l, grid=grid, values=values,
            derivs=derivs, limit_estimate=math.inf, limit_error=math.inf,
            normalized=False, r0=float(grid[0]), _dense=_mode_rows(sol.sol, j))
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

    tau is one LogCumulative of r/phi in s = log r over [log r0, log R],
    plus the midpoint of the certified transience tail bracket at R.
    `error` bounds |tau - exact| by the bracket's half-width plus the
    cumulative's K15-G7 estimate.  A call remembers its points and values,
    so the modes of one extension asked at the same radii share one tau;
    the memo is one tuple, replaced whole, so concurrent calls stay right.
    """

    def __init__(self, w: WarpingFunction, r0: float, R: float, log_inner):
        self.S = math.log(R)
        self.cum = _quadrature.LogCumulative(
            lambda s: s - w.log_phi(np.exp(s)), math.log(r0), self.S,
            rtol=_TAU_RTOL)
        lo, hi = math.exp(log_inner[0]), math.exp(log_inner[1])
        self.tail = 0.5 * (lo + hi)
        self.error = 0.5 * (hi - lo) + math.exp(self.cum.log_err)
        self._memo = None   # (s, tau, r/phi) of the last call

    def __call__(self, s):
        """(tau, r/phi) at s = log r."""
        s = np.asarray(s, dtype=float)
        memo = self._memo
        if memo is None or not np.array_equal(memo[0], s):
            tau = self.tail + np.exp(self.cum.log_between(s, self.S))
            rho = np.exp(self.cum.logf(s))
            self._memo = memo = (s.copy(), tau, rho)
        return memo[1], memo[2]


def _conformal_rows(tau: _ConformalTime, lam: float):
    """The (log phi_m, r phi_m'/phi_m) rows of exp(-lam tau), like `_dense`."""
    def dense(s):
        t, rho = tau(s)
        return np.stack([-lam * t, lam * rho])
    return dense


def conformal_modes(w: WarpingFunction, modes,
                    r_max: float) -> list[RadialProfile]:
    """The normalized n = 2 profiles exp(-lambda tau) of every mode.

    The grid is the one `solve_modes` uses, with R = r_max raised to the
    start of the tail sandwich, as for a tail certificate; there is no ODE
    solve and no search for R.  All modes share one tau, and each mode's
    limit_error is lambda times tau's error bound, which bounds
    |phi_m - exact| on the whole range.  Without an m >= 1 mode no tail is
    needed and R is r_max.
    """
    if all(mode.m == 0 for mode in modes):
        return solve_modes(w, 2, modes, r_max)
    R, log_inner = _criterion.inner_tail(w, 2, r_max)
    grid = np.geomspace(_DEFAULT_R0, R, _GRID_SIZE)
    _check_warp_on_grid(w, grid)
    tau = _ConformalTime(w, _DEFAULT_R0, R, log_inner)
    t, rho = tau(np.log(grid))
    profiles = []
    for mode in modes:
        if mode.m == 0:
            profiles.append(_constant_profile(w, 2, mode, grid))
            continue
        lam = math.sqrt(mode.lambda_sq)
        values = np.exp(-lam * t)
        profiles.append(RadialProfile(
            mode=mode, n=2, warp=w, indicial_l=indicial_exponent(2, mode.lambda_sq),
            grid=grid, values=values, derivs=lam * values * rho / grid,
            limit_estimate=1.0, limit_error=lam * tau.error, normalized=True,
            r0=float(grid[0]), _dense=_conformal_rows(tau, lam)))
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
        lambda r: (n - 3) * w.log_phi(r), 0.0, 1.0, rtol=1e-12)
    # rounded up: the K15 estimate leaves out roundoff (int_0^1 1 gives 1 - 1 ulp)
    return (math.exp(log_val) + math.exp(log_err)) * (1.0 + 1e-12)


def _tail_terms(w: WarpingFunction, n: int, lambda_sq: float, cert):
    """The growth bound's exponent beyond R over lambda^2, in its three
    parts: A*T_in(R), C(1,R)*T_in(R) and T_out(R).

    T_in and T_out are the certified single and double tails, C the
    cumulative of phi^{n-3} and A >= x(1) from the metric
    (`_riccati_bound`), so no profile is needed.
    """
    log_in_hi = cert.log_inner[1]
    return (_riccati_bound(w, n, lambda_sq) * math.exp(log_in_hi),
            math.exp(cert.log_cum + log_in_hi), cert.double[1])


def _tail_delta(w: WarpingFunction, n: int, lambda_sq: float, cert) -> float:
    """Upper bound for phi_m(inf)/phi_m(R) - 1 from the growth bound tail."""
    a_in, cross, outer = _tail_terms(w, n, lambda_sq, cert)
    return math.expm1(lambda_sq * (a_in + cross + outer))


def riccati_x(profile: RadialProfile, r) -> np.ndarray:
    """x(r) = phi^{n-1}(r) phi_m'(r) / (lambda^2 phi_m(r)), vectorized."""
    lam2 = profile.mode.lambda_sq
    if lam2 <= 0:
        raise DegenerateProfile("x is undefined for the constant mode (lambda^2 = 0)")
    n = profile.n
    w = profile.warp
    r = np.atleast_1d(np.asarray(r, dtype=float))
    shape, r = r.shape, r.ravel()
    wlog = profile._solution(r)[1]
    log_phi = np.asarray(w.log_phi(r), dtype=float)
    x = np.exp((n - 1) * log_phi + np.log(wlog) - math.log(lam2) - np.log(r))
    return x.reshape(shape)


def normalize_profile(profile: RadialProfile,
                      cert: _criterion.TailCertificate) -> RadialProfile:
    """Rescale a profile so its limit at infinity is 1.

    The limit is pinned between phi_m(R) and phi_m(R)(1 + delta), with delta
    from `cert`, the certified tail beyond the profile's own R = r_max, and
    becomes the profile's limit_error.  At n >= 3 that bounds the tail
    normalization only, not the ODE solve's own error.  Whether delta is
    small enough is the caller's choice of R (`suggest_rmax`).  Raises
    TailNotTight when the certificate starts at another radius.
    """
    if profile.mode.m == 0:
        return profile
    if cert.r_max != profile.r_max:
        raise TailNotTight(
            f"tail certificate starts at r = {cert.r_max:g}, not at the "
            f"profile's r_max = {profile.r_max:g}; solve to the certified radius")
    delta = _tail_delta(profile.warp, profile.n, profile.mode.lambda_sq, cert)
    limit = profile.values[-1] * (1.0 + delta)
    return replace(
        profile,
        values=profile.values / limit,
        derivs=profile.derivs / limit,
        limit_estimate=1.0,
        limit_error=delta,
        normalized=True,
        _scale=profile._scale * limit)


def suggest_rmax(w: WarpingFunction, n: int, lambda_sq: float,
                 R: float) -> _criterion.TailCertificate:
    """Certificate at the first doubling of R whose tail delta for a mode of
    eigenvalue lambda_sq is below _TAIL_DELTA.

    Doubling starts at the certificate's own radius, which may lie above R.
    delta needs the metric and the certificates only, so no mode is solved.
    """
    for _ in range(24):
        cert = _criterion.tail_certificate(w, n, R)
        delta = _tail_delta(w, n, lambda_sq, cert)
        if delta < _TAIL_DELTA:
            return cert
        R = cert.r_max * 2.0
    a_in, cross, outer = (lambda_sq * t for t in _tail_terms(w, n, lambda_sq, cert))
    raise TailNotTight(
        f"no r_max below {R:g} reaches tail delta {_TAIL_DELTA:g}; at r_max = "
        f"{cert.r_max:g}, delta = {delta:.3g} is the expm1 of lambda^2 times "
        f"(A*T_in + C*T_in + T_out) = {a_in:.3g} + {cross:.3g} + {outer:.3g}")


# ---------------------------------------------------------------------------
# Riccati trace and growth bound verification
# ---------------------------------------------------------------------------

@dataclass
class RiccatiTrace:
    grid: np.ndarray
    x: np.ndarray
    A: float                  # x(1)
    B: float                  # phi_m(1)
    residual: np.ndarray      # x' + (lambda^2/phi^{n-1}) x^2 - phi^{n-3}
    residual_ok: bool
    inequality_ok: bool       # x'(s) <= phi^{n-3}(s) + 1e-9 pointwise


def riccati_trace(profile: RadialProfile, s_grid=None) -> RiccatiTrace:
    """Log-derivative substitution trace x(s) with its equation residual.

    x' is estimated from the solved profile by five-point central
    differences, so the residual genuinely tests the solution rather than
    restating the equation.
    """
    w = profile.warp
    n = profile.n
    lam2 = profile.mode.lambda_sq
    if lam2 <= 0:
        raise DegenerateProfile("Riccati trace needs lambda^2 > 0 (m >= 1)")
    h = _FD_STEP
    if s_grid is None:
        s_grid = np.linspace(1.0, min(profile.r_max - 2 * h, 20.0), 481)
    s_grid = np.asarray(s_grid, dtype=float)
    if (s_grid[0] - 2 * h < profile.r0
            or s_grid[-1] + 2 * h > profile.r_max * (1 + 1e-12)):
        raise DegenerateProfile("trace stencil leaves the solved range")

    # x on the grid and on its four stencil shifts, in one evaluation
    stencil = riccati_x(profile, s_grid + h * np.array([[0], [-2], [-1], [1], [2]]))
    x = stencil[0]
    if np.any(~np.isfinite(x)) or np.any(x < 0):
        raise DegenerateProfile("nonpositive phi_m or phi_m' in the trace range")
    xp = (stencil[1] - 8 * stencil[2] + 8 * stencil[3] - stencil[4]) / (12 * h)

    log_phi = np.asarray(w.log_phi(s_grid), dtype=float)
    quad_term = np.exp(math.log(lam2) + 2 * np.log(x) - (n - 1) * log_phi,
                       where=x > 0, out=np.zeros_like(x))
    source = np.exp((n - 3) * log_phi)
    residual = xp + quad_term - source
    residual_ok = bool(np.all(np.abs(residual) <= 1e-6 * (1.0 + source)))
    inequality_ok = bool(np.all(xp <= source + 1e-9))
    A = float(x[np.argmin(np.abs(s_grid - 1.0))])
    B = float(profile.interp(1.0))
    return RiccatiTrace(grid=s_grid, x=x, A=A, B=B, residual=residual,
                        residual_ok=residual_ok, inequality_ok=inequality_ok)


def lemma_bound_check(profile: RadialProfile, trace: RiccatiTrace):
    """Verify phi_m(s) <= B exp(int_1^s lambda^2/phi^{n-1} (A + int_1^t phi^{n-3})).

    Returns (bound curve on trace.grid, satisfied flag).  The nested
    quadrature uses only the warping function, hence is independent of the
    ODE solver: `quadrature.cumulative_simpson` on a 16,385-node master grid
    of equal steps for both the inner cumulative C(t) = int_1^t phi^{n-3}
    and the outer exponent.
    """
    w = profile.warp
    n = profile.n
    lam2 = profile.mode.lambda_sq
    s_grid = trace.grid
    s_end = float(s_grid[-1])

    if lam2 == 0:
        bound = np.full_like(s_grid, trace.B)
        ok = bool(np.all(profile.interp(s_grid) <= bound * (1 + 1e-8)))
        return bound, ok

    master = np.linspace(1.0, s_end, _MASTER_NODES)
    log_phi = np.asarray(w.log_phi(master), dtype=float)
    if (n - 3) * np.max(log_phi) > 700.0:
        raise QuadratureFailure(
            "phi^{n-3} overflows double precision on the trace range; "
            "reduce the trace grid extent")
    step = (s_end - 1.0) / (_MASTER_NODES - 1)
    src = np.exp((n - 3) * log_phi)
    C = _quadrature.cumulative_simpson(src, step)
    h = lam2 * np.exp(-(n - 1) * log_phi) * (trace.A + C)
    H = _quadrature.cumulative_simpson(h, step)
    H_at = np.interp(s_grid, master, H)
    log_bound = math.log(trace.B) + H_at
    with np.errstate(over="ignore"):
        bound = np.exp(np.minimum(log_bound, 700.0))
        bound[log_bound > 700.0] = math.inf
    log_vals = profile._log_raw(s_grid) - math.log(profile._scale)
    satisfied = bool(np.all(log_vals <= log_bound + math.log1p(1e-8)))
    return bound, satisfied


def export_metadata_json(profiles, path):
    """profiles.json: each profile's metadata, written like every report."""
    write_json_atomic([p.metadata() for p in profiles], path)
