"""Adaptive Gauss-Kronrod quadrature in log space.

It integrates exp(logf) for positive integrands whose values under- or
overflow double precision (powers of the warping function for large n).
Panel sums are evaluated with log-sum-exp so only the final exponentiation
can underflow, never the bookkeeping.  `kronrod_panel_log`, the K15 kernel
of one integrand, calls logf once for arrays of intervals, and
`LogCumulative.log_between` makes one such call per block of 256 limits.

`adaptive_quad_log` is the one adaptive loop, over panel triples: one call
of logf on a K15 panel [a_k, b_k] gives, for f = exp(q_out logf) and
h = exp(q_in logf), I_k = int h, A_k = int f and B_k = int f(x) int_{a_k}^x h,
the inner partials at the nodes from their Legendre integration matrix
(Greengard, "Spectral integration and two-point boundary value problems",
SIAM J. Numer. Anal. 28, 1991).  With P_k = sum_{j<k} I_j the triangle
int f(x) int^x h is sum (P_k A_k + B_k), and its panel error
P_k eA_k + eI_k A_{>k} + eB_k carries the inner one; eI and eA are
K15 - G7, eB is B less its form on the 7 Gauss nodes.  One integral of
exp(logf) is A at q = (1, 0).

`cumulative_simpson` is the composite Simpson rule at equal steps that
the growth-bound check of `radial.lemma_bound_check` integrates with.

`logsumexp` is the plain stable form max + log(sum(exp(a - max))) in numpy.
It agrees with `scipy.special.logsumexp` to a few ulp, at a fraction of the
per-call overhead on the short arrays this module sums.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureFailure

# 15-point Kronrod nodes on [-1, 1] with Kronrod and embedded Gauss-7 weights.
_XK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0,
    0.2077849550078985, 0.4058451513773972, 0.5860872354676911,
    0.7415311855993945, 0.8648644233597691, 0.9491079123427585,
    0.9914553711208126,
])
_WK = np.array([
    0.02293532201052922, 0.06309209262997855, 0.10479001032225018,
    0.14065325971552592, 0.16900472663926790, 0.19035057806478540,
    0.20443294007529889, 0.20948214108472782,
    0.20443294007529889, 0.19035057806478540, 0.16900472663926790,
    0.14065325971552592, 0.10479001032225018, 0.06309209262997855,
    0.02293532201052922,
])
_WG = np.array([
    0.0, 0.12948496616886969, 0.0, 0.27970539148927664, 0.0,
    0.38183005050511894, 0.0, 0.41795918367346938, 0.0,
    0.38183005050511894, 0.0, 0.27970539148927664, 0.0,
    0.12948496616886969, 0.0,
])

_LOG_WK = np.log(_WK)
_WK_G7 = _WK - _WG


def _integration_matrix(x):
    """S with (S @ y)_i = int_{-1}^{x_i} p, p the polynomial of degree len(x) - 1
    through (x, y), in Legendre P_k: int_{-1}^x P_k = (P_k+1 - P_k-1)/(2k + 1)."""
    P = [np.ones_like(x), x]
    for k in range(1, len(x)):
        P.append(((2 * k + 1) * x * P[k] - k * P[k - 1]) / (k + 1))
    partials = [x + 1.0] + [(P[k + 1] - P[k - 1]) / (2 * k + 1) for k in range(1, len(x))]
    return np.linalg.solve(np.array(P[:-1]), np.array(partials)).T


_S15 = _integration_matrix(_XK)
_S7 = _integration_matrix(_XK[1::2])
_WG7 = _WG[1::2]

# limits of one log_between kernel call and head/between/tail matrix
_ROW_BLOCK = 256


def logsumexp(a):
    """log(sum(exp(a))) of a 1-D sequence; -inf if it is empty."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return -math.inf
    m = a.max()
    if not math.isfinite(m):
        return float(m)   # all -inf, or a +inf or nan term decides the sum
    return float(m + np.log(np.exp(a - m).sum()))


def _logsumexp_rows(a):
    """`logsumexp` of each row of a 2-D array."""
    m = a.max(axis=1)
    out = m.copy()   # kept for rows that are all -inf or hold +inf or nan
    ok = np.isfinite(m)
    out[ok] += np.log(np.exp(a[ok] - m[ok, None]).sum(axis=1))
    return out


def kronrod_panel_log(logf, a, b, err=True):
    """K15 panels for the integrand exp(logf); returns (log value, log error).

    a and b are the ends of one interval, or equal-length arrays of intervals.
    The nodes of all intervals go to logf in one call; the result is a pair
    of floats for one interval and a pair of arrays for arrays.  With
    err=False the K15-G7 estimate is skipped and only the log values are
    returned, with the same bits.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[..., None] + half[..., None] * _XK
    g = np.asarray(logf(x.ravel()), dtype=float).reshape(-1, len(_XK))
    s = _LOG_WK + g
    top = s.max(axis=1, keepdims=True)
    log_half = np.log(half)
    with np.errstate(invalid="ignore", divide="ignore"):   # rows set to -inf below
        log_val = log_half + (top[:, 0] + np.log(np.exp(s - top).sum(axis=1)))
        if err:
            # K15 - G7 is roundoff-sized: one dot per row keeps its bits stable
            m = g.max(axis=1, keepdims=True)
            diff = np.abs([np.dot(_WK_G7, e) for e in np.exp(g - m)])
            log_err = log_half + m[:, 0] + np.where(diff > 0.0, np.log(diff), -745.0)
    zero = ~np.isfinite(top[:, 0])   # logf all -inf (or +inf or nan): counted as zero
    log_val[zero] = -math.inf
    if not err:
        return float(log_val[0]) if a.ndim == 0 else log_val
    log_err[zero] = -math.inf
    if a.ndim == 0:
        return float(log_val[0]), float(log_err[0])
    return log_val, log_err


def cumulative_simpson(y, h):
    """int_0^{ih} y for samples y[i] at equal steps h, at least 3 of them,
    by the composite Simpson rule; the first value is 0.

    Subinterval i integrates the parabola through nodes i, i+1 and i+2,
    h/12 (5, 8, -1), when i is even and not the last, else the one through
    nodes i-1, i and i+1, h/12 (-1, 8, 5).
    """
    heads = h / 12 * (5 * y[:-2] + 8 * y[1:-1] - y[2:])
    tails = h / 12 * (5 * y[2:] + 8 * y[1:-1] - y[:-2])
    sub = np.empty(len(y) - 1)
    sub[:-1:2] = heads[::2]
    sub[1::2] = tails[::2]
    sub[-1] = tails[-1]
    # + 0.0 turns a -0.0 sum into 0.0
    return np.concatenate(([0.0], np.cumsum(sub) + 0.0))


def _check_limits(a, b):
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration limits must be finite, got [{a:g}, {b:g}]")


def _with_rounding(log_val, log_est, size):
    """(log error, log splittable error) of panels whose log integrand
    reaches `size`: its rounding moves the value by nu = 4 eps (size + 1),
    a floor on the K15-G7 estimate that no split lowers, so a panel at it
    has nothing to split (-inf) unless nu >= 2^-20."""
    nu = np.minimum(2.0 ** -50 * (size + 1.0), 1.0)
    log_floor = log_val + np.log(nu)
    with np.errstate(invalid="ignore"):   # -inf - -inf: nan, not splittable
        fixable = (log_est > log_floor) | (nu >= 2.0 ** -20)
    return np.logaddexp(log_est, log_floor), np.where(fixable, log_est, -math.inf)


def _triple_rows(logf, q_out, q_in, a, b):
    """Per panel [a_i, b_i] the logs of (I, A, B), of their errors and of
    their splittable errors (`_with_rounding`), from one call of logf; every
    sum runs along its own row."""
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _XK
    g = np.asarray(logf(x.ravel()), dtype=float).reshape(-1, len(_XK))
    with np.errstate(invalid="ignore", divide="ignore"):   # zero rows: -inf below
        lf, lh = q_out * g, q_in * g if q_in else np.zeros_like(g)   # no 0 * -inf
        mf, mh = lf.max(axis=1), lh.max(axis=1)
        f, h = np.exp(lf - mf[:, None]), np.exp(lh - mh[:, None])
        inner = np.einsum("kj,ij->ki", h, _S15)   # int_{-1}^{x_i} h, unscaled
        inner7 = np.einsum("kj,ij->ki", h[:, 1::2], _S7)
        b15 = np.einsum("kj,kj,j->k", f, inner, _WK)
        sums = np.column_stack([
            np.einsum("kj,j->k", h, _WK), np.einsum("kj,j->k", f, _WK), b15,
            np.einsum("kj,j->k", h, _WK_G7), np.einsum("kj,j->k", f, _WK_G7),
            b15 - np.einsum("kj,kj,j->k", f[:, 1::2], inner7, _WG7)])
        log_half = np.log(half)[:, None]
        scale = np.column_stack([mh, mf, mf + mh + log_half[:, 0]])
        logs = log_half + np.tile(scale, 2) + np.log(np.abs(sums))
    logs[~np.isfinite(mf + mh)] = -math.inf   # logf all -inf (or +inf or nan)
    size = np.column_stack([np.abs(mh), np.abs(mf), np.abs(mf) + np.abs(mh)])
    return np.column_stack([logs[:, :3], *_with_rounding(logs[:, :3], logs[:, 3:], size)])


def _triangle_columns(log_vals, log_errs):
    """Per panel, in order, the log values and log errors of the triangle,
    int f and int h, from those of (I, A, B): two (k, 3) arrays."""
    (log_i, log_a, log_b), (log_ei, log_ea, log_eb) = log_vals.T, log_errs.T
    log_p = np.r_[-math.inf, np.logaddexp.accumulate(log_i)[:-1]]
    log_after = np.r_[np.logaddexp.accumulate(log_a[::-1])[-2::-1], -math.inf]
    tri = np.logaddexp(log_p + log_a, log_b)
    tri_err = np.logaddexp(np.logaddexp(log_p + log_ea, log_ei + log_after), log_eb)
    return (np.column_stack([tri, log_a, log_i]),
            np.column_stack([tri_err, log_ea, log_ei]))


def adaptive_quad_log(logf, edges, rtol=1e-10, max_panels=2000, triangle=None):
    """Adaptive K15 of exp(logf) in log space, from the panels between `edges`.

    Returns (log value, log error, panels), panels a record array in order
    with fields a, b, log_val, log_err and log_fix (the splittable error).
    With triangle = (q_out, q_in) the panels are triples (module notes), and
    the logs are arrays for the triangle, int f and int h.  Each round
    splits into quarters, in one kernel call, the worst panel and every one
    whose splittable error exceeds rtol/k of a column's total, until each
    column's is within rtol of its total, a difference of logs: at a log
    total near -4e17 one ulp is 64.  It raises QuadratureFailure past
    max_panels or where a panel cannot be split.  Edges that do not
    increase give the empty result; non-finite ones raise ValueError.
    """
    edges = np.asarray(edges, dtype=float)
    _check_limits(edges[0], edges[-1])
    q = triangle or (1, 0)
    columns = _triangle_columns if triangle else lambda v, e: (v[:, 1:2], e[:, 1:2])
    log_total = log_err = np.full(1 if triangle is None else 3, -math.inf)
    a, b = (edges[:-1], edges[1:]) if edges[-1] > edges[0] else (edges[:0], edges[:0])
    rows = _triple_rows(logf, *q, a, b) if len(a) else np.empty((0, 9))
    where = f"log-space quadrature on [{edges[0]:g}, {edges[-1]:g}]"
    while len(rows):
        vals, fixable = columns(rows[:, :3], rows[:, 6:])
        log_total = _logsumexp_rows(vals.T)
        with np.errstate(invalid="ignore"):   # -inf - -inf: nan, counted as met
            if not np.any(_logsumexp_rows(fixable.T) - log_total > math.log(rtol)):
                break
            excess = np.where(fixable == -math.inf, -math.inf,
                              fixable - log_total).max(axis=1)
        if len(a) >= max_panels:
            raise QuadratureFailure(f"{where} exceeded {max_panels} panels")
        split = excess > math.log(rtol / len(a))
        split[np.argmax(excess)] = True
        lo, hi = a[split], b[split]
        mid = 0.5 * (lo + hi)
        cuts = np.column_stack([lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi])
        flat = (np.diff(cuts, axis=1) <= 0.0).any(axis=1)
        if flat.any():
            raise QuadratureFailure(f"{where} cannot split the panel at {lo[flat][0]:g} "
                                    "below rounding")
        qa, qb = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
        order = np.argsort(np.r_[a[~split], qa], kind="stable")
        a, b = np.r_[a[~split], qa][order], np.r_[b[~split], qb][order]
        rows = np.concatenate([rows[~split], _triple_rows(logf, *q, qa, qb)])[order]
    if len(rows):
        log_err = _logsumexp_rows(columns(rows[:, :3], rows[:, 3:6])[1].T)
    logs, shape = (np.split(rows, 3, axis=1), (3,)) if triangle else (rows[:, 1::3].T, ())
    panels = np.rec.fromarrays([a, b, *logs], dtype=[("a", float), ("b", float)] + [
        (field, float, shape) for field in ("log_val", "log_err", "log_fix")])
    if triangle is None:
        return float(log_total[0]), float(log_err[0]), panels
    return log_total, log_err, panels


class LogCumulative:
    """Panelized log of integrals of a positive integrand over [lo, hi].

    Supports log(int_x^y exp(logf)) for arbitrary lo <= x <= y <= hi without
    forming the (possibly overflowing) linear values.  `log_err` is the log
    of the whole integral's error estimate.  The panels start from 8 equal
    ones, with edges at the `breaks` inside [lo, hi].
    """

    def __init__(self, logf, lo, hi, rtol=1e-11, max_panels=4000, breaks=()):
        _check_limits(lo, hi)
        self.logf = logf
        self.lo = float(lo)
        self.hi = float(hi)
        edges = np.linspace(lo, max(lo, hi), 9)
        inside = [x for x in breaks if lo < x < hi and x not in edges]
        self.log_total, self.log_err, self.panels = adaptive_quad_log(
            logf, np.sort(np.r_[edges, inside]), rtol=rtol, max_panels=max_panels)

    def log_between(self, x, y):
        """log of the integral over [x, y] clipped to [lo, hi]; -inf if empty.

        x and y may be arrays, broadcast against each other; the result then
        has their shape.  The limits are taken in blocks of `_ROW_BLOCK`,
        which bounds memory: one kernel call gives the partial K15 panels of
        a block, and each integral is the log-sum-exp of one row: the head
        panel, the whole panels between (the others masked with -inf), the
        tail.
        """
        xs, ys = np.broadcast_arrays(np.maximum(x, self.lo),
                                     np.minimum(y, self.hi))
        out = np.full(xs.shape, -math.inf)
        live = np.flatnonzero(ys > xs) if len(self.panels) else []
        for k in range(0, len(live), _ROW_BLOCK):
            rows = live[k:k + _ROW_BLOCK]
            out.flat[rows] = self._log_rows(xs.ravel()[rows], ys.ravel()[rows])
        return float(out) if out.ndim == 0 else out

    def _log_rows(self, x, y):
        """`log_between` of 1-D arrays of limits with lo <= x < y <= hi."""
        i = np.searchsorted(self.panels.a, x, side="right") - 1
        j = np.searchsorted(self.panels.a, y, side="right") - 1
        one = i == j   # x and y in one panel: the head is all of [x, y]
        cut_head = one | (x > self.panels.a[i])
        cut_tail = ~one & (y > self.panels.a[j])
        part = kronrod_panel_log(
            self.logf,
            np.concatenate([x[cut_head], self.panels.a[j[cut_tail]]]),
            np.concatenate([np.where(one, y, self.panels.b[i])[cut_head],
                            y[cut_tail]]), err=False)
        head = self.panels.log_val[i]
        head[cut_head] = part[:np.count_nonzero(cut_head)]
        tail = np.full(len(x), -math.inf)
        tail[cut_tail] = part[np.count_nonzero(cut_head):]
        cols = np.arange(len(self.panels))
        between = (cols > i[:, None]) & (cols < j[:, None])
        return _logsumexp_rows(np.column_stack(
            [head, np.where(between, self.panels.log_val, -math.inf), tail]))
