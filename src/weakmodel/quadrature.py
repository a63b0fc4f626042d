"""Adaptive Gauss-Kronrod quadrature in log space.

It integrates exp(logf) for positive integrands whose values under- or
overflow double precision (powers of the warping function for large n).
Panel sums are evaluated with log-sum-exp so only the final exponentiation
can underflow, never the bookkeeping.  `kronrod_panel_log`,
the one log-space K15 kernel, takes arrays of intervals and calls logf once
for all of them, and `LogCumulative.log_between` makes one such call per
block of 256 limits, with no per-limit loop.

`adaptive_quad_log` bisects worst-first, one panel per step, but refines
ahead: when the popped panel's halves are not yet known, one kernel call
computes the halves and quarters of it and of every live panel whose error
exceeds the mean share of the tolerance.  Later steps take their halves from
that store.  The kernel and every integrand here work point by point, so the
steps, the panels and the totals are those of one integrand call per split,
bit for bit; only the number of calls falls.

`cumulative_simpson` is the composite Simpson rule at equal steps that
the growth-bound check of `radial.lemma_bound_check` integrates with.

`logsumexp` is the plain stable form max + log(sum(exp(a - max))) in numpy.
It agrees with `scipy.special.logsumexp` to a few ulp, at a fraction of the
per-call overhead on the short arrays this module sums.
"""

from __future__ import annotations

import math
from collections import namedtuple

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


_LogPanel = namedtuple("_LogPanel", "a b log_val log_err")


def _log_panels(logf, a, b):
    """The K15 panels on the intervals [a_i, b_i], from one call of logf."""
    return list(map(_LogPanel, a, b, *kronrod_panel_log(logf, a, b)))


def _check_limits(a, b):
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration limits must be finite, got [{a:g}, {b:g}]")


def _refine_ahead(logf, batch, ahead):
    """Halves and quarters of every panel in batch, from one call of logf.

    The halves of each panel go into ahead under its key (a, b), and its
    quarters under the keys of its halves; the halves of batch[0] are taken
    out again and returned.
    """
    a = np.array([p.a for p in batch])
    b = np.array([p.b for p in batch])
    mid = 0.5 * (a + b)
    lo, hi = 0.5 * (a + mid), 0.5 * (mid + b)
    rows = _log_panels(logf, np.column_stack([a, mid, a, lo, mid, hi]).ravel(),
                       np.column_stack([mid, b, lo, mid, hi, b]).ravel())
    for k, p in enumerate(batch):
        h1, h2, q1, q2, q3, q4 = rows[6 * k:6 * k + 6]
        ahead[p.a, p.b] = h1, h2
        ahead[h1.a, h1.b] = q1, q2
        ahead[h2.a, h2.b] = q3, q4
    return ahead.pop((batch[0].a, batch[0].b))


def adaptive_quad_log(logf, a, b, rtol=1e-10, max_panels=2000, min_panels=1):
    """Adaptive K15 for a positive integrand given as logf.

    Returns (log value, log error bound, sorted panel list).  Each step
    bisects the panel with the largest error, the first in list order on a
    tie.  Its halves come from `ahead`, which maps an interval (a, b) to its
    two halves; on a miss one kernel call refines it and every other live
    panel above the mean error share two levels deep.  The kernel computes
    each row on its own, so when logf evaluates each point on its own, as
    every integrand in this package does, the result has the bits of one
    call per split.  Non-finite limits raise ValueError.
    """
    _check_limits(a, b)
    if b <= a:
        return -math.inf, -math.inf, []
    edges = np.linspace(a, b, min_panels + 1)
    panels = _log_panels(logf, edges[:-1], edges[1:])
    log_rtol = math.log(rtol)
    ahead = {}
    while True:
        log_total = logsumexp([p.log_val for p in panels])
        log_err = logsumexp([p.log_err for p in panels])
        if log_err <= log_total + log_rtol or log_err == -math.inf:
            break
        if len(panels) >= max_panels:
            raise QuadratureFailure(
                f"log-space quadrature on [{a:g}, {b:g}] exceeded {max_panels} panels"
            )
        share = log_total + log_rtol - math.log(len(panels))
        worst = max(range(len(panels)), key=lambda i: panels[i].log_err)
        p = panels.pop(worst)
        halves = ahead.pop((p.a, p.b), None)
        if halves is None:
            halves = _refine_ahead(logf, [p] + [
                q for q in panels if q.log_err > share and (q.a, q.b) not in ahead
            ], ahead)
        panels += halves
    panels.sort(key=lambda p: p.a)
    return float(log_total), float(log_err), panels


class LogCumulative:
    """Panelized log of integrals of a positive integrand over [lo, hi].

    Supports log(int_x^y exp(logf)) for arbitrary lo <= x <= y <= hi without
    forming the (possibly overflowing) linear values.  `log_err` is the log
    of the K15-G7 error estimate of the whole integral.
    """

    def __init__(self, logf, lo, hi, rtol=1e-11, max_panels=4000):
        _check_limits(lo, hi)
        self.logf = logf
        self.lo = float(lo)
        self.hi = float(hi)
        if hi <= lo:
            self.panels = []
            self.log_total = self.log_err = -math.inf
            self._starts = np.array([])
            return
        log_total, log_err, panels = adaptive_quad_log(
            logf, lo, hi, rtol=rtol, max_panels=max_panels, min_panels=8)
        self.panels = panels
        self.log_total = log_total
        self.log_err = log_err
        self._starts = np.array([p.a for p in panels])
        self._ends = np.array([p.b for p in panels])
        self._log_vals = np.array([p.log_val for p in panels])

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
        live = np.flatnonzero(ys > xs) if self.panels else []
        for k in range(0, len(live), _ROW_BLOCK):
            rows = live[k:k + _ROW_BLOCK]
            out.flat[rows] = self._log_rows(xs.ravel()[rows], ys.ravel()[rows])
        return float(out) if out.ndim == 0 else out

    def _log_rows(self, x, y):
        """`log_between` of 1-D arrays of limits with lo <= x < y <= hi."""
        i = np.searchsorted(self._starts, x, side="right") - 1
        j = np.searchsorted(self._starts, y, side="right") - 1
        one = i == j   # x and y in one panel: the head is all of [x, y]
        cut_head = one | (x > self._starts[i])
        cut_tail = ~one & (y > self._starts[j])
        part = kronrod_panel_log(
            self.logf,
            np.concatenate([x[cut_head], self._starts[j[cut_tail]]]),
            np.concatenate([np.where(one, y, self._ends[i])[cut_head],
                            y[cut_tail]]), err=False)
        head = self._log_vals[i]
        head[cut_head] = part[:np.count_nonzero(cut_head)]
        tail = np.full(len(x), -math.inf)
        tail[cut_tail] = part[np.count_nonzero(cut_head):]
        cols = np.arange(len(self.panels))
        between = (cols > i[:, None]) & (cols < j[:, None])
        return _logsumexp_rows(np.column_stack(
            [head, np.where(between, self._log_vals, -math.inf), tail]))
