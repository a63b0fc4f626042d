"""Adaptive Gauss-Kronrod quadrature, in linear and log space.

The log-space variants integrate exp(logf) for positive integrands whose
values under- or overflow double precision (powers of the warping function
for large n).  Panel sums are evaluated with log-sum-exp so only the final
exponentiation can underflow, never the bookkeeping.

`logsumexp` is the plain stable form max + log(sum(exp(a - max))) in numpy.
It agrees with `scipy.special.logsumexp` to a few ulp, at a fraction of the
per-call overhead on the short arrays this module sums.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

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


def kronrod_panel(f, a, b):
    """Integrate f over [a, b] with K15; return (value, error estimate)."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _XK
    fx = np.asarray(f(x), dtype=float)
    k15 = half * float(np.dot(_WK, fx))
    g7 = half * float(np.dot(_WG, fx))
    return k15, abs(k15 - g7)


def kronrod_panel_log(logf, a, b):
    """K15 panel for integrand exp(logf); returns (log value, log error)."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _XK
    g = np.asarray(logf(x), dtype=float)
    log_k15 = math.log(half) + logsumexp(_LOG_WK + g)
    m = float(np.max(g))
    if not math.isfinite(m):
        # integrand identically zero (all logf = -inf)
        return -math.inf, -math.inf
    diff = float(np.dot(_WK - _WG, np.exp(g - m)))
    log_err = math.log(half) + m + (math.log(abs(diff)) if diff != 0.0 else -745.0)
    return log_k15, log_err


def adaptive_quad(f, a, b, rtol=1e-10, atol=0.0, max_panels=2000):
    """Adaptive K15 subdivision.  Returns (value, error bound)."""
    if b <= a:
        return 0.0, 0.0
    val, err = kronrod_panel(f, a, b)
    heap = [(-err, a, b, val, err)]
    total, toterr = val, err
    while toterr > max(atol, rtol * abs(total)):
        if len(heap) >= max_panels:
            raise QuadratureFailure(
                f"adaptive quadrature on [{a:g}, {b:g}] exceeded {max_panels} panels"
            )
        _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        v1, e1 = kronrod_panel(f, pa, mid)
        v2, e2 = kronrod_panel(f, mid, pb)
        total += v1 + v2 - pval
        toterr += e1 + e2 - perr
        heapq.heappush(heap, (-e1, pa, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, pb, v2, e2))
    return total, toterr


@dataclass
class _LogPanel:
    a: float
    b: float
    log_val: float
    log_err: float


def adaptive_quad_log(logf, a, b, rtol=1e-10, max_panels=2000, min_panels=1):
    """Adaptive K15 for a positive integrand given as logf.

    Returns (log value, log error bound, sorted panel list).
    """
    if b <= a:
        return -math.inf, -math.inf, []
    panels = []
    edges = np.linspace(a, b, min_panels + 1)
    for pa, pb in zip(edges[:-1], edges[1:]):
        lv, le = kronrod_panel_log(logf, pa, pb)
        panels.append(_LogPanel(pa, pb, lv, le))
    log_rtol = math.log(rtol)
    while True:
        log_total = logsumexp([p.log_val for p in panels])
        log_err = logsumexp([p.log_err for p in panels])
        if log_err <= log_total + log_rtol or log_err == -math.inf:
            break
        if len(panels) >= max_panels:
            raise QuadratureFailure(
                f"log-space quadrature on [{a:g}, {b:g}] exceeded {max_panels} panels"
            )
        worst = max(range(len(panels)), key=lambda i: panels[i].log_err)
        p = panels.pop(worst)
        mid = 0.5 * (p.a + p.b)
        lv1, le1 = kronrod_panel_log(logf, p.a, mid)
        lv2, le2 = kronrod_panel_log(logf, mid, p.b)
        panels.append(_LogPanel(p.a, mid, lv1, le1))
        panels.append(_LogPanel(mid, p.b, lv2, le2))
    panels.sort(key=lambda p: p.a)
    return float(log_total), float(log_err), panels


class LogCumulative:
    """Panelized log of integrals of a positive integrand over [lo, hi].

    Supports log(int_x^y exp(logf)) for arbitrary lo <= x <= y <= hi without
    forming the (possibly overflowing) linear values.
    """

    def __init__(self, logf, lo, hi, rtol=1e-11, max_panels=4000):
        self.logf = logf
        self.lo = float(lo)
        self.hi = float(hi)
        if hi <= lo:
            self.panels = []
            self.log_total = -math.inf
            self._starts = np.array([])
            return
        log_total, _, panels = adaptive_quad_log(
            logf, lo, hi, rtol=rtol, max_panels=max_panels, min_panels=8)
        self.panels = panels
        self.log_total = log_total
        self._starts = np.array([p.a for p in panels])
        self._log_vals = np.array([p.log_val for p in panels])

    def log_between(self, x, y):
        """log of the integral over [x, y] clipped to [lo, hi]; -inf if empty.

        x and y may be arrays, broadcast against each other; the result then
        has their shape.  The partial K15 panels of all limits are evaluated
        with one call of logf, and each integral is the log-sum-exp of its
        head panel, the whole panels between and its tail panel, in that order.
        """
        xs, ys = np.broadcast_arrays(np.maximum(x, self.lo),
                                     np.minimum(y, self.hi))
        out = np.full(xs.shape, -math.inf)
        live = np.flatnonzero(ys > xs) if self.panels else []
        if len(live):
            xc = xs.ravel()[live]
            yc = ys.ravel()[live]
            first = np.maximum(np.searchsorted(self._starts, xc, side="right") - 1, 0)
            last = np.maximum(np.searchsorted(self._starts, yc, side="right") - 1, 0)
            edges = []   # (a, b) of every partial panel
            plans = []   # per limit pair: (head, i, j, tail), head/tail index edges
            for xq, yq, i, j in zip(xc, yc, first, last):
                if i == j:
                    plans.append((len(edges), i, j, None))
                    edges.append((xq, yq))
                    continue
                head = tail = None
                if xq > self._starts[i]:
                    head = len(edges)
                    edges.append((xq, self.panels[i].b))
                if yq > self._starts[j]:
                    tail = len(edges)
                    edges.append((self._starts[j], yq))
                plans.append((head, i, j, tail))
            partial = self._log_partial_panels(edges)
            flat = out.reshape(-1)
            for q, (head, i, j, tail) in zip(live, plans):
                if i == j:
                    flat[q] = partial[head]
                    continue
                parts = [partial[head] if head is not None else self._log_vals[i]]
                parts.extend(self._log_vals[i + 1:j])
                if tail is not None:
                    parts.append(partial[tail])
                flat[q] = logsumexp(parts)
        return float(out) if out.ndim == 0 else out

    def _log_partial_panels(self, edges):
        """Log K15 values on the intervals `edges`, from one call of logf."""
        if not edges:
            return []
        a, b = np.array(edges).T
        half = 0.5 * (b - a)
        nodes = (0.5 * (a + b))[:, None] + half[:, None] * _XK
        g = np.asarray(self.logf(nodes.ravel()), dtype=float).reshape(nodes.shape)
        return [math.log(h) + float(v)
                for h, v in zip(half, _logsumexp_rows(_LOG_WK + g))]
