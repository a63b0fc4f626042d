"""Adaptive Gauss-Kronrod quadrature in log space.

It integrates exp(logf) for positive integrands whose values under- or
overflow double precision (powers of the warping function for large n).
Panel sums are evaluated with log-sum-exp so only the final exponentiation
can underflow, never the bookkeeping.

`kronrod_panel_log` is the one K15 kernel.  One call of logf on panels
[a_k, b_k] gives, for f = exp(q_out logf) and h = exp(q_in logf),
I_k = int h, A_k = int f and B_k = int f(x) int_{a_k}^x h, the inner
partials at the nodes from their Legendre integration matrix (Greengard,
"Spectral integration and two-point boundary value problems", SIAM
J. Numer. Anal. 28, 1991); eI and eA are K15 - G7, eB is B less its form
on the 7 Gauss nodes.  One integral of exp(logf) is A at q = (1, 0).

`adaptive_quad_log` is the one adaptive loop, over panels of the kernel.
With P_k = sum_{j<k} I_j the triangle int f(x) int^x h is
sum (P_k A_k + B_k), and its panel error P_k eA_k + eI_k A_{>k} + eB_k
carries the inner one.  `LogCumulative` keeps the panels of one integral
and the logs of their suffix sums, and reads int_x^hi at any x from one
more kernel call on the partial panels [x, b_i].  `log_prefix` is its
twin for the triangle's panels: it reads the three columns from the start
to any x, which is how the growth-bound check of
`radial.lemma_bound_check` gets its exponent.  So every integral of a
power of phi goes through `kronrod_panel_log`.

`legendre` gives the Legendre polynomials of the integration matrices,
and `legendre_integrals` their integrals int_{-1}^x P_k, which the
radial solve's collocation panels also read.

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

_WK_G7 = _WK - _WG


def legendre(x, count):
    """[P_0(x), ..., P_{count-1}(x)] by Bonnet's recurrence, elementwise in x."""
    P = [np.ones_like(x), x]
    for k in range(1, count - 1):
        P.append(((2 * k + 1) * x * P[k] - k * P[k - 1]) / (k + 1))
    return P[:count]


def legendre_integrals(P):
    """[int_{-1}^x P_0, ..., int_{-1}^x P_{count-2}] from P = legendre(x, count):
    x + 1, then (P_k+1 - P_k-1)/(2k + 1)."""
    return [P[1] + 1.0] + [(P[k + 1] - P[k - 1]) / (2 * k + 1) for k in range(1, len(P) - 1)]


def _integration_matrix(x):
    """S with (S @ y)_i = int_{-1}^{x_i} p, p the polynomial of degree len(x) - 1
    through (x, y), in Legendre P_k (`legendre_integrals`)."""
    P = legendre(x, len(x) + 1)
    return np.linalg.solve(np.array(P[:-1]), np.array(legendre_integrals(P))).T


_S15 = _integration_matrix(_XK)
_S7 = _integration_matrix(_XK[1::2])
_WG7 = _WG[1::2]


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


def kronrod_panel_log(logf, q_out, q_in, a, b):
    """The K15 kernel: for the panels [a_i, b_i] of arrays a and b, a (k, 9)
    array of the logs of (I, A, B) (module notes), of their errors and of
    their splittable errors (`_with_rounding`), from one call of logf.
    Every sum runs along its own row, so a panel's bits do not depend on
    the others in the call."""
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


def _before(log):
    """The logs of the sums of the entries before each one, along axis 0."""
    head = np.full((1,) + np.shape(log)[1:], -math.inf)
    return np.concatenate([head, np.logaddexp.accumulate(log)[:-1]])


def _triangle_columns(log_vals, log_errs):
    """Per panel, in order, the log values and log errors of the triangle,
    int f and int h, from those of (I, A, B): two (k, 3) arrays."""
    (log_i, log_a, log_b), (log_ei, log_ea, log_eb) = log_vals.T, log_errs.T
    log_p = _before(log_i)
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
    rows = kronrod_panel_log(logf, *q, a, b) if len(a) else np.empty((0, 9))
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
        rows = np.concatenate([rows[~split], kronrod_panel_log(logf, *q, qa, qb)])[order]
    if len(rows):
        log_err = _logsumexp_rows(columns(rows[:, :3], rows[:, 3:6])[1].T)
    logs, shape = (np.split(rows, 3, axis=1), (3,)) if triangle else (rows[:, 1::3].T, ())
    panels = np.rec.fromarrays([a, b, *logs], dtype=[("a", float), ("b", float)] + [
        (field, float, shape) for field in ("log_val", "log_err", "log_fix")])
    if triangle is None:
        return float(log_total[0]), float(log_err[0]), panels
    return log_total, log_err, panels


def log_prefix(logf, triangle, panels, x):
    """The logs of the triangle, int f and int h from the first panel's start
    to each x in the panels of `adaptive_quad_log(logf, ..., triangle)`: a
    (3,) + x.shape array, -inf where there are no panels.

    It is the prefix twin of `LogCumulative.log_between`: the sums over the
    whole panels before x's own, with P_k = sum I_j for the triangle, plus
    one kernel call on the partial panels [a_k, x].  x must lie in the
    panels' span; one on the span's end reads the last panel whole, with
    its own bits.
    """
    xs = np.asarray(x, dtype=float)
    out = np.full((3,) + xs.shape, -math.inf)
    if len(panels):
        flat = xs.ravel()
        k = np.clip(np.searchsorted(panels.a, flat, side="right") - 1, 0, len(panels) - 1)
        tri, whole_a, log_p = _before(_triangle_columns(panels.log_val, panels.log_err)[0])[k].T
        log_i, log_a, log_b = kronrod_panel_log(logf, *triangle, panels.a[k], flat)[:, :3].T
        out.reshape(3, -1)[:] = [np.logaddexp(tri, np.logaddexp(log_p + log_a, log_b)),
                                 np.logaddexp(whole_a, log_a), np.logaddexp(log_p, log_i)]
    return out


class LogCumulative:
    """Panelized log of the integrals int_x^hi of a positive integrand.

    The panels of int_lo^hi exp(logf) start from 8 equal ones, with edges at
    the `breaks` inside [lo, hi].  `log_err` is the log of the whole
    integral's error estimate.  The logs of the sums from each panel on are
    kept, so no (possibly overflowing) linear value is formed.
    `log_between` reads only int_x^hi; it keeps its name because the
    benchmark's tracer wraps the reader by that name.
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
        log_val = self.panels.log_val
        self._after = np.r_[np.logaddexp.accumulate(log_val[::-1])[::-1], -math.inf]

    def log_between(self, x):
        """log int_x^hi, with x clipped to [lo, hi]; -inf at hi.

        x may be an array; the result then has its shape.  One kernel call
        gives the heads [x, b_i] in the panels that hold the limits, and
        each adds the sum of the panels after its own.  An x on a panel's
        start reads that panel whole, with its own bits.
        """
        xs = np.clip(np.asarray(x, dtype=float), self.lo, self.hi)
        out = np.full(xs.shape, -math.inf)
        if len(self.panels):
            flat = xs.ravel()
            i = np.searchsorted(self.panels.a, flat, side="right") - 1
            heads = kronrod_panel_log(self.logf, 1, 0, flat, self.panels.b[i])[:, 1]
            out.flat[:] = np.logaddexp(heads, self._after[i + 1])
        return float(out) if out.ndim == 0 else out
