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
on the 7 Gauss nodes.  A pass of one integral of exp(logf) (the power-log
tails, tau's near pass, the Riccati bound) takes the kernel's value-only
branch: A at q = (1, 0) with its errors, the same bits as the triples
give, without h, the inner partials, I and B.  The kernel writes each
panel as one row of a float array, its fields (`_PANEL`) in place: a, b,
the logs, and the log integrands at the 15 nodes, which the panel keeps.

`adaptive_quad_log` is the one adaptive loop, over rows of the kernel; its
panels are a record view of them.  With P_k = sum_{j<k} I_j the triangle
int f(x) int^x h is sum (P_k A_k + B_k), and its panel error
P_k eA_k + eI_k A_{>k} + eB_k carries the inner one.  Two readers take
kept panels and run no pass: `LogCumulative` reads int_x^hi at any x off
one integral's suffix sums (tau, off an n = 2 criterion report's
int phi^-1 column after a short pass below it), and `log_prefix`, its twin
for the triangle's panels, the three columns from the start to any x (the
growth bound of `radial.lemma_bound_check`).  So every integral of a power
of phi goes through `kronrod_panel_log`.  Both take a partial panel,
[x, b_i] or [a_k, x], from the degree-14 interpolant through its whole
panel's 15 K15 values (`_partial_panels`), as Greengard's spectral
integration reads a panel anywhere, off the node values the panel kept:
a read evaluates phi at no node.

`legendre` gives the Legendre polynomials of the integration matrices,
and `legendre_integrals` their integrals int_{-1}^x P_k, which the
partial panels and the radial solve's collocation panels also read, with
`_TO_LEGENDRE`, the Legendre coefficients of the interpolant through the
15 nodes.

`_logsumexp_rows` is the plain stable form max + log(sum(exp(a - max))) in
numpy, row by row, and `logsumexp` is its one row.  It agrees with
`scipy.special.logsumexp` to a few ulp, at a fraction of the per-call
overhead on the short arrays this module sums.
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
    """[P_0(x), ..., P_{count-1}(x)] by Bonnet's recurrence, elementwise in x,
    ((2k+1) x P_k - k P_k-1)/(k+1): an array of shape (count,) + x.shape."""
    x = np.asarray(x, dtype=float)
    P = np.empty((max(count, 2),) + x.shape)
    P[0], P[1] = 1.0, x
    for k in range(1, count - 1):
        p = P[k + 1]
        np.multiply(2 * k + 1, x, out=p)
        p *= P[k]
        p -= k * P[k - 1]
        p /= k + 1
    return P[:count]


def legendre_integrals(P):
    """[int_{-1}^x P_0, ..., int_{-1}^x P_{count-2}] from P = legendre(x, count):
    x + 1, then (P_k+1 - P_k-1)/(2k + 1), as one array."""
    k = np.arange(1, len(P) - 1).reshape((-1,) + (1,) * (P.ndim - 1))
    return np.concatenate([P[1:2] + 1.0, (P[2:] - P[:-2]) / (2 * k + 1)])


def _integration_matrix(x):
    """S with (S @ y)_i = int_{-1}^{x_i} p, p the polynomial of degree len(x) - 1
    through (x, y), in Legendre P_k (`legendre_integrals`)."""
    P = legendre(x, len(x) + 1)
    return np.linalg.solve(np.array(P[:-1]), np.array(legendre_integrals(P))).T


_S15 = _integration_matrix(_XK)
_S7 = _integration_matrix(_XK[1::2])
_WG7 = _WG[1::2]

# Legendre coefficients of the degree-14 polynomial through values at the
# K15 nodes: the inverse of the nodes' Legendre-Vandermonde matrix.  Its
# first row, c_0 = int_{-1}^1 p / 2, is taken as half the K15 weights,
# exact at that degree, so a panel's polynomial integrates to its K15 sum
_TO_LEGENDRE = np.linalg.inv(np.array(legendre(_XK, len(_XK))).T)
_TO_LEGENDRE[0] = 0.5 * _WK


def logsumexp(a):
    """`_logsumexp_rows` of a 1-D sequence as its one row; -inf if it is empty."""
    a = np.asarray(a, dtype=float)
    return float(_logsumexp_rows(a[None])[0]) if a.size else -math.inf


def _logsumexp_rows(a):
    """log(sum(exp(row))) of each row of a 2-D array; the max where it is not
    finite (all -inf, or a +inf or nan term decides the sum)."""
    m = a.max(axis=1)
    if np.isfinite(m).all():   # each row summed from a C-contiguous copy
        d = np.subtract(a, m[:, None], order="C")
        return m + np.log(np.exp(d, out=d).sum(axis=1))
    out = m.copy()   # kept for rows that are all -inf or hold +inf or nan
    ok = np.isfinite(m)
    out[ok] += np.log(np.exp(a[ok] - m[ok, None]).sum(axis=1))
    return out


# The fields of a panel row, as `kronrod_panel_log` writes them: the logs
# of one integral or of (I, A, B), their errors and splittable errors, and
# the log integrands at the 15 nodes, of f or of f and h.
_PANEL = {
    1: np.dtype([("a", float), ("b", float), ("log_val", float), ("log_err", float),
                 ("log_fix", float), ("log_node", float, (15,))]),
    3: np.dtype([("a", float), ("b", float), ("log_val", float, (3,)),
                 ("log_err", float, (3,)), ("log_fix", float, (3,)),
                 ("log_node", float, (2, 15))]),
}


def kronrod_panel_log(logf, a, b, triangle=None):
    """The K15 kernel: the rows of the panels [a_i, b_i] of arrays a and b,
    from one call of logf, as a 2-D float array of the fields of `_PANEL`:
    a, b, the log of int exp(logf), or with triangle = (q_out, q_in) of
    (I, A, B) (module notes), the logs of their K15 - G7 errors with the
    rounding floor of their integrands' size and of their splittable
    errors, then the log integrands at the nodes, logf, or q_out logf and
    q_in logf.  Every sum runs along its own row, so a panel's bits do not
    depend on the others in the call."""
    c = 3 if triangle else 1
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _XK
    g = np.asarray(logf(x.ravel()), dtype=float).reshape(-1, len(_XK))
    rows = np.empty((len(a), _PANEL[c].itemsize // 8))
    rows[:, 0], rows[:, 1] = a, b
    sums, logs = np.empty((2, len(a), 2 * c))   # K15 and K15 - G7 sums, then their logs
    size = np.empty((len(a), c))
    with np.errstate(invalid="ignore", divide="ignore"):   # zero rows: -inf below
        log_half = np.log(half)
        if c == 1:
            rows[:, 5:] = g
            mf = g.max(axis=1)
            f = np.exp(g - mf[:, None])
            sums[:, 0] = np.einsum("kj,j->k", f, _WK)
            sums[:, 1] = np.einsum("kj,j->k", f, _WK_G7)
            logs[:, 0] = logs[:, 1] = log_half + mf
            size[:, 0] = np.abs(mf)
            finite = np.isfinite(mf)
        else:
            q_out, q_in = triangle
            lf, lh = rows[:, 11:26], rows[:, 26:]
            np.multiply(q_out, g, out=lf)
            if q_in:
                np.multiply(q_in, g, out=lh)
            else:
                lh[:] = 0.0   # no 0 * -inf
            mf, mh = lf.max(axis=1), lh.max(axis=1)
            f, h = np.exp(lf - mf[:, None]), np.exp(lh - mh[:, None])
            inner = np.einsum("kj,ij->ki", h, _S15)   # int_{-1}^{x_i} h, unscaled
            inner7 = np.einsum("kj,ij->ki", h[:, 1::2], _S7)
            sums[:, 2] = np.einsum("kj,kj,j->k", f, inner, _WK)
            sums[:, 0] = np.einsum("kj,j->k", h, _WK)
            sums[:, 1] = np.einsum("kj,j->k", f, _WK)
            sums[:, 3] = np.einsum("kj,j->k", h, _WK_G7)
            sums[:, 4] = np.einsum("kj,j->k", f, _WK_G7)
            sums[:, 5] = sums[:, 2] - np.einsum("kj,kj,j->k", f[:, 1::2], inner7, _WG7)
            logs[:, 0] = logs[:, 3] = log_half + mh
            logs[:, 1] = logs[:, 4] = log_half + mf
            logs[:, 2] = logs[:, 5] = log_half + (mf + mh + log_half)
            size[:, 0], size[:, 1] = np.abs(mh), np.abs(mf)
            size[:, 2] = size[:, 1] + size[:, 0]
            finite = np.isfinite(mf + mh)
        logs += np.log(np.abs(sums))
        logs[~finite] = -math.inf   # logf all -inf (or +inf or nan)
        # rounding moves a value by nu = 4 eps (size + 1), a floor on the
        # K15-G7 estimate that no split lowers, so a panel at it has nothing
        # to split (-inf) unless nu >= 2^-20
        log_val, log_est = logs[:, :c], logs[:, c:]
        nu = np.minimum(2.0 ** -50 * (size + 1.0), 1.0)
        log_floor = log_val + np.log(nu)
        rows[:, 2:2 + c] = log_val
        np.logaddexp(log_est, log_floor, out=rows[:, 2 + c:2 + 2 * c])
        rows[:, 2 + 2 * c:2 + 3 * c] = np.where((log_est > log_floor) | (nu >= 2.0 ** -20),
                                                log_est, -math.inf)
    return rows


def _partial_panels(panels, k, x, prefix=False):
    """For points x in the panels k of `panels`, the logs of the heads
    int_x^{b_k} of their one integral; with `prefix`, of panel triples, the
    logs of (I, A, B) (module notes) on [a_k, x] instead, a (3, len(x))
    array.

    No integrand is evaluated: each panel keeps its log integrands at its
    K15 nodes (field log_node).  A partial panel integrates the degree-14
    interpolant through its panel's 15 values, the Legendre series
    `_TO_LEGENDRE @ values`, by `legendre_integrals` at x's place t in
    [-1, 1].  A head reads the mirrored series sum (-1)^k c_k
    int_{-1}^{-t} P_k, so it is 0 at x = b_k exactly, as a prefix is at
    x = a_k; a slightly negative sum is read as 0.  Each sum runs along a
    panel's own row or elementwise in the points, so a point's bits do not
    depend on the others in the call.
    """
    held = np.zeros(len(panels), dtype=bool)
    held[k] = True
    j = np.cumsum(held)[k] - 1   # each point's place among the held panels
    a, b, nodes = panels.a[held], panels.b[held], panels.log_node[held]
    lf = nodes[:, 0] if prefix else nodes
    with np.errstate(invalid="ignore", divide="ignore"):   # zero rows: -inf below
        half = 0.5 * (b - a)
        log_half = np.log(half)
        mf = lf.max(axis=1)
        f = np.exp(lf - mf[:, None])
        if prefix:
            mh = nodes[:, 1].max(axis=1)
            h = np.exp(nodes[:, 1] - mh[:, None])
            values = np.concatenate([h, f, f * np.einsum("kj,ij->ki", h, _S15)])
            scale = log_half + np.array([mh, mf, mf + mh + log_half])
            t = (x - a[j]) / half[j] - 1.0
            finite = np.isfinite(mf + mh)
        else:
            values, scale, t = f, (log_half + mf)[None], (b[j] - x) / half[j] - 1.0
            finite = np.isfinite(mf)
        c = np.einsum("kj,ij->ki", values, _TO_LEGENDRE)
        if not prefix:
            c[:, 1::2] *= -1.0
        c = c.reshape(len(scale), len(a), len(_XK)).transpose(2, 0, 1)[:, :, j]
        terms = c * legendre_integrals(legendre(t, len(_XK) + 1))[:, None, :]
        sums = terms[0]
        for term in terms[1:]:   # in order, elementwise
            sums += term
        logs = scale[:, j] + np.log(np.maximum(sums, 0.0))
        logs[:, ~finite[j]] = -math.inf   # logf all -inf (or +inf or nan)
    return logs if prefix else logs[0]


def _before(log, out):
    """Into `out`, the logs of the sums of the entries before each one,
    along the last axis."""
    out[..., 0] = -math.inf
    np.logaddexp.accumulate(log[..., :-1], axis=-1, out=out[..., 1:])
    return out


def _triangle_columns(log_vals, log_errs):
    """Per panel, in order, the log values and log errors of the triangle,
    int f and int h, from the (k, 3) logs of (I, A, B): two (3, k) arrays."""
    (log_i, log_a, log_b), (log_ei, log_ea, log_eb) = log_vals.T, log_errs.T
    vals, errs = np.empty((2, 3, len(log_i)))
    log_p, log_after = _before(log_i, np.empty(len(log_i))), np.empty(len(log_i))
    log_after[-1], log_after[:-1] = -math.inf, np.logaddexp.accumulate(log_a[:0:-1])[::-1]
    vals[0] = np.logaddexp(log_p + log_a, log_b)
    errs[0] = np.logaddexp(np.logaddexp(log_p + log_ea, log_ei + log_after), log_eb)
    vals[1], vals[2], errs[1], errs[2] = log_a, log_i, log_ea, log_ei
    return vals, errs


def adaptive_quad_log(logf, edges, rtol=1e-10, max_panels=2000, triangle=None):
    """Adaptive K15 of exp(logf) in log space, from the panels between `edges`.

    Returns (log value, log error, panels), panels a record array in order
    with fields a, b, log_val, log_err, log_fix (the splittable error) and
    log_node (`kronrod_panel_log`), a view of the kernel's rows.  With
    triangle = (q_out, q_in) the panels are triples (module notes), and the
    logs are arrays for the triangle, int f and int h.  Each round splits
    into quarters, in one kernel call, the worst panel and every one whose
    splittable error exceeds rtol/k of a column's total, until each
    column's is within rtol of its total, a difference of logs: at a log
    total near -4e17 one ulp is 64.  It raises QuadratureFailure past
    max_panels or where a panel cannot be split.  Edges that do not
    increase give the empty result; non-finite ones raise ValueError.
    """
    edges = np.asarray(edges, dtype=float)
    if not np.isfinite(edges[[0, -1]]).all():
        raise ValueError("integration limits must be finite, got "
                         f"[{edges[0]:g}, {edges[-1]:g}]")
    c = 3 if triangle else 1
    val, err, fix = slice(2, 2 + c), slice(2 + c, 2 + 2 * c), slice(2 + 2 * c, 2 + 3 * c)
    columns = _triangle_columns if triangle else lambda v, e: (v.T, e.T)
    log_total = log_err = np.full(c, -math.inf)
    if edges[-1] > edges[0]:
        rows = kronrod_panel_log(logf, edges[:-1], edges[1:], triangle)
    else:
        rows = np.empty((0, _PANEL[c].itemsize // 8))
    where = f"log-space quadrature on [{edges[0]:g}, {edges[-1]:g}]"
    with np.errstate(invalid="ignore"):   # -inf - -inf: nan, counted as met
        while len(rows):
            vals, fixable = columns(rows[:, val], rows[:, fix])
            log_total = _logsumexp_rows(vals)
            if not np.any(_logsumexp_rows(fixable) - log_total > math.log(rtol)):
                break
            if len(rows) >= max_panels:
                raise QuadratureFailure(f"{where} exceeded {max_panels} panels")
            excess = np.where(fixable == -math.inf, -math.inf,
                              fixable - log_total[:, None]).max(axis=0)
            split = excess > math.log(rtol / len(rows))
            split[np.argmax(excess)] = True
            lo, hi = rows[split, 0], rows[split, 1]
            cuts = np.empty((len(lo), 5))
            cuts[:, 0], cuts[:, 2], cuts[:, 4] = lo, 0.5 * (lo + hi), hi
            cuts[:, 1], cuts[:, 3] = 0.5 * (lo + cuts[:, 2]), 0.5 * (cuts[:, 2] + hi)
            flat = (cuts[:, 1:] <= cuts[:, :-1]).any(axis=1)
            if flat.any():
                raise QuadratureFailure(f"{where} cannot split the panel at "
                                        f"{lo[flat][0]:g} below rounding")
            rows = np.concatenate([rows[~split], kronrod_panel_log(
                logf, cuts[:, :-1].ravel(), cuts[:, 1:].ravel(), triangle)])
            rows = rows[np.argsort(rows[:, 0], kind="stable")]
    if len(rows):
        log_err = _logsumexp_rows(columns(rows[:, val], rows[:, err])[1])
    panels = rows.ravel().view(_PANEL[c], np.recarray)
    if triangle is None:
        return float(log_total[0]), float(log_err[0]), panels
    return log_total, log_err, panels


def log_prefix(panels, x):
    """The logs of the triangle, int f and int h from the first panel's start
    to each x in the panel triples of `adaptive_quad_log(..., triangle)`: a
    (3,) + x.shape array, -inf where there are no panels.

    It is the prefix twin of `LogCumulative.log_between`: the sums over the
    whole panels before x's own, with P_k = sum I_j for the triangle, plus
    the partial panels [a_k, x], read off the interpolants through their
    panels' own node values (`_partial_panels`).  An x on a panel's start
    adds nothing of it; an x outside the panels' span raises ValueError;
    one on the span's end reads the last panel whole, with its own bits.
    """
    xs = np.asarray(x, dtype=float)
    out = np.full((3,) + xs.shape, -math.inf)
    if len(panels):
        flat = xs.ravel()
        outside = flat[~((flat >= panels.a[0]) & (flat <= panels.b[-1]))]
        if outside.size:
            raise ValueError(f"x = {outside[0]:g} lies outside the panels' span "
                             f"[{panels.a[0]:g}, {panels.b[-1]:g}]")
        k = np.searchsorted(panels.a, flat, side="right") - 1
        whole = _triangle_columns(panels.log_val, panels.log_err)[0]
        tri, whole_a, log_p = _before(whole, np.empty_like(whole))[:, k]
        part = _partial_panels(panels, k, flat, prefix=True)
        end = flat == panels.b[k]   # the span's end reads the last panel whole
        part[:, end] = panels.log_val[k[end]].T
        log_i, log_a, log_b = part
        out.reshape(3, -1)[:] = [np.logaddexp(tri, np.logaddexp(log_p + log_a, log_b)),
                                 np.logaddexp(whole_a, log_a), np.logaddexp(log_p, log_i)]
    return out


class LogCumulative:
    """The suffix reader of given panels of one integral, the twin of
    `log_prefix`: int_x^hi, hi the last panel's end.

    `panels` holds fields a, b, log_val, log_err and log_node, in order, as
    `adaptive_quad_log` gives them, of one pass or of passes over adjacent
    spans.  `log_err` is the log of their summed error estimates.  The logs
    of the sums from each panel on are kept, so no (possibly overflowing)
    linear value is formed.  The class and `log_between` keep their names
    because the benchmark's tracer wraps them by those names.
    """

    def __init__(self, panels):
        self.panels = panels
        self.log_err = logsumexp(panels.log_err)
        self._after = np.r_[np.logaddexp.accumulate(panels.log_val[::-1])[::-1], -math.inf]

    def log_between(self, x):
        """log int_x^hi, with x clipped to the panels' span; -inf at hi.

        x may be an array; the result then has its shape.  The heads
        [x, b_i] are read off the interpolants through the node values of
        the panels that hold the limits (`_partial_panels`), and each adds
        the sum of the panels after its own.  An x on a panel's start reads
        that panel whole, with its own bits, and at hi the head is 0
        exactly.
        """
        panels, shape = self.panels, np.shape(x)
        flat = np.clip(np.ravel(x).astype(float), panels.a[0], panels.b[-1])
        i = np.searchsorted(panels.a, flat, side="right") - 1
        heads = _partial_panels(panels, i, flat)
        start = flat == panels.a[i]   # reads its panel whole
        heads[start] = panels.log_val[i[start]]
        out = np.logaddexp(heads, self._after[i + 1]).reshape(shape)
        return float(out) if out.ndim == 0 else out
