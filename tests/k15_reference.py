"""The K15 kernel, the adaptive loop and the partial-panel readers in their
earlier form, verbatim: the kernel stacked its columns and tiled its
scales, the loop kept a and b beside the rows and built its record with
`np.rec.fromarrays`, and the readers called logf at the K15 nodes of the
panels that hold their points.  `test_quadrature` holds the module to these
bits.
"""

import math

import numpy as np

from weakmodel.errors import QuadratureFailure
from weakmodel.quadrature import (_S7, _S15, _TO_LEGENDRE, _WG7, _WK, _WK_G7, _XK,
                                  legendre, legendre_integrals, logsumexp)


def _logsumexp_rows(a):
    """`logsumexp` of each row of a 2-D array."""
    m = a.max(axis=1)
    out = m.copy()   # kept for rows that are all -inf or hold +inf or nan
    ok = np.isfinite(m)
    out[ok] += np.log(np.exp(a[ok] - m[ok, None]).sum(axis=1))
    return out


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


def _node_values(logf, q, a, b):
    """(half widths, f, h, log max f, log max h) of the panels [a_i, b_i]
    at their K15 nodes, from one call of logf: f = exp(q_out logf) and
    h = exp(q_in logf), each row scaled by its maximum."""
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _XK
    g = np.asarray(logf(x.ravel()), dtype=float).reshape(-1, len(_XK))
    q_out, q_in = q
    lf, lh = q_out * g, q_in * g if q_in else np.zeros_like(g)   # no 0 * -inf
    mf, mh = lf.max(axis=1), lh.max(axis=1)
    return half, np.exp(lf - mf[:, None]), np.exp(lh - mh[:, None]), mf, mh


def kronrod_panel_log(logf, q_out, q_in, a, b):
    """The K15 kernel: for the panels [a_i, b_i] of arrays a and b, a (k, 9)
    array of the logs of (I, A, B) (module notes), of their errors and of
    their splittable errors (`_with_rounding`), from one call of logf.
    Every sum runs along its own row, so a panel's bits do not depend on
    the others in the call."""
    with np.errstate(invalid="ignore", divide="ignore"):   # zero rows: -inf below
        half, f, h, mf, mh = _node_values(logf, (q_out, q_in), a, b)
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


def _partial_panels(logf, panels, k, x, triangle=None):
    """For points x in the panels k of `panels` (fields a and b), the logs of
    the heads int_x^{b_k} exp(logf); with triangle = (q_out, q_in), the
    logs of (I, A, B) (module notes) on [a_k, x] instead, a (3, len(x)) array.

    logf is called once, on the K15 nodes of the distinct panels that hold
    the points.  A partial panel integrates the degree-14 interpolant
    through its panel's 15 values, the Legendre series `_TO_LEGENDRE @
    values`, by `legendre_integrals` at x's place t in [-1, 1].  A head
    reads the mirrored series sum (-1)^k c_k int_{-1}^{-t} P_k, so it is 0
    at x = b_k exactly, as a prefix is at x = a_k; a slightly negative sum
    is read as 0.  Each sum runs along a panel's own row or elementwise in
    the points, so a point's bits do not depend on the others in the call.
    """
    held = np.zeros(len(panels), dtype=bool)
    held[k] = True
    j = np.cumsum(held)[k] - 1   # each point's place among the held panels
    a, b = panels.a[held], panels.b[held]
    with np.errstate(invalid="ignore", divide="ignore"):   # zero rows: -inf below
        half, f, h, mf, mh = _node_values(logf, triangle or (1, 0), a, b)
        log_half = np.log(half)
        if triangle:
            values = np.concatenate([h, f, f * np.einsum("kj,ij->ki", h, _S15)])
            scale = log_half + np.array([mh, mf, mf + mh + log_half])
            t = (x - a[j]) / half[j] - 1.0
        else:
            values, scale, t = f, (log_half + mf)[None], (b[j] - x) / half[j] - 1.0
        c = np.einsum("kj,ij->ki", values, _TO_LEGENDRE)
        if not triangle:
            c[:, 1::2] *= -1.0
        c = c.reshape(len(scale), len(a), len(_XK)).transpose(2, 0, 1)[:, :, j]
        terms = c * legendre_integrals(legendre(t, len(_XK) + 1))[:, None, :]
        sums = terms[0]
        for term in terms[1:]:   # in order, elementwise
            sums += term
        logs = scale[:, j] + np.log(np.maximum(sums, 0.0))
        logs[:, ~np.isfinite(mf + mh)[j]] = -math.inf   # logf all -inf (or +inf or nan)
    return logs if triangle else logs[0]


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
    if not np.isfinite(edges[[0, -1]]).all():
        raise ValueError("integration limits must be finite, got "
                         f"[{edges[0]:g}, {edges[-1]:g}]")
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
    the partial panels [a_k, x], read off the interpolants through their
    panels' own nodes in one call of logf (`_partial_panels`).  An x on a
    panel's start adds nothing of it; an x outside the panels' span raises
    ValueError; one on the span's end reads the last panel whole, with its
    own bits.
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
        tri, whole_a, log_p = _before(_triangle_columns(panels.log_val, panels.log_err)[0])[k].T
        part = _partial_panels(logf, panels, k, flat, triangle)
        end = flat == panels.b[k]   # the span's end reads the last panel whole
        part[:, end] = panels.log_val[k[end]].T
        log_i, log_a, log_b = part
        out.reshape(3, -1)[:] = [np.logaddexp(tri, np.logaddexp(log_p + log_a, log_b)),
                                 np.logaddexp(whole_a, log_a), np.logaddexp(log_p, log_i)]
    return out


class LogCumulative:
    """The suffix reader of given panels of one integral of exp(logf), the
    twin of `log_prefix`: int_x^hi, hi the last panel's end.

    `panels` holds fields a, b, log_val and log_err, in order, as
    `adaptive_quad_log` gives them, of one pass or of passes over adjacent
    spans.  `log_err` is the log of their summed error estimates.  The logs
    of the sums from each panel on are kept, so no (possibly overflowing)
    linear value is formed.  The class and `log_between` keep their names
    because the benchmark's tracer wraps them by those names.
    """

    def __init__(self, logf, panels):
        self.logf = logf
        self.panels = panels
        self.log_err = logsumexp(panels.log_err)
        self._after = np.r_[np.logaddexp.accumulate(panels.log_val[::-1])[::-1], -math.inf]

    def log_between(self, x):
        """log int_x^hi, with x clipped to the panels' span; -inf at hi.

        x may be an array; the result then has its shape.  The heads
        [x, b_i] are read off the interpolants through the nodes of the
        panels that hold the limits, in one call of logf
        (`_partial_panels`), and each adds the sum of the panels after its
        own.  An x on a panel's start reads that panel whole, with its own
        bits, and at hi the head is 0 exactly.
        """
        panels, shape = self.panels, np.shape(x)
        flat = np.clip(np.ravel(x).astype(float), panels.a[0], panels.b[-1])
        i = np.searchsorted(panels.a, flat, side="right") - 1
        heads = _partial_panels(self.logf, panels, i, flat)
        start = flat == panels.a[i]   # reads its panel whole
        heads[start] = panels.log_val[i[start]]
        out = np.logaddexp(heads, self._after[i + 1]).reshape(shape)
        return float(out) if out.ndim == 0 else out
