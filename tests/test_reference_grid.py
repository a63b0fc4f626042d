"""The criterion's finite parts against an independent composite reference.

The reference is 30-point Gauss-Legendre on panels equally spaced in log t
over [1, R], with edges at e and e^2 for `PowerLog`, where phi is spliced.
Its inner partials int_{a_k}^x phi^(n-3) at the 30 nodes come from the 30 x 30
Legendre integration matrix, so it shares no rule, no panel and no error
estimate with the pass.  It is taken on 4,000 and on 8,000 panels, and the
two must agree.
"""

import functools
import math

import numpy as np
import pytest
from numpy.polynomial import legendre

from weakmodel import criterion
from weakmodel.errors import QuadratureFailure
from weakmodel.warp import Euclidean, Hyperbolic, PowerGrowth, PowerLog

_X, _W = legendre.leggauss(30)
_S = np.linalg.solve(legendre.legvander(_X, 29).T,
                     legendre.legval(_X, legendre.legint(np.eye(30), lbnd=-1))).T


def _log_sum(logs):
    """log of the sum of exp(logs), each term shifted by the largest log and
    added by math.fsum."""
    top = logs.max()
    return top + math.log(math.fsum(np.exp(logs - top)))


def _log_prefix(logs):
    """log of the exclusive prefix sums of exp(logs).  Within a block of 64
    the terms are shifted by the block's largest log and summed by numpy;
    the blocks before are added by `_log_sum`, shifted by their largest.  So
    neither the rounding nor an underflow grows with the panel count."""
    blocks = np.concatenate([logs, np.full(-len(logs) % 64, -math.inf)]).reshape(-1, 64)
    tops = blocks.max(axis=1)
    scaled = np.exp(blocks - tops[:, None])
    totals = [top + math.log(math.fsum(row)) for top, row in zip(tops, scaled)]
    offsets = [-math.inf] + [_log_sum(np.array(totals[:j])) for j in range(1, len(totals))]
    before = np.cumsum(scaled, axis=1) - scaled
    before[:, 0] = 0.0
    with np.errstate(divide="ignore"):
        within = tops[:, None] + np.log(before)
    return np.logaddexp(np.array(offsets)[:, None], within).ravel()[:len(logs)]


@functools.lru_cache(maxsize=2)
def _log_phi_on_nodes(w, R, panels):
    """(half widths, log phi at the 30 nodes of each panel), which every n
    of one (w, R) shares.  For Hyperbolic(a) the panels stop at
    t = 1 + 100/a, beyond which the triangle's and the transience
    integrands are below e^-100 of their values near 1; its C is then short
    (`_hyperbolic_log_c` gives that one)."""
    if isinstance(w, Hyperbolic):
        R = min(R, 1.0 + 100.0 / w.a)
    edges = np.union1d(np.geomspace(1.0, R, panels + 1),
                       [x for x in w.breakpoints if 1.0 < x < R])
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    return half, w.log_phi((0.5 * (a + b))[:, None] + half[:, None] * _X)


def reference(w, n, R, panels):
    """(triangle, int_1^R phi^(1-n), log C(1,R)) on `panels` panels."""
    half, g = _log_phi_on_nodes(w, R, panels)
    lf, lh = (1 - n) * g, (n - 3) * g
    mf, mh = lf.max(axis=1), lh.max(axis=1)
    f, h = np.exp(lf - mf[:, None]), np.exp(lh - mh[:, None])
    log_i = np.log(half) + mh + np.log(h @ _W)
    log_a = np.log(half) + mf + np.log(f @ _W)
    log_b = 2 * np.log(half) + mf + mh + np.log(((h @ _S.T) * f) @ _W)
    tri = np.logaddexp(_log_sum(_log_prefix(log_i) + log_a), _log_sum(log_b))
    return math.exp(tri), math.exp(_log_sum(log_a)), _log_sum(log_i)


def _hyperbolic_log_c(w, n, R):
    """log C(1,R) of Hyperbolic(a) in closed form, from 40-digit mpmath: in t
    the panels of the reference cannot follow phi^(n-3) ~ e^((n-3)at)."""
    import mpmath as mp
    with mp.workdps(40):
        a = mp.mpf(w.a)
        F = {2: lambda t: mp.log(mp.tanh(a * t / 2)), 3: lambda t: t,
             4: lambda t: mp.cosh(a * t) / a**2,
             5: lambda t: (mp.sinh(2 * a * t) / (4 * a) - t / 2) / a**2,
             6: lambda t: (mp.cosh(a * t)**3 / 3 - mp.cosh(a * t)) / a**4}[n]
        return float(mp.log(F(mp.mpf(R)) - F(mp.mpf(1))))


_FAMILIES = ([Euclidean()] + [Hyperbolic(a) for a in (0.1, 1.0, 2.0)]
             + [PowerGrowth(p) for p in (1.05, 1.5, 3.0)]
             + [PowerLog(c) for c in (0.35, 0.6, 1.2, 2.0, 5.0)])


def _default_r(w, n):
    model = criterion._TailModel(w.growth_class, n)
    return criterion._start_radius(w, model, model.default_r_max())


def _radii(w):
    power = not isinstance(w, Hyperbolic)
    return [None, 1e5, 1e30] + ([1e100] if power else [])


def _refuses(w, n, R):
    """The cases the pass refuses: exponential growth at n >= 4 and
    R = 1e30, where phi^(n-3) near R has a log of about (n-3) a R, whose
    rounding no panel in t can resolve."""
    return isinstance(w, Hyperbolic) and n >= 4 and R == 1e30


@pytest.mark.parametrize("w", _FAMILIES, ids=repr)
def test_finite_parts_hold_the_reference(w):
    for R in _radii(w):
        for n in range(2, 7):
            R_n = _default_r(w, n) if R is None else R
            if _refuses(w, n, R_n):
                with pytest.raises(QuadratureFailure, match="below rounding"):
                    criterion._finite(w, n, R_n, True)
                continue
            tri, tri_err, (log_c, log_ec), _ = criterion._finite(w, n, R_n, True)
            trans, trans_err = criterion._finite(w, n, R_n, False)[:2]
            want = reference(w, n, R_n, 8000)
            coarse = reference(w, n, R_n, 4000)
            case = (w, n, R_n)
            # the reference's own spread, taken from its two panel counts,
            # is left to it on top of the pass's error and rounding term
            for got, err, ref, other in ((tri, tri_err, want[0], coarse[0]),
                                         (trans, trans_err, want[1], coarse[1])):
                spread = abs(other - ref)
                assert spread <= 5e-14 * ref, case
                assert abs(got - ref) <= err + 1e-14 * ref + spread, (case, got, ref, err)
            # C(1,R) may leave double range: compare it in logs
            if isinstance(w, Hyperbolic):
                want_c = _hyperbolic_log_c(w, n, R_n)
            else:
                want_c = want[2]
                assert abs(coarse[2] - want_c) <= 5e-14 * max(1.0, abs(want_c)), case
            bound = (math.exp(log_ec - log_c) + 1e-14 + 4 * math.ulp(abs(log_c))
                     + abs(coarse[2] - want[2]))
            assert abs(log_c - want_c) <= bound, (case, log_c, want_c)
