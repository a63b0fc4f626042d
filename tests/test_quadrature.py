import heapq
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson

from weakmodel.criterion import _log_power
from weakmodel.errors import QuadratureFailure
from weakmodel.quadrature import (_WG, _WK, _XK, LogCumulative, _log_panels,
                                  _logsumexp_rows, adaptive_quad_log,
                                  cumulative_simpson, kronrod_panel_log,
                                  logsumexp)
from weakmodel.warp import PowerLog


# Linear-space adaptive K15: the reference the log-space routine is held to.

def kronrod_panel(f, a, b):
    """Integrate f over [a, b] with K15; return (value, error estimate)."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _XK
    fx = np.asarray(f(x), dtype=float)
    k15 = half * float(np.dot(_WK, fx))
    g7 = half * float(np.dot(_WG, fx))
    return k15, abs(k15 - g7)


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


def test_adaptive_known_integrals():
    val, err = adaptive_quad(np.exp, 0.0, 1.0)
    assert_allclose(val, math.e - 1.0, rtol=1e-12)
    assert err < 1e-10
    val, _ = adaptive_quad(lambda x: 1.0 / (1.0 + x) ** 2, 0.0, 50.0)
    assert_allclose(val, 1.0 - 1.0 / 51.0, rtol=1e-11)


def test_adaptive_log_matches_linear():
    f = lambda x: np.exp(-x) * (2.0 + np.sin(3 * x))
    lin, _ = adaptive_quad(f, 0.0, 20.0)
    logv, logerr, _ = adaptive_quad_log(lambda x: np.log(f(x)), 0.0, 20.0)
    assert_allclose(math.exp(logv), lin, rtol=1e-10)


def test_log_space_handles_underflow():
    # integrand e^{-500 x} underflows linearly on most of the range
    logv, _, _ = adaptive_quad_log(lambda x: -500.0 * x, 1.0, 40.0)
    assert_allclose(logv, -500.0 - math.log(500.0), rtol=1e-12)


def test_budget_exhaustion_raises():
    wild = lambda x: np.abs(np.sin(1000.0 * x)) + 1e-30
    with pytest.raises(QuadratureFailure):
        adaptive_quad_log(lambda x: np.log(wild(x)), 0.0, 10.0,
                          rtol=1e-13, max_panels=8)


def test_log_cumulative_consistency():
    cum = LogCumulative(lambda x: np.sin(x) - 2.0 * x, 1.0, 9.0)
    # prefix + suffix recombine to the total
    for x in (1.7, 3.0, 6.28, 8.9):
        a = cum.log_between(1.0, x)
        b = cum.log_between(x, 9.0)
        total = np.logaddexp(a, b)
        assert_allclose(total, cum.log_total, rtol=1e-10)
    # agrees with a direct adaptive integral on a sub-interval
    direct, _, _ = adaptive_quad_log(lambda x: np.sin(x) - 2.0 * x, 2.5, 7.5)
    assert_allclose(cum.log_between(2.5, 7.5), direct, atol=1e-9)


def _close_to_scipy(got, want):
    # the plain form sums in another order than scipy: allow 4 ulp of
    # max(1, |result|); non-finite results must match exactly
    if not math.isfinite(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= 4 * math.ulp(max(1.0, abs(want)))


def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(20231)
    battery = [np.array([]), np.array([-np.inf]), np.full(5, -np.inf),
               np.array([np.inf, 1.0]), np.array([np.inf, -np.inf]),
               np.array([np.nan, 1.0]), np.array([1e308, 1e308]),
               np.array([-1e308, 0.0]), np.zeros(7), np.array([3.0])]
    for length in (1, 2, 3, 7, 8, 9, 15, 16, 17, 100, 128, 129, 257, 2000):
        for scale in (1.0, 10.0, 100.0, 300.0):
            a = rng.normal(size=length) * scale
            battery.append(a)
            b = a.copy()
            b[rng.random(length) < 0.3] = -np.inf        # zero terms
            battery.append(b)
            c = a.copy()
            c[rng.integers(length, size=max(1, length // 3))] = a.max()  # ties
            battery.append(c)
            battery.append(np.full(length, a[0]))         # all equal
    for a in battery:
        assert _close_to_scipy(logsumexp(a), float(special.logsumexp(a))), a
    # lists, as the quadrature passes them
    assert _close_to_scipy(logsumexp([0.5, -2.0, 0.5]),
                           float(special.logsumexp([0.5, -2.0, 0.5])))
    # rows of 15, as the partial K15 panels pass them, with non-finite rows
    rows = np.vstack([a for a in battery if a.size == 15]
                     + [np.full(15, -np.inf), np.full(15, np.inf),
                        np.where(np.arange(15) == 4, np.inf, 800.0),
                        np.where(np.arange(15) == 7, np.nan, 800.0)])
    for row, got in zip(rows, _logsumexp_rows(rows)):
        assert _close_to_scipy(got, float(special.logsumexp(row))), row


def _reference_log_between(cum, x, y):
    """The per-limit algorithm: K15 partial panels and scipy's logsumexp.

    It sums in scipy's order, so it agrees with `log_between` to a few ulp.
    """
    x, y = max(x, cum.lo), min(y, cum.hi)
    if y <= x:
        return -math.inf
    starts = [p.a for p in cum.panels]
    i = max(int(np.searchsorted(starts, x, side="right")) - 1, 0)
    j = max(int(np.searchsorted(starts, y, side="right")) - 1, 0)
    if i == j:
        return kronrod_panel_log(cum.logf, x, y)[0]
    parts = [kronrod_panel_log(cum.logf, x, cum.panels[i].b)[0]
             if x > starts[i] else cum.panels[i].log_val]
    parts += [p.log_val for p in cum.panels[i + 1:j]]
    if y > starts[j]:
        parts.append(kronrod_panel_log(cum.logf, starts[j], y)[0])
    return float(special.logsumexp(parts))


def test_batched_log_between_matches_scalar():
    cum = LogCumulative(lambda x: np.sin(x) - 2.0 * x, 1.0, 9.0)
    starts = [p.a for p in cum.panels]
    ys = np.concatenate([starts, [1.0, 0.5, 9.0, 9.5, 12.0],
                         np.linspace(0.9, 9.3, 41)])
    for lo in (1.0, 0.5, 2.3, starts[3]):
        batched = cum.log_between(lo, ys)
        assert batched.shape == ys.shape
        for y, v in zip(ys, batched):
            assert v == cum.log_between(lo, float(y)), (lo, y)
            assert _close_to_scipy(v, _reference_log_between(cum, lo, y)), (lo, y)
    # an array of lower limits against one upper limit, as Fubini's check uses
    batched = cum.log_between(ys, 9.0)
    for x, v in zip(ys, batched):
        assert v == cum.log_between(float(x), 9.0), x
        assert _close_to_scipy(v, _reference_log_between(cum, x, 9.0)), x


def test_batched_k15_panels_equal_scalar_panels():
    # zero below x = 2, so the first interval's logf is all -inf
    logf = lambda x: np.where(x < 2.0, -np.inf, np.sin(x) - 2.0 * x)
    a = np.array([0.0, 1.5, 2.0, 3.0, 3.0])
    b = np.array([1.0, 2.5, 3.0, 7.0, 3.0 + 1e-9])
    log_vals, log_errs = kronrod_panel_log(logf, a, b)
    assert log_vals.shape == log_errs.shape == a.shape
    for k in range(len(a)):
        lv, le = kronrod_panel_log(logf, a[k], b[k])
        assert type(lv) is float and type(le) is float
        assert (lv, le) == (log_vals[k], log_errs[k]), k
    assert (log_vals[0], log_errs[0]) == (-math.inf, -math.inf)
    assert np.isfinite(log_vals[1:]).all() and np.isfinite(log_errs[1:]).all()


def test_value_only_k15_keeps_the_bits_of_log_val():
    # log_between asks the kernel for values only; they must be the full
    # kernel's log_val, bit for bit, including an all -inf row and a +inf row
    rng = np.random.default_rng(5)
    logf = lambda x: np.where(x < 2.0, -np.inf,
                              np.where(x > 40.0, np.inf, np.sin(x) - 2.0 * x))
    a = np.concatenate([[0.0, 39.0], rng.uniform(2.0, 30.0, 40)])
    b = a + np.concatenate([[1.0, 2.0], rng.uniform(1e-9, 5.0, 40)])
    log_vals, _ = kronrod_panel_log(logf, a, b)
    values = kronrod_panel_log(logf, a, b, err=False)
    assert values.tobytes() == log_vals.tobytes()
    assert values[0] == -math.inf and values[1] == -math.inf
    for k in (0, 2, 7):
        v = kronrod_panel_log(logf, a[k], b[k], err=False)
        assert type(v) is float and v == kronrod_panel_log(logf, a[k], b[k])[0]


def test_log_cumulative_keeps_its_error_estimate():
    cum = LogCumulative(lambda x: -x, 0.0, 5.0, rtol=1e-12)
    exact = math.log(-math.expm1(-5.0))
    assert cum.log_err <= cum.log_total + math.log(1e-12)
    assert abs(math.exp(cum.log_total) - math.exp(exact)) <= math.exp(cum.log_err) + 1e-15
    assert LogCumulative(lambda x: -x, 1.0, 1.0).log_err == -math.inf


def _counted(logf):
    calls = []

    def counted(x):
        calls.append(len(x))
        return logf(x)
    return counted, calls


def _one_split_reference(logf, a, b, rtol=1e-10, max_panels=2000, min_panels=1):
    """Worst-first bisection with one call of logf per split: the loop that
    refine-ahead replays."""
    if b <= a:
        return -math.inf, -math.inf, []
    edges = np.linspace(a, b, min_panels + 1)
    panels = _log_panels(logf, edges[:-1], edges[1:])
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
        panels += _log_panels(logf, [p.a, mid], [mid, p.b])
    panels.sort(key=lambda p: p.a)
    return float(log_total), float(log_err), panels


def _triangle_integrand():
    # int phi^{-3}(t) [int_1^t phi(s) ds] dt at n = 4, as _log_integral builds
    # it, across the power-log splice on [e, e^2]
    w = PowerLog(2.0)
    cum = LogCumulative(_log_power(w, 1), 1.1, 40.3, rtol=1e-12)
    return _log_power(w, -3, cum=cum), 1.1, 40.3


_INTEGRANDS = {
    "oscillating": lambda: (lambda x: np.sin(3.0 * x) - 0.5 * x, 0.0, 20.0),
    "zero_below_2": lambda: (
        lambda x: np.where(x < 2.0, -np.inf, np.sin(x) - 2.0 * x), 0.1, 9.3),
    "triangle": _triangle_integrand,
}


@pytest.mark.parametrize("rtol", [1e-10, 1e-12, 1e-14])
@pytest.mark.parametrize("min_panels", [1, 3, 8])
@pytest.mark.parametrize("integrand", sorted(_INTEGRANDS))
def test_refine_ahead_matches_one_split_per_call_bit_for_bit(integrand, min_panels,
                                                             rtol):
    logf, a, b = _INTEGRANDS[integrand]()
    ref_logf, ref_calls = _counted(logf)
    want = _one_split_reference(ref_logf, a, b, rtol=rtol, min_panels=min_panels)
    got_logf, calls = _counted(logf)
    got = adaptive_quad_log(got_logf, a, b, rtol=rtol, min_panels=min_panels)
    assert got[:2] == want[:2]
    assert got[2] == want[2]   # every field of every panel, in order
    splits = len(want[2]) - min_panels
    assert len(ref_calls) == 1 + splits
    if integrand != "triangle":   # criterion integrands are smooth: few splits
        assert splits >= 20
    if splits >= 20:
        assert len(calls) < splits


def test_refine_ahead_fails_where_one_split_per_call_fails():
    logf = lambda x: np.log(np.abs(np.sin(30.0 * x)) + 1e-3)
    with pytest.raises(QuadratureFailure) as want:
        _one_split_reference(logf, 0.0, 10.0, max_panels=50)
    with pytest.raises(QuadratureFailure) as got:
        adaptive_quad_log(logf, 0.0, 10.0, max_panels=50)
    assert str(got.value) == str(want.value)
    assert "exceeded 50 panels" in str(got.value)
    # the limit falls at the same panel count: one panel fewer than the
    # reference needs fails in both, and the count it needs passes in both
    logf = lambda x: np.sin(3.0 * x) - 0.5 * x
    need = len(_one_split_reference(logf, 0.0, 20.0, rtol=1e-12)[2])
    with pytest.raises(QuadratureFailure, match=f"exceeded {need - 1} panels"):
        adaptive_quad_log(logf, 0.0, 20.0, rtol=1e-12, max_panels=need - 1)
    assert len(adaptive_quad_log(logf, 0.0, 20.0, rtol=1e-12,
                                 max_panels=need)[2]) == need


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0),
                                  (0.0, math.nan), (math.nan, 1.0),
                                  (math.inf, 0.0)])
def test_non_finite_limits_are_refused(a, b):
    logf, calls = _counted(lambda x: -x)
    with pytest.raises(ValueError, match="finite"):
        adaptive_quad_log(logf, a, b)
    with pytest.raises(ValueError, match="finite"):
        LogCumulative(logf, a, b)
    assert calls == []
    # an empty finite interval is still the empty result
    assert adaptive_quad_log(logf, 1.0, 0.0) == (-math.inf, -math.inf, [])
    assert LogCumulative(logf, 1.0, 1.0).log_total == -math.inf


def test_log_between_row_blocks_equal_scalar_calls():
    cum = LogCumulative(lambda x: np.log(2.0 + np.sin(8.0 * x)) - 0.1 * x,
                        0.0, 40.0, rtol=1e-13)
    assert len(cum.panels) > 100
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 41.0, 600)
    y = x + rng.uniform(-2.0, 30.0, 600)   # some empty, some clipped
    cum.logf, calls = _counted(cum.logf)
    batched = cum.log_between(x, y)
    live = np.flatnonzero(np.minimum(y, 40.0) > np.maximum(x, 0.0))
    assert len(live) > 512 and len(calls) == 3   # blocks of 256: past 256 and 512
    scalar = np.array([cum.log_between(float(u), float(v)) for u, v in zip(x, y)])
    assert batched.tobytes() == scalar.tobytes()
    assert np.isfinite(batched[live]).all()


def test_log_between_makes_one_call_of_logf():
    cum = LogCumulative(lambda x: np.sin(x) - 2.0 * x, 1.0, 9.0)
    cum.logf, calls = _counted(cum.logf)
    cum.log_between(np.linspace(1.2, 8.8, 30)[:, None], np.array([2.0, 9.0]))
    assert len(calls) == 1


def test_cumulative_simpson_on_the_growth_bound_master_grid():
    # the 16,385-node grid of radial.lemma_bound_check at its default end
    # 20, whose step 19/16384 is exact, so scipy's unequal-step arithmetic
    # sees the same step everywhere
    x = np.linspace(1.0, 20.0, 16385)
    h = 19.0 / 16384
    for y in (np.exp(-2.0 * x) * (1.0 + x), np.sinh(x) ** -2.0, np.sin(7.0 * x)):
        got = cumulative_simpson(y, h)
        assert got.tobytes() == scipy_cumulative_simpson(y, x=x, initial=0.0).tobytes()
    # Simpson is exact on parabolas, up to rounding over 16,384 sums
    assert_allclose(cumulative_simpson(x ** 2, h), (x ** 3 - 1.0) / 3.0, rtol=1e-12)
