import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from weakmodel.errors import QuadratureFailure
from weakmodel.quadrature import (LogCumulative, _logsumexp_rows,
                                  adaptive_quad, adaptive_quad_log,
                                  kronrod_panel_log, logsumexp)


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


@pytest.mark.parametrize("min_panels", [1, 3, 8])
def test_adaptive_log_makes_one_call_per_split(min_panels):
    logf, calls = _counted(lambda x: np.sin(3.0 * x) - 0.5 * x)
    _, _, panels = adaptive_quad_log(logf, 0.0, 20.0, rtol=1e-12,
                                     min_panels=min_panels)
    assert len(panels) > min_panels   # it did split
    assert len(calls) == 1 + (len(panels) - min_panels)
    assert calls[0] == 15 * min_panels and set(calls[1:]) == {30}


def test_log_between_makes_one_call_of_logf():
    cum = LogCumulative(lambda x: np.sin(x) - 2.0 * x, 1.0, 9.0)
    cum.logf, calls = _counted(cum.logf)
    cum.log_between(np.linspace(1.2, 8.8, 30)[:, None], np.array([2.0, 9.0]))
    assert len(calls) == 1
