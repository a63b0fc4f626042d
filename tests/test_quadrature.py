import heapq
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from weakmodel import quadrature
from weakmodel.errors import QuadratureFailure
from weakmodel.quadrature import (_WG, _WK, _XK, LogCumulative,
                                  _logsumexp_rows, adaptive_quad_log,
                                  kronrod_panel_log, log_prefix, logsumexp)
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
    logv, logerr, _ = adaptive_quad_log(lambda x: np.log(f(x)), [0.0, 20.0])
    assert_allclose(math.exp(logv), lin, rtol=1e-10)


def test_log_space_handles_underflow():
    # integrand e^{-500 x} underflows linearly on most of the range
    logv, _, _ = adaptive_quad_log(lambda x: -500.0 * x, [1.0, 40.0])
    assert_allclose(logv, -500.0 - math.log(500.0), rtol=1e-12)


def test_budget_exhaustion_raises():
    wild = lambda x: np.abs(np.sin(1000.0 * x)) + 1e-30
    with pytest.raises(QuadratureFailure):
        adaptive_quad_log(lambda x: np.log(wild(x)), [0.0, 10.0],
                          rtol=1e-13, max_panels=8)


def test_log_cumulative_consistency():
    cum = LogCumulative(lambda x: np.sin(x) - 2.0 * x, 1.0, 9.0)
    # the suffix at each panel start is the log-sum of the panels from there on
    for k, a in enumerate(cum.panels.a):
        want = float(special.logsumexp(cum.panels.log_val[k:]))
        assert _close_to_scipy(cum.log_between(a), want), k
    assert_allclose(cum.log_between(1.0), cum.log_total, rtol=1e-14)
    # agrees with a direct adaptive integral on a sub-interval
    direct, _, _ = adaptive_quad_log(lambda x: np.sin(x) - 2.0 * x, [2.5, 9.0])
    assert_allclose(cum.log_between(2.5), direct, atol=1e-9)


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


def _reference_log_between(cum, x):
    """The per-limit algorithm: the kernel's head [x, b_i] and scipy's
    logsumexp of it and the later panels.

    It sums in scipy's order, so it agrees with `log_between` to a few ulp.
    """
    x = min(max(x, cum.lo), cum.hi)
    if x == cum.hi:
        return -math.inf
    i = int(np.searchsorted(cum.panels.a, x, side="right")) - 1
    head = kronrod_panel_log(cum.logf, 1, 0, np.array([x]), cum.panels.b[i:i + 1])[0, 1]
    return float(special.logsumexp(np.r_[head, cum.panels.log_val[i + 1:]]))


def test_batched_log_between_matches_scalar():
    cum = LogCumulative(lambda x: np.sin(x) - 2.0 * x, 1.0, 9.0)
    starts = cum.panels.a
    xs = np.concatenate([starts, [1.0, 0.5, 9.0, 9.5, 12.0],
                         np.linspace(0.9, 9.3, 41)])
    batched = cum.log_between(xs)
    assert batched.shape == xs.shape
    for x, v in zip(xs, batched):
        assert v == cum.log_between(float(x)), x
        assert _close_to_scipy(v, _reference_log_between(cum, x)), x
    # a limit on a panel's start reads that panel whole; at and past hi, -inf
    assert cum.log_between(starts).tobytes() == cum._after[:-1].tobytes()
    assert cum.log_between(9.0) == cum.log_between(12.0) == -math.inf
    assert cum.log_between(xs.reshape(-1, 2)).tobytes() == batched.tobytes()


def test_batched_k15_panels_equal_scalar_panels():
    # zero below x = 2 and +inf above 40: the first interval's logf is all
    # -inf and the second's holds +inf, and both rows are -inf
    rng = np.random.default_rng(5)
    logf = lambda x: np.where(x < 2.0, -np.inf,
                              np.where(x > 40.0, np.inf, np.sin(x) - 2.0 * x))
    a = np.concatenate([[0.0, 39.0, 1.5, 2.0, 3.0, 3.0], rng.uniform(2.0, 30.0, 40)])
    b = a + np.concatenate([[1.0, 2.0, 1.0, 1.0, 4.0, 1e-9], rng.uniform(1e-9, 5.0, 40)])
    for q in ((1, 0), (-3, 1)):
        rows = kronrod_panel_log(logf, *q, a, b)
        assert rows.shape == (len(a), 9)
        for k in range(len(a)):
            one = kronrod_panel_log(logf, *q, a[k:k + 1], b[k:k + 1])
            assert one.tobytes() == rows[k:k + 1].tobytes(), (q, k)
        assert (rows[:2] == -math.inf).all()
        # [1.5, 2.5] holds zeros of the integrand at q = (1, 0), poles at (-3, 1)
        assert np.isfinite(rows[2 if q[0] > 0 else 3:, 1]).all()
        assert (rows[2, :3] == -math.inf).all() == (q[0] < 0)


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


def _one_call_per_panel(monkeypatch):
    """Make the loop's kernel compute its panels one call each."""
    batched = quadrature.kronrod_panel_log

    def single(logf, q_out, q_in, a, b):
        return np.concatenate([batched(logf, q_out, q_in, a[k:k + 1], b[k:k + 1])
                               for k in range(len(a))])
    monkeypatch.setattr(quadrature, "kronrod_panel_log", single)


_INTEGRANDS = {
    "oscillating": (lambda x: np.sin(3.0 * x) - 0.5 * x, 0.0, 20.0, None),
    "zero_below_2": (lambda x: np.where(x < 2.0, -np.inf, np.sin(x) - 2.0 * x),
                     0.1, 9.3, None),
    # int phi^{-3}(t) [int_1.1^t phi(s) ds] dt at n = 4, as the criterion's
    # pass builds it, across the power-log splice on [e, e^2]
    "triangle": (PowerLog(2.0).log_phi, 1.1, 40.3, (-3, 1)),
}


@pytest.mark.parametrize("rtol", [1e-10, 1e-12, 1e-14])
@pytest.mark.parametrize("panels", [1, 3, 8])
@pytest.mark.parametrize("integrand", sorted(_INTEGRANDS))
def test_refine_ahead_matches_one_split_per_call_bit_for_bit(integrand, panels,
                                                             rtol, monkeypatch):
    # each round splits every panel above its share in one kernel call; the
    # kernels compute each panel on its own, so the result has the bits of
    # one call per split panel, with far fewer calls of logf
    logf, a, b, triangle = _INTEGRANDS[integrand]
    edges = np.linspace(a, b, panels + 1)
    got_logf, calls = _counted(logf)
    got = adaptive_quad_log(got_logf, edges, rtol=rtol, triangle=triangle)
    _one_call_per_panel(monkeypatch)
    ref_logf, ref_calls = _counted(logf)
    want = adaptive_quad_log(ref_logf, edges, rtol=rtol, triangle=triangle)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2].tobytes() == want[2].tobytes()   # every field of every panel
    assert len(ref_calls) == len(want[2]) + (len(want[2]) - panels) // 3
    assert len(calls) < len(ref_calls) // 4
    if integrand != "triangle":   # criterion integrands are smooth: few panels
        assert len(want[2]) >= 20


def test_refine_ahead_fails_where_one_split_per_call_fails(monkeypatch):
    # the loop refuses past max_panels with one message, one kernel call per
    # panel or not; a budget of the panels a run ends with passes, and a
    # quarter of it, at most the panels of its last round, fails
    wild = lambda x: np.log(np.abs(np.sin(30.0 * x)) + 1e-3)
    smooth = lambda x: np.sin(3.0 * x) - 0.5 * x
    need = len(adaptive_quad_log(smooth, [0.0, 20.0], rtol=1e-12)[2])
    for one_per_panel in (False, True):
        if one_per_panel:
            _one_call_per_panel(monkeypatch)
        with pytest.raises(QuadratureFailure, match=r"^log-space quadrature on "
                           r"\[0, 10\] exceeded 50 panels$"):
            adaptive_quad_log(wild, [0.0, 10.0], max_panels=50)
        with pytest.raises(QuadratureFailure, match=f"exceeded {need // 4} panels$"):
            adaptive_quad_log(smooth, [0.0, 20.0], rtol=1e-12, max_panels=need // 4)
        assert len(adaptive_quad_log(smooth, [0.0, 20.0], rtol=1e-12,
                                     max_panels=need)[2]) == need


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0),
                                  (0.0, math.nan), (math.nan, 1.0),
                                  (math.inf, 0.0)])
def test_non_finite_limits_are_refused(a, b):
    logf, calls = _counted(lambda x: -x)
    with pytest.raises(ValueError, match="finite"):
        adaptive_quad_log(logf, [a, b])
    with pytest.raises(ValueError, match="finite"):
        LogCumulative(logf, a, b)
    assert calls == []
    # an empty finite interval is still the empty result
    log_val, log_err, panels = adaptive_quad_log(logf, [1.0, 0.0])
    assert (log_val, log_err, len(panels)) == (-math.inf, -math.inf, 0)
    assert LogCumulative(logf, 1.0, 1.0).log_total == -math.inf


def test_log_between_row_blocks_equal_scalar_calls():
    cum = LogCumulative(lambda x: np.log(2.0 + np.sin(8.0 * x)) - 0.1 * x,
                        0.0, 40.0, rtol=1e-13)
    assert len(cum.panels) > 100
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 41.0, 600)   # some clipped at each end
    cum.logf, calls = _counted(cum.logf)
    batched = cum.log_between(x)
    assert calls == [600 * 15]   # the 600 heads in one call
    scalar = np.array([cum.log_between(float(u)) for u in x])
    assert batched.tobytes() == scalar.tobytes()
    inside = x < 40.0
    assert np.isfinite(batched[inside]).all() and (batched[~inside] == -math.inf).all()


def test_log_between_makes_one_call_of_logf():
    cum = LogCumulative(lambda x: np.sin(x) - 2.0 * x, 1.0, 9.0)
    cum.logf, calls = _counted(cum.logf)
    assert cum.log_between(np.linspace(1.2, 8.8, 60).reshape(30, 2)).shape == (30, 2)
    assert len(calls) == 1


def _euclidean_n3_pass(rtol=1e-12):
    """The growth bound's pass at phi = r, n = 3: f = r^-2, h = 1, with the
    triangle int_1^x t^-2 (t - 1) = log x - 1 + 1/x."""
    return adaptive_quad_log(np.log, np.geomspace(1.0, 20.0, 9), rtol=rtol,
                             triangle=(-2, 0))


def test_log_prefix_reads_the_closed_form_at_any_radius():
    log_total, _, panels = _euclidean_n3_pass()
    x = np.r_[1.0, np.random.default_rng(3).uniform(1.0, 20.0, 200), 20.0]
    tri, int_f, int_h = np.exp(log_prefix(np.log, (-2, 0), panels, x))
    # the closed form cancels near x = 1, where it is only good to an ulp of 1
    assert_allclose(tri, np.log(x) - 1.0 + 1.0 / x, rtol=1e-13, atol=1e-15)
    assert_allclose(int_f, 1.0 - 1.0 / x, rtol=1e-13, atol=0.0)
    assert_allclose(int_h, x - 1.0, rtol=1e-13, atol=0.0)
    # the span's end reads the whole pass, up to the order of its sums
    assert_allclose(log_prefix(np.log, (-2, 0), panels, 20.0), log_total, rtol=1e-14)


def test_log_prefix_at_panel_starts_is_the_sum_before_them():
    _, _, panels = _euclidean_n3_pass()
    logf, calls = _counted(np.log)
    got = log_prefix(logf, (-2, 0), panels, panels.a)
    assert calls == [len(panels) * 15]   # every partial panel in one call
    log_i, log_a, log_b = panels.log_val.T
    log_p = np.r_[-math.inf, np.logaddexp.accumulate(log_i)[:-1]]
    for row, whole in zip(got, (np.logaddexp(log_p + log_a, log_b), log_a, log_i)):
        assert row.tobytes() == np.r_[-math.inf, np.logaddexp.accumulate(whole)[:-1]].tobytes()


def test_log_prefix_batched_equals_scalar_reads():
    _, _, panels = adaptive_quad_log(PowerLog(2.0).log_phi, np.geomspace(1.0, 40.3, 9),
                                     rtol=1e-12, triangle=(-3, 1))
    x = np.random.default_rng(11).uniform(1.0, 40.3, 60)
    batched = log_prefix(PowerLog(2.0).log_phi, (-3, 1), panels, x.reshape(30, 2))
    assert batched.shape == (3, 30, 2) and np.isfinite(batched).all()
    scalar = np.column_stack([log_prefix(PowerLog(2.0).log_phi, (-3, 1), panels, u) for u in x])
    assert batched.reshape(3, -1).tobytes() == scalar.tobytes()
    # no panels: every read is empty
    empty = adaptive_quad_log(np.log, [1.0, 1.0], triangle=(-2, 0))[2]
    assert (log_prefix(np.log, (-2, 0), empty, [1.0, 1.0]) == -math.inf).all()


def test_legendre_integrals_match_numpys_legint():
    # int_{-1}^x P_k by the antiderivative (P_k+1 - P_k-1)/(2k + 1), against
    # numpy's Legendre series integrated from -1; _S15 is built from them
    x = np.linspace(-1.0, 1.0, 7)
    got = quadrature.legendre_integrals(quadrature.legendre(x, 16))
    assert len(got) == 15
    for k, row in enumerate(got):
        c = np.polynomial.legendre.legint(np.eye(15)[k], lbnd=-1.0)
        assert_allclose(row, np.polynomial.legendre.legval(x, c), rtol=0, atol=1e-15)
    assert_allclose(quadrature._S15 @ np.ones(15), _XK + 1.0, rtol=0, atol=1e-14)
