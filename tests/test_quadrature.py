import heapq
import math

import numpy as np
import pytest
from numpy.polynomial import legendre as legendre_series
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


def _cumulative(logf, *edges, rtol=1e-11):
    """The LogCumulative of the panels of one pass over each of the
    adjacent `edges`, in order."""
    passes = [adaptive_quad_log(logf, e, rtol=rtol)[2] for e in edges]
    return LogCumulative(logf, np.concatenate(passes).view(np.recarray))


_NINE = np.linspace(1.0, 9.0, 9)


def test_log_cumulative_consistency():
    cum = _cumulative(lambda x: np.sin(x) - 2.0 * x, _NINE)
    # the suffix at each panel start is the log-sum of the panels from there on
    for k, a in enumerate(cum.panels.a):
        want = float(special.logsumexp(cum.panels.log_val[k:]))
        assert _close_to_scipy(cum.log_between(a), want), k
    assert_allclose(cum.log_between(1.0), logsumexp(cum.panels.log_val), rtol=1e-14)
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
    """The per-limit algorithm: the head [x, b_i] of the interpolant through
    panel i's K15 values, its mirrored Legendre series integrated by numpy's
    `legint` and summed by `legval`, and scipy's logsumexp of it and the
    later panels.

    It sums in other orders, so it agrees with `log_between` to a few ulp.
    """
    x = min(max(x, cum.panels.a[0]), cum.panels.b[-1])
    if x == cum.panels.b[-1]:
        return -math.inf
    i = int(np.searchsorted(cum.panels.a, x, side="right")) - 1
    a, b = cum.panels.a[i], cum.panels.b[i]
    half = 0.5 * (b - a)
    g = cum.logf(0.5 * (a + b) + half * _XK)
    c = quadrature._TO_LEGENDRE @ np.exp(g - g.max()) * (-1.0) ** np.arange(15)
    tail = legendre_series.legval((b - x) / half - 1.0, legendre_series.legint(c, lbnd=-1.0))
    head = math.log(half) + g.max() + math.log(tail)
    return float(special.logsumexp(np.r_[head, cum.panels.log_val[i + 1:]]))


def test_batched_log_between_matches_scalar():
    cum = _cumulative(lambda x: np.sin(x) - 2.0 * x, _NINE)
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
    # the summed estimates of its panels, here of two passes
    cum = _cumulative(lambda x: -x, [0.0, 1.0], np.linspace(1.0, 5.0, 9), rtol=1e-12)
    exact = math.log(-math.expm1(-5.0))
    log_total = cum.log_between(0.0)
    assert cum.log_err == logsumexp(cum.panels.log_err)
    assert cum.log_err <= log_total + math.log(1e-12)
    assert abs(math.exp(log_total) - math.exp(exact)) <= math.exp(cum.log_err) + 1e-15


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
    assert calls == []
    # an empty finite interval is still the empty result
    log_val, log_err, panels = adaptive_quad_log(logf, [1.0, 0.0])
    assert (log_val, log_err, len(panels)) == (-math.inf, -math.inf, 0)


def test_log_between_row_blocks_equal_scalar_calls():
    cum = _cumulative(lambda x: np.log(2.0 + np.sin(8.0 * x)) - 0.1 * x,
                      np.linspace(0.0, 40.0, 9), rtol=1e-13)
    assert len(cum.panels) > 100
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 41.0, 600)   # some clipped at each end
    cum.logf, calls = _counted(cum.logf)
    batched = cum.log_between(x)
    # the 600 heads in one call, on the nodes of the panels that hold them
    held = np.unique(np.searchsorted(cum.panels.a, np.clip(x, 0.0, 40.0), side="right") - 1)
    assert calls == [len(held) * 15] and len(held) < 600
    scalar = np.array([cum.log_between(float(u)) for u in x])
    assert batched.tobytes() == scalar.tobytes()
    inside = x < 40.0
    assert np.isfinite(batched[inside]).all() and (batched[~inside] == -math.inf).all()


def test_log_between_makes_one_call_of_logf():
    cum = _cumulative(lambda x: np.sin(x) - 2.0 * x, _NINE)
    cum.logf, calls = _counted(cum.logf)
    assert cum.log_between(np.linspace(1.2, 8.8, 60).reshape(30, 2)).shape == (30, 2)
    assert len(calls) == 1 and calls[0] <= 15 * len(cum.panels) < 60 * 15


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_log_prefix_refuses_x_outside_the_span_and_keeps_its_ends():
    # below the first panel a read would be a backward panel, past the last
    # one K15 panel stretched over [a_k, x]: both are refused by name
    _, _, panels = _euclidean_n3_pass()
    for x in (0.97, np.nextafter(1.0, 0.0), np.nextafter(20.0, 21.0), 21.0, math.nan):
        with pytest.raises(ValueError, match=rf"x = {x:g} lies outside the panels' "
                                             r"span \[1, 20\]"):
            log_prefix(np.log, (-2, 0), panels, [1.5, x])
    ends = log_prefix(np.log, (-2, 0), panels, [1.0, 20.0])
    assert (ends[:, 0] == -math.inf).all()
    # the span's end reads the last panel whole: the sums before it, then
    # that panel's own bits
    log_i, log_a, log_b = panels.log_val.T
    log_p = np.r_[-math.inf, np.logaddexp.accumulate(log_i)[:-1]]
    for got, whole in zip(ends[:, 1], (np.logaddexp(log_p + log_a, log_b), log_a, log_i)):
        assert got == np.logaddexp(np.logaddexp.accumulate(whole[:-1])[-1], whole[-1])


def test_log_prefix_batched_equals_scalar_reads():
    _, _, panels = adaptive_quad_log(PowerLog(2.0).log_phi, np.geomspace(1.0, 40.3, 9),
                                     rtol=1e-12, triangle=(-3, 1))
    x = np.random.default_rng(11).uniform(1.0, 40.3, 60)
    batched = log_prefix(PowerLog(2.0).log_phi, (-3, 1), panels, x.reshape(30, 2))
    assert batched.shape == (3, 30, 2) and np.isfinite(batched).all()
    scalar = np.column_stack([log_prefix(PowerLog(2.0).log_phi, (-3, 1), panels, u) for u in x])
    assert batched.reshape(3, -1).tobytes() == scalar.tobytes()
    # nor do a point's bits depend on the other panels a batch reads
    wider = log_prefix(PowerLog(2.0).log_phi, (-3, 1), panels, np.r_[x, panels.a, 40.3])
    assert wider[:, :60].tobytes() == scalar.tobytes()
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


def _mp_hyperbolic_columns(n, x):
    """40-digit (triangle, int f, int h) over [1, x] at phi = sinh, f = phi^(1-n),
    h = phi^(n-3), with int_1^t h in closed form for n in {2, 3, 4}."""
    import mpmath as mp
    with mp.workdps(40):
        H = {2: lambda t: mp.log(mp.tanh(t / 2)) - mp.log(mp.tanh(mp.mpf(1) / 2)),
             3: lambda t: t - 1, 4: lambda t: mp.cosh(t) - mp.cosh(1)}[n]
        x = mp.mpf(float(x))
        return [float(mp.quad(g, [1, x])) for g in (
            lambda t: mp.sinh(t) ** (1 - n) * H(t), lambda t: mp.sinh(t) ** (1 - n),
            lambda t: mp.sinh(t) ** (n - 3))]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [2, 3, 4])
def test_log_prefix_within_its_pass_error_of_mpmath(n):
    # the partial panels [a_k, x] integrate the interpolant through their
    # panel's own K15 nodes: each column lies within the whole pass's error
    # estimate of the 40-digit value, at panel starts, inside panels and at
    # the span's end
    logf = lambda t: np.log(np.sinh(t))
    _, log_err, panels = adaptive_quad_log(
        logf, np.geomspace(1.0, 12.0, 9), rtol=1e-12, triangle=(1 - n, n - 3))
    x = np.r_[panels.a[1::3], np.random.default_rng(n).uniform(1.0, 12.0, 12), 12.0]
    got = np.exp(log_prefix(logf, (1 - n, n - 3), panels, x))
    for j, u in enumerate(x):
        exact = _mp_hyperbolic_columns(n, u)
        assert np.all(np.abs(got[:, j] - exact) <= np.exp(log_err)), (u, got[:, j], exact)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_log_between_within_its_error_of_mpmath():
    # tau's integrand at phi = sinh, on tau's two sets of panels: 16 equal
    # in log r over [1e-3, 1], then a criterion-like pass over [1, 30].  The
    # heads [x, b_i] read from panel i's own nodes keep int_x^30 within the
    # panels' summed error estimate
    import mpmath as mp
    cum = _cumulative(lambda t: -np.log(np.sinh(t)), np.geomspace(1e-3, 1.0, 17),
                      np.geomspace(1.0, 30.0, 9), rtol=1e-12)
    x = np.r_[cum.panels.a[1::4], np.random.default_rng(3).uniform(1e-3, 30.0, 12)]
    got = np.exp(cum.log_between(x))
    with mp.workdps(40):
        for u, v in zip(x, got):
            exact = mp.quad(lambda t: 1 / mp.sinh(t), [mp.mpf(float(u)), 30])
            assert abs(v - float(exact)) <= math.exp(cum.log_err), (u, v, exact)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reads_on_a_panel_end_warn_of_nothing():
    # a head [x, b_i] at x = b_i, and a prefix just inside its panel, are
    # empty or tiny: the guarded series gives -inf or a finite log, never a
    # warning; the span's end reads -inf (heads) and a finite whole pass (prefix)
    cum = _cumulative(lambda x: np.sin(x) - 2.0 * x, _NINE)
    ends = cum.panels.b
    assert cum.log_between(9.0) == -math.inf
    assert np.isfinite(cum.log_between(np.nextafter(ends, 0.0))).all()
    assert np.isfinite(cum.log_between(ends[:-1])).all()
    _, _, panels = _euclidean_n3_pass()
    near = log_prefix(np.log, (-2, 0), panels, np.r_[np.nextafter(panels.a, 30.0), panels.b])
    assert not np.isnan(near).any() and np.isfinite(near[:, -1]).all()
