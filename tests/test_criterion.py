import math
import re
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from conftest import count_calls, write_tabulated_csv
from weakmodel.report import round12
from weakmodel.criterion import (CONVERGENT, DIVERGENT, INCONCLUSIVE,
                                 CriterionReport, _TailModel, _log_g,
                                 fubini_check, inner_tail, march_criterion,
                                 tail_certificate, transience_integral)
from weakmodel.errors import InvalidTolerance, NotConvergent, QuadratureFailure
from weakmodel.warp import (Euclidean, Hyperbolic, PowerGrowth, PowerLawGrowth,
                            PowerLog, PowerLogGrowth, Tabulated, load_tabulated_csv)


def march_verdict_truth(w, n):
    """Analytic ground truth from the tail exponents."""
    if isinstance(w, Hyperbolic):
        return CONVERGENT
    if isinstance(w, PowerLog):
        return CONVERGENT if (w.c > 1.0 if n == 2 else w.c > 0.5) else DIVERGENT
    p = 1.0 if isinstance(w, Euclidean) else w.p
    return CONVERGENT if (p > 1.0 and p * (n - 1) > 1.0) else DIVERGENT


def test_euclidean_n3_divergent_with_witness():
    rep = march_criterion(Euclidean(), 3, tol=1e-8)
    assert rep.verdict == DIVERGENT
    # inner integral is exactly 1/sigma, so the finite part is elementary
    R = rep.r_max
    assert_allclose(rep.value, math.log(R) - 1.0 + 1.0 / R, rtol=1e-9)
    assert "s^(-1)" in rep.tail_evidence


def test_hyperbolic_closed_form_value():
    # oracle: inner integral has antiderivative log tanh(t/2), then
    # substitution gives the square; cross-checked by scipy quadrature
    expect = (math.log(math.tanh(0.5))) ** 2 / 2.0
    oracle, oerr = quad(lambda s: -math.log(math.tanh(s / 2)) / math.sinh(s),
                        1.0, 200.0)
    assert_allclose(oracle, expect, atol=1e-9)
    rep = march_criterion(Hyperbolic(1.0), 2, tol=1e-8)
    assert rep.verdict == CONVERGENT
    assert abs(rep.value - expect) < 1e-6
    assert rep.error_bound < 1e-8
    assert rep.value >= 0


@pytest.mark.parametrize("c,n,verdict", [
    (0.4, 3, DIVERGENT), (0.6, 3, CONVERGENT),
    (1.2, 2, CONVERGENT), (0.8, 2, DIVERGENT),
    (0.5, 3, DIVERGENT), (1.0, 2, DIVERGENT),
])
def test_powerlog_thresholds(c, n, verdict):
    rep = march_criterion(PowerLog(c), n, tol=1e-8)
    assert rep.verdict == verdict


def test_powerlog_value_against_substitution_oracle():
    # n=3 flattens the outer weight, so the triangle integral collapses to
    # int_1^inf (tau-1) phi^-2; beyond e^2 substitute t = log tau exactly
    w = PowerLog(0.6)
    C = w.match_constant
    phi = lambda t: w.eval(t)[0]
    part1, _ = quad(lambda t: (t - 1) / phi(t) ** 2, 1.0, math.e ** 2, limit=200)
    part2, _ = quad(lambda t: (1 - math.exp(-t)) * t ** -1.2 / C ** 2,
                    2.0, np.inf, limit=200)
    rep = march_criterion(w, 3, tol=1e-8)
    assert_allclose(rep.value, part1 + part2, atol=1e-7)


def transience_verdict_truth(w, n):
    """Analytic ground truth for int_1^inf phi^{1-n}."""
    if isinstance(w, Hyperbolic):
        return CONVERGENT
    if isinstance(w, PowerLog):
        return CONVERGENT if (n >= 3 or w.c > 1.0) else DIVERGENT
    p = 1.0 if isinstance(w, Euclidean) else w.p
    return CONVERGENT if p * (n - 1) > 1.0 else DIVERGENT


@st.composite
def _metric_and_n(draw):
    # near-threshold parameters: p -> 1, p -> 1/(n-1), c -> 1/2, c -> 1
    n = draw(st.integers(2, 6))
    near = lambda x: st.floats(-1e-2, 1e-2).map(lambda d: x + d)
    family = draw(st.sampled_from(["euclidean", "hyperbolic", "power", "powerlog"]))
    if family == "euclidean":
        return Euclidean(), n
    if family == "hyperbolic":
        return Hyperbolic(draw(st.floats(0.05, 5.0))), n
    if family == "power":
        return PowerGrowth(draw(st.one_of(st.floats(0.2, 4.0), near(1.0),
                                          near(1.0 / (n - 1))))), n
    return PowerLog(draw(st.one_of(st.floats(0.0, 4.0), near(0.5),
                                   near(1.0)).map(abs))), n


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_metric_and_n())
def test_verdicts_match_the_analytic_truth(case):
    # every certified verdict is the analytic one; a value that cannot be
    # certified to tol is refused, never given a wrong verdict
    w, n = case
    for classify, truth in ((march_criterion, march_verdict_truth),
                            (transience_integral, transience_verdict_truth)):
        try:
            verdict = classify(w, n, tol=1e-8).verdict
        except QuadratureFailure:
            continue
        assert verdict == truth(w, n), (w, n, classify.__name__)


def _assert_within(bracket, ref):
    # the bracket is a pair of floats: it holds the reference up to the
    # rounding of a log of that size
    lo, hi = bracket
    slack = 2 * math.ulp(abs(ref))
    assert lo - slack <= ref <= hi + slack, (bracket, ref)


@pytest.mark.parametrize("t0", [math.log(10.4), 30.0, 700.0])
@pytest.mark.parametrize("c", [0.5000001, 0.6, 1.2, 8.0, 50.0, 200.0])
def test_powerlog_n3_double_tail_against_mpmath(c, t0):
    # at n = 3 the psi double tail is t0^{1-2c}/(2c-1) times
    # int_0^inf e^{-v} (1+v/t0)^{1-2c} dv, whose decay rate at 0 is k
    import mpmath as mp
    k = 1 + (2 * c - 1) / t0
    f = lambda v: mp.exp(-v) * (1 + v / t0) ** (1 - 2 * c)
    with mp.workdps(20):
        integral = mp.quad(f, [0] + [2 ** j / k for j in range(7)] + [mp.inf])
        ref = float((1 - 2 * c) * mp.log(t0) - mp.log(2 * c - 1) + mp.log(integral))
    _assert_within(_TailModel(PowerLogGrowth(c, 1.0), 3).log_psi_double(
        math.exp(t0)), ref)


@pytest.mark.parametrize("t0", [math.log(10.4), 700.0])
@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("c", [1, 3, 8])
def test_powerlog_double_tail_against_binomial_j(c, n, t0):
    # integer c: with t = (t+v) - v the inner integral J is a finite sum,
    # J(v) = (t0+v)^{1-2c} sum_j C(a,j) (-y)^j / (2c-1+j), y = v/(t0+v),
    # which cancels badly near y = 1, hence 60 digits
    import mpmath as mp
    a, p = c * (n - 3), 2 * c - 1
    with mp.workdps(60):
        t0m = mp.mpf(t0)
        coef = [mp.binomial(a, j) * (-1) ** j * p / mp.mpf(p + j)
                for j in range(a + 1)]

        def f(v):   # e^{-(n-2)v} J(v) / J(0)
            return (mp.exp(-(n - 2) * v) * (1 + v / t0m) ** (1 - 2 * c)
                    * mp.polyval(coef[::-1], v / (t0m + v)))
        k = (n - 2) + p / t0m
        # beyond v = 40 the integrand is below e^-80 of its start
        integral = mp.quad(f, [0, 1 / k, 4 / k, 16 / k, 40])
        ref = float((1 - 2 * c) * mp.log(t0m) - mp.log(p) + mp.log(integral))
    _assert_within(_TailModel(PowerLogGrowth(c, 1.0), n).log_psi_double(
        math.exp(t0)), ref)


@pytest.mark.parametrize("c,n,value,bound", [
    (32, 4, "0.405391853665", "3.24e-12"), (32, 5, "0.30922999699", "2.86e-12"),
    (32, 10, "0.136491221575", "1.12e-12"), (50, 4, "0.389914646464", "3.61e-12"),
    (50, 5, "0.298989975214", "1.81e-12"), (50, 10, "0.133007154683", "9.28e-13")])
def test_large_powerlog_exponent_keeps_its_report(c, n, value, bound):
    # from c ~ 32 I_y(p,q) underflows below the Beta mean, where the
    # continued fraction gives log G without forming it; value and bound
    # as printed, 12 and 3 digits
    printed = round12(march_criterion(PowerLog(c), n, tol=1e-8).to_json_dict())
    assert (repr(printed["value"]), repr(printed["error_bound"])) == (value, bound)


@pytest.mark.parametrize("n", [4, 5, 10])
@pytest.mark.parametrize("c", [0.51, 0.75, 1, 2, 3, 8, 32, 50])
def test_incomplete_beta_against_mpmath(c, n):
    # log G(y) = log(p B(p,q) I_y(p,q) / y^p) of the power-log double tail,
    # around the Beta(p,q) mean and around (p+1)/(p+q+2), where the
    # continued fraction turns to I_y(p,q) = 1 - I_{1-y}(q,p)
    import mpmath as mp
    p, q = 2 * c - 1, c * (n - 3) + 1
    mean, turn = p / (p + q), (p + 1) / (p + q + 2)
    ys = [0.05, 0.9] + [k * m for m in (mean, turn) for k in (0.5, 0.999, 1, 1.001)]
    got = _log_g(p, q, np.array(ys))
    with mp.workdps(40):
        P, Q = mp.mpf(p), mp.mpf(q)
        ref = [float(mp.log(P * mp.beta(P, Q) * mp.betainc(P, Q, 0, mp.mpf(y),
                                                           regularized=True))
                     - P * mp.log(mp.mpf(y))) for y in ys]
    assert_allclose(got, ref, rtol=0, atol=5e-13)


@pytest.mark.parametrize("r_max", [math.nan, math.inf, -math.inf])
def test_non_finite_r_max_is_refused(r_max):
    # unchecked, nan runs every doubling with nan budgets and inf overflows
    for classify, w, n in ((march_criterion, Hyperbolic(1.0), 2),
                           (transience_integral, PowerGrowth(2.0), 3)):
        with pytest.raises(ValueError, match="r_max must be finite"):
            classify(w, n, tol=1e-8, r_max=r_max)


def test_powerlog_tail_search_does_not_overflow():
    # (log r)^200 overflows long before the tail cutoff R e^48
    rep = march_criterion(PowerLog(200.0), 3, tol=1e-8)
    assert rep.verdict == CONVERGENT and rep.error_bound < 1e-8
    w, r = PowerLog(200.0), np.array([0.5, 5.0, 1e3, 1e30, 1e300])
    with np.errstate(over="ignore"):
        exact = np.log(w.eval(r)[0])
    far = ~np.isfinite(exact)
    assert far.tolist() == [False, False, False, True, True]
    assert np.array_equal(w.log_phi(r)[~far], exact[~far])
    assert_allclose(w.log_phi(r)[far], [math.log(w.match_constant) + math.log(x)
                                        + 200 * math.log(math.log(x))
                                        for x in r[far]], rtol=1e-15)


def test_transience_examples():
    rep = transience_integral(Euclidean(), 2, tol=1e-8)
    assert rep.verdict == DIVERGENT
    rep = transience_integral(Euclidean(), 3, tol=1e-8)
    assert rep.verdict == CONVERGENT
    assert_allclose(rep.value, 1.0, atol=1e-8)
    rep = transience_integral(Hyperbolic(1.0), 2, tol=1e-8)
    assert rep.verdict == CONVERGENT
    # antiderivative oracle: log tanh(t/2)
    assert_allclose(rep.value, -math.log(math.tanh(0.5)), atol=1e-8)


def test_fubini_identity():
    lhs, rhs = fubini_check(Euclidean(), 3, 10.0)
    expect = math.log(10.0) - 0.9       # elementary antiderivative
    assert_allclose(lhs, expect, rtol=1e-10)
    assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))
    lhs, rhs = fubini_check(Hyperbolic(1.0), 2, 5.0)
    assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))
    lhs, rhs = fubini_check(PowerGrowth(2.0), 3, 20.0)
    assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_march_implies_transience(closed_families):
    for w in closed_families:
        for n in (2, 3):
            m = march_criterion(w, n, tol=1e-6)
            t = transience_integral(w, n, tol=1e-6)
            if m.verdict == CONVERGENT:
                assert t.verdict == CONVERGENT, f"{w!r}, n={n}"


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("p", [0.6, 0.8, 1.0, 1.2, 1.5, 2.0, 3.0])
def test_power_family_law(p, n):
    rep = march_criterion(PowerGrowth(p), n, tol=1e-6)
    expect = CONVERGENT if (p > 1.0 and p * (n - 1) > 1.0) else DIVERGENT
    assert rep.verdict == expect


def test_verdict_invariant_under_r_max():
    for w, n in ((Hyperbolic(1.0), 2), (Euclidean(), 3), (PowerLog(0.6), 3),
                 (PowerGrowth(1.5), 2)):
        verdicts = {march_criterion(w, n, tol=1e-6, r_max=R).verdict
                    for R in (50.0, 100.0, 200.0)}
        assert len(verdicts) == 1, f"{w!r} n={n}: {verdicts}"


def test_value_stable_and_finite_part_monotone():
    w = PowerGrowth(1.5)
    reports = [march_criterion(w, 2, tol=1e-6, r_max=R)
               for R in (50.0, 100.0, 200.0)]
    vals = [r.value for r in reports]
    # the assembled value is R-independent within the error bounds
    for a, b in zip(reports, reports[1:]):
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-12
    # the certified tail shrinks monotonically under doubling
    tails = []
    for R in (50.0, 100.0, 200.0):
        cert = tail_certificate(w, 2, R)
        tails.append(math.exp(cert.log_cum + cert.log_inner[1]) + cert.double[1])
    assert tails[0] > tails[1] > tails[2]


def test_convergent_reports_satisfy_contract(closed_families):
    for w in closed_families:
        for n in (2, 3):
            rep = march_criterion(w, n, tol=1e-6)
            if rep.verdict == CONVERGENT:
                assert rep.error_bound < 1e-6
                assert rep.value >= 0
            else:
                assert rep.tail_evidence  # names the divergent comparison


def _printed_bound(x):
    report = CriterionReport(CONVERGENT, 1.0, x, "", 100.0)
    return round12(report.to_json_dict())["error_bound"]


@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_printed_error_bound_is_rounded_up(x):
    printed = _printed_bound(x)
    if printed == "Infinity":
        # the least 3-digit decimal >= x is above the largest double
        assert x > 1.79e308
        return
    if printed >= sys.float_info.min:   # subnormals carry fewer digits
        assert float(f"{printed:.3g}") == printed
    assert printed >= x
    # at most 1% above x, up to the rounding of the printed double
    slack = 2 * Fraction(math.ulp(printed))
    assert Fraction(printed) <= Fraction(x) * Fraction(101, 100) + slack


def test_printed_error_bound_passes_inf_and_nan():
    assert _printed_bound(math.inf) == "Infinity"
    assert _printed_bound(math.nan) == "NaN"
    rep = CriterionReport(CONVERGENT, 1.0, math.nan, "", 100.0)
    assert math.isnan(rep.to_json_dict()["error_bound"])
    rep.error_bound = math.inf
    assert rep.to_json_dict()["error_bound"] == math.inf


def test_invalid_tolerance():
    with pytest.raises(InvalidTolerance):
        march_criterion(Euclidean(), 2, tol=0.0)
    with pytest.raises(InvalidTolerance):
        transience_integral(Euclidean(), 2, tol=-1e-3)
    with pytest.raises(InvalidTolerance):
        fubini_check(Euclidean(), 2, 0.5)


@pytest.mark.parametrize("classify", [march_criterion, transience_integral])
@pytest.mark.parametrize("n", [3.5, 3.0, "3"])
def test_non_integer_dimension_is_refused(classify, n):
    # unchecked, n = 3.5 ran and march_criterion returned Convergent
    with pytest.raises(ValueError, match="dimension n must be an integer"):
        classify(Hyperbolic(1.0), n, tol=1e-8)


@pytest.mark.parametrize("classify", [march_criterion, transience_integral])
def test_boolean_tolerance_is_refused(classify):
    # unchecked, tol=True ran at tol 1
    with pytest.raises(InvalidTolerance):
        classify(Hyperbolic(1.0), 3, tol=True)


def test_unreachable_tolerance_fails_honestly():
    from weakmodel.errors import QuadratureFailure
    budget = (r"r_max={}: bound \S+ \(finite part \S+, cross term \S+, outer "
              r"tail \S+\)")
    # the finite part alone misses tol: a larger r_max cannot help, so the
    # first attempt is the only one
    with pytest.raises(QuadratureFailure) as info:
        march_criterion(Hyperbolic(1.0), 2, tol=1e-17)
    msg = str(info.value)
    assert msg.startswith("could not certify the value within tol")
    assert "(finite-part error alone exceeds tol)" in msg
    assert msg.count("finite part") == 1 and re.search(budget.format(60), msg)
    with pytest.raises(QuadratureFailure) as info:
        transience_integral(PowerGrowth(1.02), 2, tol=1e-14)
    msg = str(info.value)
    assert msg.startswith("could not certify the transience value within tol")
    assert "(finite-part error alone exceeds tol)" in msg
    assert msg.count("finite part") == 1 and "r_max=100: " in msg
    # tail-limited: every r_max tried, each with its error budget split
    with pytest.raises(QuadratureFailure) as info:
        march_criterion(PowerGrowth(1.02), 2, tol=1e-8)
    msg = str(info.value)
    assert msg.startswith("could not certify the value within tol")
    assert "alone exceeds" not in msg and msg.count("finite part") == 4
    for R in (100, 200, 400, 800):
        assert re.search(budget.format(R), msg), R


def test_doubling_stops_at_the_end_of_tabulated_data():
    # a known power law over [1e-4, 3000]: R doubles from 400 to 1600, then
    # to just inside the hull, and stops there instead of leaving the data
    grid = np.geomspace(1e-4, 3000.0, 400)
    w = Tabulated(grid, *PowerGrowth(1.5).eval(grid),
                  growth=PowerLawGrowth(1.5, 1.0))
    with pytest.raises(QuadratureFailure) as info:
        march_criterion(w, 2, tol=1e-8, r_max=400)
    msg = str(info.value)
    assert "(r_max reached the end of the tabulated hull at 2985)" in msg
    assert msg.count("finite part") == 4
    for R in (400, 800, 1600, 2985):
        assert f"r_max={R}: bound " in msg, R


def test_rounding_limited_refusal_names_every_part_and_stops():
    # c just above 1/2: the value is about 7e6, so its 1e-14 rounding term
    # alone exceeds tol and no larger r_max can help
    start = time.perf_counter()
    with pytest.raises(QuadratureFailure) as info:
        march_criterion(PowerLog(0.5000001), 3, tol=1e-8)
    elapsed = time.perf_counter() - start
    msg = str(info.value)
    assert "(finite-part error plus rounding exceed tol)" in msg
    assert msg.count("r_max=") == 1
    number = r"(\S+?)"
    parts = re.search(rf"bound {number} \(finite part {number}, cross term {number}, "
                      rf"outer tail {number}\) \+ rounding {number}$", msg)
    bound, *terms = (float(v) for v in parts.groups())
    # each part is printed to 3 digits
    assert abs(sum(terms) - bound) <= 5e-3 * bound
    assert terms[-1] >= 1e-8
    assert elapsed < 0.2


@pytest.mark.parametrize("w, part", [(Hyperbolic(1.0), "finite"),
                                     (PowerGrowth(1.5), "finite"),
                                     (PowerGrowth(2.0), "double_tail")],
                         ids=["hyperbolic", "powergrowth", "powergrowth-log-tail"])
def test_finite_part_evaluates_phi_once_per_node_vector(monkeypatch, w, part):
    # the integrand phi^(1-n)(t) * int_1^t phi^(n-3) needs one log_phi call
    # for phi^(1-n) and one for all partial panels of the cumulative integral;
    # the refined double tail of power growth builds the same product in
    # s = log(t/R)
    from weakmodel import criterion
    log_phi_calls = count_calls(monkeypatch, w, "log_phi")
    per_vector = []
    quad = criterion.adaptive_quad_log

    def spy(logf, *args, **kwargs):
        def counted(ts):
            before = len(log_phi_calls)
            out = logf(ts)
            per_vector.append(len(log_phi_calls) - before)
            return out
        return quad(counted, *args, **kwargs)

    monkeypatch.setattr(criterion, "adaptive_quad_log", spy)
    if part == "finite":
        F, F_err, _ = criterion._finite(w, 2, 30.0, True, 1e-11)
        assert F > 0 and F_err < 1e-9 * F
    else:
        model = _TailModel(w.growth_class, 2)
        lo, hi = criterion._refined_log_tail(w, 2, model, 100.0, model.r0(100.0),
                                             double=True)
        assert lo <= hi < lo + 1e-9
    assert per_vector and max(per_vector) <= 2


# (metric, n, R): log_cum, log_inner, double of tail_certificate, recorded
# before the refined tails shared one routine; one metric per refined kind
_PINNED_TAILS = [
    ((Hyperbolic(1.0), 2, 30.0), -0.2588525549667824,
     (-29.30685281944036, -29.306852819439754),
     (1.7513021525388468e-26, 1.7513021525397554e-26)),
    ((Hyperbolic(1.0), 3, 30.0), 3.3672958299864737,
     (-59.30685281944035, -59.306852819439754),
     (8.756510762695462e-27, 8.756510762697454e-27)),
    ((PowerGrowth(2.0), 3, 100.0), 4.595119850134589,
     (-14.914182844147108, -14.914182844146529),
     (1.666616669047097e-05, 1.6666166690478724e-05)),
    ((PowerLog(3.0), 3, 100.0), 4.595119850134589,
     (-12.167803020029725, -12.167803020028432),
     (0.0005282787990690751, 0.0005282787990690798)),
]


@pytest.mark.parametrize("args, log_cum, log_inner, double", _PINNED_TAILS,
                         ids=["exp-n2", "exp-n3", "power-n3", "powerlog-n3"])
def test_refined_tails_match_recorded_values(args, log_cum, log_inner, double):
    cert = tail_certificate(*args)
    assert cert.r_max == args[2]
    assert_allclose(cert.log_cum, log_cum, rtol=1e-13)
    assert_allclose(cert.log_inner, log_inner, rtol=1e-13)
    assert_allclose(cert.double, double, rtol=1e-13)
    R, inner = inner_tail(*args)
    assert R == args[2]
    assert_allclose(inner, log_inner, rtol=1e-13)


def test_tail_certificate_requires_convergence():
    with pytest.raises(NotConvergent):
        tail_certificate(Euclidean(), 3, 50.0)


# ---------------------------------------------------------------------------
# Unknown growth: tabulated data and octave extrapolation
# ---------------------------------------------------------------------------

def test_tabulated_hyperbolic_convergent(tmp_path):
    w = Hyperbolic(1.0)
    path = write_tabulated_csv(tmp_path / "h.csv", w,
                               np.geomspace(1e-4, 80.0, 6000))
    t = load_tabulated_csv(path)
    rep = march_criterion(t, 2, tol=1e-4)
    assert rep.verdict == CONVERGENT
    assert abs(rep.value - (math.log(math.tanh(0.5))) ** 2 / 2.0) < 1e-3


def test_tabulated_euclidean_divergent(tmp_path):
    path = write_tabulated_csv(tmp_path / "e.csv", Euclidean(),
                               np.geomspace(1e-4, 150.0, 4000))
    t = load_tabulated_csv(path)
    rep = march_criterion(t, 3, tol=1e-6)
    assert rep.verdict == DIVERGENT


def test_tabulated_log_threshold_inconclusive(tmp_path):
    # c = 1 at n = 2 sits on the threshold; octave ratios hover just below 1
    path = write_tabulated_csv(tmp_path / "pl.csv", PowerLog(1.0),
                               np.geomspace(1e-4, 150.0, 4000))
    t = load_tabulated_csv(path)
    rep = march_criterion(t, 2, tol=1e-8)
    assert rep.verdict == INCONCLUSIVE


def test_tabulated_short_hull_inconclusive(tmp_path):
    path = write_tabulated_csv(tmp_path / "s.csv", Hyperbolic(1.0),
                               np.geomspace(1e-4, 10.0, 500))
    t = load_tabulated_csv(path)
    rep = march_criterion(t, 2, tol=1e-6)
    assert rep.verdict == INCONCLUSIVE


def test_tabulated_with_trusted_growth(tmp_path):
    # a user-supplied growth class upgrades tabulated data from heuristic
    # extrapolation to certified sandwich bounds, clipped to the data hull
    from weakmodel.warp import ExponentialGrowth
    w = Hyperbolic(1.0)
    path = write_tabulated_csv(tmp_path / "hg.csv", w,
                               np.geomspace(1e-4, 80.0, 6000))
    t = load_tabulated_csv(path, growth=ExponentialGrowth(rate=1.0, scale=0.5))
    rep = march_criterion(t, 2, tol=1e-3)
    assert rep.verdict == CONVERGENT
    assert abs(rep.value - (math.log(math.tanh(0.5))) ** 2 / 2.0) < 1e-3
    rep_t = transience_integral(t, 2, tol=1e-3)
    assert rep_t.verdict == CONVERGENT
