import json
import math
import re
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from conftest import count_calls, fubini_check, write_tabulated_csv
from weakmodel.report import round12
from weakmodel.criterion import (CONVERGENT, DIVERGENT, INCONCLUSIVE,
                                 CriterionReport, _start_radius, _TailModel, _log_g,
                                 classify, march_criterion, tail_certificate,
                                 transience_integral)
from weakmodel.errors import (InvalidFamily, InvalidTolerance, NotConvergent,
                              OutOfDomain, QuadratureFailure)
from weakmodel.warp import (Euclidean, Hyperbolic, PowerGrowth, PowerLawGrowth,
                            PowerLog, PowerLogGrowth, Tabulated, WarpingFunction,
                            load_tabulated_csv)


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
def _metric_and_n(draw, dims=st.integers(2, 6)):
    # near-threshold parameters: p -> 1, p -> 1/(n-1), c -> 1/2, c -> 1
    n = draw(dims)
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
    _assert_within(_TailModel(PowerLog(c), 3).log_psi_double(math.exp(t0)), ref)


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
    _assert_within(_TailModel(PowerLog(c), n).log_psi_double(math.exp(t0)), ref)


@pytest.mark.parametrize("c,n,value,bound", [
    (32, 4, "0.405391853607", "2.46e-13"), (32, 5, "0.309229997073", "1.59e-13"),
    (32, 10, "0.136491215785", "4.64e-13"), (50, 4, "0.389914646591", "4.06e-13"),
    (50, 5, "0.2989899752", "1.61e-13"), (50, 10, "0.133007139214", "2.18e-13")])
def test_large_powerlog_exponent_keeps_its_report(c, n, value, bound):
    # from c ~ 32 I_y(p,q) underflows below the Beta mean, where the
    # continued fraction gives log G without forming it; value and bound
    # as printed, 12 and 3 digits, the bound covering the value's rounding
    # to 12.  Each finite part is within 2.2e-16 of the composite reference
    # of tests/test_reference_grid.py; the values first pinned here, from
    # panels across the splice at e and e^2, were up to 1.5e-8 off, against
    # bounds of 1e-12
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
    # unchecked, nan gives a nan budget and inf overflows
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
def test_a_warp_that_is_not_a_warping_function_is_refused(classify):
    with pytest.raises(TypeError, match="^expected a WarpingFunction, got <class 'str'>$"):
        classify("hyperbolic", 2, tol=1e-8)


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
    # tail-limited: the one radius tried, with its error budget split.
    # A table of PowerGrowth(1.02) with that growth class trusted takes its
    # tails from the sandwich at R/3, which is wide this near p = 1, even at
    # R just inside its hull; the closed form certifies at R = 100 from its
    # exact series
    grid = np.geomspace(1e-4, 1000.0, 400)
    table = Tabulated(grid, *PowerGrowth(1.02).eval(grid),
                      growth=PowerLawGrowth(1.02, 1.0))
    with pytest.raises(QuadratureFailure) as info:
        march_criterion(table, 2, tol=1e-8)
    msg = str(info.value)
    assert msg.startswith("could not certify the value within tol")
    assert "exceed" not in msg and msg.count("finite part") == 1
    assert re.search(budget.format(995), msg)
    # the exact series' 4-ulp pads alone miss tol 1e-8 this near p = 1
    with pytest.raises(QuadratureFailure) as info:
        march_criterion(PowerGrowth(1.001), 2, tol=1e-8)
    msg = str(info.value)
    assert msg.startswith("could not certify the value within tol=1e-08")
    assert msg.count("r_max=") == 1 and re.search(budget.format(100), msg)


def test_trusted_table_is_certified_at_one_radius():
    # a known power law over [1e-4, 3000]: R is the given r_max, or else
    # just inside the hull, and is the one radius whose budget a refusal
    # gives
    grid = np.geomspace(1e-4, 3000.0, 400)
    w = Tabulated(grid, *PowerGrowth(1.5).eval(grid),
                  growth=PowerLawGrowth(1.5, 1.0))
    for r_max, R in ((400, 400), (None, 2985)):
        with pytest.raises(QuadratureFailure) as info:
            march_criterion(w, 2, tol=1e-8, r_max=r_max)
        msg = str(info.value)
        assert msg.count("r_max=") == 1 and f"r_max={R}: bound " in msg, r_max


def test_trusted_table_starts_just_inside_its_hull(monkeypatch):
    # PowerGrowth(1.1) sampled on [1e-4, 1e4] with its growth class trusted:
    # its tails at R = 100 to 800 miss tol, at R just inside the hull they
    # do not.  Each pass integrates its finite part once, at that R.  The
    # value is not checked against its bound: table bounds leave out the
    # interpolation error of the samples
    from weakmodel import criterion
    grid = np.geomspace(1e-4, 1e4, 2000)
    w = Tabulated(grid, *PowerGrowth(1.1).eval(grid),
                  growth=PowerLawGrowth(1.1, 1.0))
    calls = count_calls(monkeypatch, criterion, "_finite")
    reports = criterion.classify(w, 3, tol=1e-6)
    for rep in reports:
        assert rep.verdict == CONVERGENT and rep.r_max == pytest.approx(9950.0)
    assert [c[2] for c in calls] == [reports[0].r_max] * 2


@pytest.mark.parametrize("entry", ["march", "transience", "certificate",
                                   "suggest_rmax"])
def test_trusted_table_ending_below_the_sandwich_is_refused(entry):
    # Hyperbolic(0.05) sampled to r = 60: its sandwich starts at
    # 1.3 * 200 = 260, past the last sample, so no tail can be certified
    from weakmodel.radial import suggest_rmax
    grid = np.geomspace(1e-4, 60.0, 400)
    h = Hyperbolic(0.05)
    w = Tabulated(grid, *h.eval(grid), growth=h.growth_class)
    call = {"march": lambda: march_criterion(w, 3),
            "transience": lambda: transience_integral(w, 3),
            "certificate": lambda: tail_certificate(w, 3, 30.0),
            "suggest_rmax": lambda: suggest_rmax(w, 3, 2.0, tail_certificate(w, 3, 30.0))
            }[entry]
    with pytest.raises(OutOfDomain, match=r"^tabulated hull ends at r = 60, "
                       r"below the tail sandwich start r = 260$"):
        call()


def test_rounding_limited_refusal_names_every_part_and_stops():
    # c just above 1/2: the value is about 7e6, so its 1e-14 rounding term
    # alone exceeds tol and no larger r_max can help
    start = time.perf_counter()
    with pytest.raises(QuadratureFailure) as info:
        march_criterion(PowerLog(0.5000001), 3, tol=1e-8)
    elapsed = time.perf_counter() - start
    msg = str(info.value)
    assert "(rounding of the value alone exceeds tol)" in msg
    assert msg.count("r_max=") == 1
    number = r"(\S+?)"
    parts = re.search(rf"bound {number} \(finite part {number}, cross term {number}, "
                      rf"outer tail {number}\) \+ rounding {number}$", msg)
    bound, *terms = (float(v) for v in parts.groups())
    # each part is printed to 3 digits
    assert abs(sum(terms) - bound) <= 5e-3 * bound
    assert terms[-1] >= 1e-8
    assert elapsed < 0.2


def test_refusal_names_the_rounding_when_it_binds_alone():
    # the finite part is 4.92e-14 and the rounding term 2e-12: the rounding
    # alone exceeds tol, so the reason blames it, not the finite part
    with pytest.raises(QuadratureFailure) as info:
        march_criterion(PowerGrowth(1.05), 2, tol=1e-12)
    msg = str(info.value)
    assert "(rounding of the value alone exceeds tol)" in msg
    assert "finite-part error" not in msg
    assert "(finite part 4.92e-14," in msg and msg.endswith("+ rounding 2e-12")


@pytest.mark.parametrize("w, part", [(Hyperbolic(1.0), "finite"),
                                     (PowerGrowth(1.5), "finite"),
                                     (PowerGrowth(2.0), "double_tail")],
                         ids=["hyperbolic", "powergrowth", "powergrowth-log-tail"])
def test_finite_part_evaluates_phi_once_per_node_vector(monkeypatch, w, part):
    # the panel triples of phi^(1-n) and phi^(n-3) need one log_phi call
    # per node vector.  The double tail of power growth is its series: no
    # quadrature and no phi at all
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
        F, F_err, _, _ = criterion._finite(w, 3, 30.0, True)
        assert F > 0 and F_err < 1e-9 * F
    else:
        model = _TailModel(w, 3)
        _, (lo, hi) = criterion._tail_brackets(3, model, 100.0)
        assert lo <= hi < lo + 1e-9
        assert (per_vector, log_phi_calls) == ([], [])
        return
    assert per_vector and max(per_vector) == 1


# (metric, n, R): log_cum, log_inner, double of tail_certificate, recorded
# before the refined tails shared one routine; one metric per growth kind.
# The n = 2 double is the half square of the inner bracket.  Exponential
# tails are now the elementary brackets with the sandwich at R, inside the
# refined ones first recorded here; the n = 2 double, whose ends moved by
# up to 6e-13 of itself, was re-recorded.  Power tails are now the exact
# series, re-recorded inside the quadrature brackets first recorded here
# ((-14.914182844147108, -14.914182844146529) and (1.666616669047097e-05,
# 1.6666166690478724e-05))
_PINNED_TAILS = [
    ((Hyperbolic(1.0), 2, 30.0), -0.2588525549667824,
     (-29.30685281944036, -29.306852819439754),
     (1.7513021525392452e-26, 1.7513021525393448e-26)),
    ((Hyperbolic(1.0), 3, 30.0), 3.3672958299864737,
     (-59.30685281944035, -59.306852819439754),
     (8.756510762695462e-27, 8.756510762697454e-27)),
    ((PowerGrowth(2.0), 3, 100.0), 4.595119850134589,
     (-14.91418284414684, -14.914182844146799),
     (1.666616669047443e-05, 1.6666166690475112e-05)),
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
    # the Convergent report at R holds the same certificate
    report = march_criterion(*args[:2], r_max=args[2])
    assert report.r_max == args[2] and report.certificate == cert
    if args[1] == 2:
        # (log tanh(15))^2 / 2 from 40-digit mpmath, which the triangle
        # bracket that the half square replaced also held
        assert cert.double[0] <= 1.7513021525393041e-26 <= cert.double[1]
    if isinstance(args[0], PowerGrowth):
        # phi^-2 = t^-2 - (1+t^2)^-1, so T_in = 1/R - atan(1/R) and
        # T_out = R atan(1/R) + log1p(R^-2)/2 - 1, from 40-digit mpmath
        assert cert.log_inner[0] <= -14.914182844146817 <= cert.log_inner[1]
        assert cert.double[0] <= 1.666616669047480e-05 <= cert.double[1]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("a, R", [
    (1.0, 30.0), (0.5, 40.0), (2.0, 10.0), (0.5, 1e5), (1.0, 1e5), (2.0, 1e5),
    (0.5, 1e7), (1.0, 1e7), (2.0, 1e7)])
def test_exponential_tail_brackets_hold_the_closed_forms(a, R, n):
    # Hyperbolic(a), x = e^-aR, from 40-digit mpmath: at n = 2 T_in =
    # -log tanh(aR/2) = 2 atanh(x), whose tanh rounds to 1 at large R, and
    # the double tail is its half square; at n = 3 T_in = 2a x^2/(1 - x^2)
    # and T_out = -log(1 - x^2).  The brackets are a few ulp wide
    import mpmath as mp
    from weakmodel import criterion
    w = Hyperbolic(a)
    model = _TailModel(w, n)
    inner, double = criterion._tail_brackets(n, model, R)
    with mp.workdps(40):
        x = mp.exp(-mp.mpf(a) * R)
        if n == 2:
            t_in = 2 * mp.atanh(x)
            t_out = t_in ** 2 / 2
        else:
            t_in = 2 * a * x ** 2 / (1 - x ** 2)
            t_out = -mp.log1p(-x ** 2)
        for (lo, hi), exact in ((inner, t_in), (double, t_out)):
            assert lo <= mp.log(exact) <= hi, (lo, hi, exact)
            assert hi - lo <= 1e-14 * abs(lo), (lo, hi)


@pytest.mark.parametrize("R", [1e5, 1e7])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.0])
def test_exponential_tail_certificate_holds_at_large_radii(a, R):
    # the tails beyond R need no quadrature: a refined tail in t exceeded
    # its panel budget here, as "log-space quadrature on [1e+07, 1e+07]"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for n in range(2, 6):
            cert = tail_certificate(Hyperbolic(a), n, R)
            assert cert.r_max == R
            lo, hi = cert.log_inner
            assert lo <= hi <= lo + 1e-14 * abs(lo), (n, lo, hi)
            assert 0.0 <= cert.double[0] <= cert.double[1], n


def _best_seconds(thunk, repeats=3):
    """(thunk's result, its fastest time over `repeats` calls)."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        out = thunk()
        best = min(best, time.perf_counter() - start)
    return out, best


@pytest.mark.parametrize("p", [1.05, 1.1, 2.0])
def test_power_tails_reach_every_radius(p):
    # the exact series keep R^-a and R^(2-2p) as logs, so no R in double
    # range overflows, underflows or needs a quadrature.  A quadrature in
    # s = log(t/R) formed t = R e^s and overflowed at R = 1e250 for n = 3..5.
    # At n = 2 the certificate's time is its cumulative int_1^R phi^-1 in t,
    # a finite part, not a tail
    from weakmodel import criterion
    w = PowerGrowth(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for n in range(2, 7):
            model = _TailModel(w, n)
            a = p * (n - 1) - 1
            for R in (1e30, 1e100, 1e250):
                (inner, double), t_tails = _best_seconds(
                    lambda: criterion._tail_brackets(n, model, R))
                cert, t_cert = _best_seconds(lambda: tail_certificate(w, n, R),
                                             repeats=1 if n == 2 else 3)
                assert cert.r_max == R and cert.log_inner == inner
                lo, hi = inner
                assert lo <= hi <= lo + 1e-14 * max(1.0, abs(lo)), (n, R, inner)
                # the leading term R^-a / a, relative x = R^-2 <= 1e-60 below
                assert_allclose(lo, -a * math.log(R) - math.log(a), rtol=1e-14, atol=1e-14)
                assert double[0] <= double[1] and 0.0 <= cert.double[0] <= cert.double[1]
                assert t_tails < 0.01, (n, R, t_tails)
                assert n == 2 or t_cert < 0.01, (n, R, t_cert)


class _ScaledPower(WarpingFunction):
    """phi = r sqrt(1 + 4r^2) ~ 2r^2, a custom warp whose growth class is
    PowerLawGrowth(2, 2).  At n = 2 its T = int_1^inf dt/(t sqrt(1 + 4t^2))
    is asinh(1/2), so the criterion is asinh(1/2)^2/2."""

    growth_class = PowerLawGrowth(2.0, 2.0)

    def eval(self, r):
        r = np.asarray(r, dtype=float)
        q = np.sqrt(1.0 + 4.0 * r * r)
        return r * q, q + 4.0 * r * r / q


class _PowerGrowthSubclass(PowerGrowth):
    """A subclass, which may change phi: no longer known to be the series'."""


def test_closed_power_laws_are_the_series_phi():
    # the exact power tails sum the series of phi = t^p (1 + t^-2)^((p-1)/2),
    # which only PowerGrowth is known to be: every other warp, Euclidean,
    # tables and custom warps with a power-law growth class among them,
    # takes the sandwich of its growth class
    from weakmodel.warp import family_from_name
    powers = [family_from_name("powergrowth", p=p) for p in (0.5, 1.01, 1.5, 3.7, 10.0)]
    grid = np.geomspace(1e-4, 3000.0, 400)
    others = [family_from_name("euclidean"), family_from_name("hyperbolic", a=1.0),
              family_from_name("powerlog", c=1.2),
              Tabulated(grid, *PowerGrowth(1.5).eval(grid), growth=PowerLawGrowth(1.5, 1.0)),
              _ScaledPower(), _PowerGrowthSubclass(2.0)]
    for n in (2, 3, 4):
        assert all(_TailModel(w, n).exact for w in powers)
        assert not any(_TailModel(w, n).exact for w in others)
    t = np.geomspace(20.0, 1e6, 400)
    for w in [Euclidean()] + powers:
        p = w.growth_class.exponent
        assert w.growth_class.scale == 1.0
        assert_allclose(w.log_phi(t), p * np.log(t) + (p - 1) / 2 * np.log1p(t ** -2.0),
                        rtol=1e-15, atol=0.0, err_msg=repr(w))


@pytest.mark.parametrize("r_max", [None, 1e4])
def test_custom_power_law_warp_is_certified_by_its_sandwich(r_max):
    # PowerGrowth's exact series at scale 1 is not this phi's: it would
    # print 0.118200898512 with a bound of 2e-15, 2.4e-3 off.  The sandwich
    # at R/3 is wide at the default R = 100, so that report is refused with
    # its budget, and at R = 1e4 the bound holds the value
    exact = math.asinh(0.5) ** 2 / 2
    if r_max is None:
        with pytest.raises(QuadratureFailure, match=r"r_max=100: .*cross term 1\.07e-06"):
            march_criterion(_ScaledPower(), 2)
        return
    rep = march_criterion(_ScaledPower(), 2, r_max=r_max)
    assert rep.verdict == CONVERGENT and rep.error_bound < 1e-8
    assert abs(rep.value - exact) <= rep.error_bound, (rep.value, exact)


class _MisscaledPower(_ScaledPower):
    """The same phi ~ 2r^2, declaring PowerLawGrowth(2, 1): the wrong scale."""

    growth_class = PowerLawGrowth(2.0, 1.0)


@pytest.mark.parametrize("r_max", [None, 1e4])
def test_a_warp_that_breaks_its_growth_class_is_refused(r_max):
    # the sandwich of PowerLawGrowth(2, 1) holds log phi - 2 log r within
    # +-4.5e-4 at R = 100, and this phi sits log 2 above it: once certified
    # at r_max 1e4 with a bound of 2.2e-12, 2.4e-5 off asinh(1/2)^2/2
    w = _MisscaledPower()
    message = (r"breaks its growth class PowerLawGrowth\(exponent=2\.0, scale=1\.0\): "
               r"at r = (100|10000), log phi - log psi = 0\.6931")
    for call in (lambda: march_criterion(w, 2, r_max=r_max),
                 lambda: classify(w, 3, r_max=r_max),
                 lambda: tail_certificate(w, 2, r_max or 100.0)):
        with pytest.raises(InvalidFamily, match=message):
            call()


@pytest.mark.parametrize("w", [
    Euclidean(), Hyperbolic(0.05), Hyperbolic(1.0), Hyperbolic(7.0), PowerGrowth(0.8),
    PowerGrowth(1.05), PowerGrowth(3.7), PowerLog(0.0), PowerLog(0.6), PowerLog(5.0)],
    ids=repr)
def test_closed_warps_keep_their_growth_class_at_every_radius(w):
    # the growth-class guard allows 16 ulp of the logs: where log phi is
    # near 1e250 (exponential growth at R = 1e250) or phi's correction to
    # psi underflows, no closed warp is refused
    for n in (2, 3, 6):
        model = _TailModel(w, n)
        for R in (10.0, 100.0, 1e3, 1e7, 1e30, 1e100, 1e250):
            assert _start_radius(w, model, R) >= R


class _GriddedHyperbolic(Hyperbolic):
    grid = np.linspace(0.0, 1.0, 5)   # an attribute, not a table's samples


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_grid_attribute_does_not_make_a_table(n):
    # only a Tabulated warp has a hull that bounds R
    from weakmodel.criterion import classify
    ours = classify(_GriddedHyperbolic(1.0), n)
    theirs = classify(Hyperbolic(1.0), n)
    assert [json.dumps(r.to_json_dict()) for r in ours] == [
        json.dumps(r.to_json_dict()) for r in theirs]
    assert [r.value.hex() for r in ours] == [r.value.hex() for r in theirs]


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [1.2, 1.1, 1.05, 1.02, 1.01])
def test_near_threshold_power_values_hold_the_closed_forms(p, n, tol):
    # with d = p - 1 and e = d/2: at n = 2 T = 2F1(e, e; 1+e; -1)/(2e) and
    # the criterion is T^2/2; at n = 3 it is
    # 2F1(d, d; 1+d; -1)/(2d) - 2F1(d, d+1/2; d+3/2; -1)/(2d+1).  A quadrature
    # of the double tail printed 9.08419272704, bound 2.8e-11, at p = 1.05,
    # n = 3, tol 1e-10, where the closed form is 9.084192689137
    from scipy.special import hyp2f1
    d = p - 1
    if n == 2:
        T = hyp2f1(d / 2, d / 2, 1 + d / 2, -1) / d
        exact = T * T / 2
    else:
        exact = (hyp2f1(d, d, 1 + d, -1) / (2 * d)
                 - hyp2f1(d, d + 0.5, d + 1.5, -1) / (2 * d + 1))
    if (p, n, tol) == (1.01, 2, 1e-10):
        # the value is near 5000, so its rounding term 1e-14 of it is half of tol
        with pytest.raises(QuadratureFailure, match=r"\+ rounding 5e-11$"):
            march_criterion(PowerGrowth(p), n, tol=tol)
        return
    rep = march_criterion(PowerGrowth(p), n, tol=tol)
    assert rep.verdict == CONVERGENT and rep.error_bound < tol
    assert abs(rep.value - exact) <= rep.error_bound, (rep.value, exact, rep.error_bound)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_euclidean_tails_are_exact(n):
    # phi = t: T_in = R^(2-n)/(n-2), the series' one term, and at n = 3 the
    # transience integral int_1^inf t^-2 is 1
    import mpmath as mp
    from weakmodel import criterion
    model = _TailModel(Euclidean(), n)
    for R in (30.0, 1e3, 1e30, 1e250):
        (lo, hi), _ = criterion._tail_brackets(n, model, R, double=False)
        with mp.workdps(40):
            exact = mp.log(mp.mpf(R) ** (2 - n) / (n - 2))
        assert lo <= exact <= hi and hi - lo <= 1e-14 * abs(lo), (R, lo, hi, exact)
    if n == 3:
        rep = transience_integral(Euclidean(), 3, tol=1e-10)
        assert rep.verdict == CONVERGENT and abs(rep.value - 1.0) <= rep.error_bound


@pytest.mark.parametrize("R", [30.0, 1e3, 1e7, 1e30])
@pytest.mark.parametrize("c", [1.1, 1.2, 1.5, 2.0, 3.0, 5.0])
def test_powerlog_n2_inner_bracket_holds_the_exact_tail(c, R):
    # phi = C t (log t)^c beyond e^2, so int_R^inf phi^-1 is
    # (log R)^(1-c)/(C(c-1)), from 40-digit mpmath; the zero-width bracket
    # (v, v) missed it
    import mpmath as mp
    w = PowerLog(c)
    cert = tail_certificate(w, 2, R)
    lo, hi = cert.log_inner
    assert cert.r_max == R
    with mp.workdps(40):
        exact = mp.log(mp.log(R) ** (1 - mp.mpf(c))
                       / (mp.mpf(w.match_constant) * (mp.mpf(c) - 1)))
    assert lo <= exact <= hi, (lo, hi, exact)
    assert hi - lo <= 1e-14 * max(1.0, abs(lo)), (lo, hi)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("w", [Hyperbolic(1.0), PowerGrowth(2.0), PowerLog(3.0)], ids=repr)
def test_convergent_report_holds_its_tail_certificate(monkeypatch, w, n):
    # the report keeps the certificate at its R, field for field and bit
    # for bit the one tail_certificate gives there, from the brackets and
    # the pass of triples the value already used: one pass over [1, R] and
    # each bracket once.  A transience report holds none
    from weakmodel import criterion
    quads = count_calls(monkeypatch, criterion, "adaptive_quad_log")
    inner = count_calls(monkeypatch, criterion._TailModel, "log_psi_inner")
    double = count_calls(monkeypatch, criterion._TailModel, "log_psi_double")
    report = march_criterion(w, n)
    assert report.verdict == CONVERGENT
    assert len([c for c in quads if c[1][0] == 1.0]) == len(inner) == 1
    assert len(double) == (n != 2)
    assert report.certificate == tail_certificate(w, n, report.r_max)
    assert transience_integral(w, n).certificate is None


def test_tail_certificate_requires_convergence():
    with pytest.raises(NotConvergent):
        tail_certificate(Euclidean(), 3, 50.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_metric_and_n())
def test_finite_part_is_monotone_in_r(case):
    # both integrands are positive, so F(R) <= F(2R) up to the two error
    # estimates and the 1e-14 rounding term the certified value carries
    from weakmodel import criterion
    w, n = case
    for double in (True, False):
        for R in (50.0, 100.0):
            F, e = criterion._finite(w, n, R, double)[:2]
            F2, e2 = criterion._finite(w, n, 2 * R, double)[:2]
            assert F <= F2 + e + e2 + 1e-14 * F2, (w, n, double, R)


# ---------------------------------------------------------------------------
# n = 2: phi^(n-3) = phi^(1-n), so the criterion integral is T^2/2 with T
# the transience integral
# ---------------------------------------------------------------------------

def _exact_n2_criterion(w):
    """T^2/2 from 40-digit mpmath.  T = -log tanh(a/2) for Hyperbolic(a);
    for PowerGrowth(p), u = 1/(1+t^2) gives T = 1/2 sum_k 2^-(q+k)/(q+k)
    with q = (p-1)/2 (mpmath.quad on [1, inf) misses T by 0.39 at p = 1.05)."""
    import mpmath as mp
    with mp.workdps(40):
        if isinstance(w, Hyperbolic):
            T = -mp.log(mp.tanh(mp.mpf(w.a) / 2))
        else:
            q = (mp.mpf(w.p) - 1) / 2
            T = mp.nsum(lambda k: 2 ** -(q + k) / (q + k), [0, mp.inf]) / 2
        return float(T ** 2 / 2)


@pytest.mark.parametrize("w, tol", [
    (Hyperbolic(0.3), 1e-8), (Hyperbolic(1.0), 1e-8), (Hyperbolic(3.0), 1e-8),
    (PowerGrowth(1.5), 1e-8), (PowerGrowth(2.0), 1e-8), (PowerGrowth(4.0), 1e-8),
    # the finite part is one integral's square, so its error fits in 1e-12
    (PowerGrowth(2.0), 1e-12)], ids=repr)
def test_n2_criterion_bound_holds_the_exact_value(w, tol):
    rep = march_criterion(w, 2, tol=tol)
    assert rep.verdict == CONVERGENT and rep.error_bound < tol
    assert abs(rep.value - _exact_n2_criterion(w)) <= rep.error_bound
    assert rep.tail_evidence.startswith("n = 2: criterion = T^2/2")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_metric_and_n(dims=st.just(2)))
def test_n2_criterion_is_half_the_transience_square(case):
    # near the threshold only transience may certify: PowerGrowth(1.02)
    # does at R = 800, where the criterion's bound is still above tol
    w, n = case
    try:
        m = march_criterion(w, n, tol=1e-8)
        t = transience_integral(w, n, tol=1e-8)
    except QuadratureFailure:
        return
    assert (m.verdict, m.r_max) == (t.verdict, t.r_max), w
    assert abs(m.value - 0.5 * t.value**2) <= m.error_bound, w
    assert m.tail_evidence == ("n = 2: criterion = T^2/2, T = int_1^inf phi^-1; "
                               + t.tail_evidence)


_N3_GRID = np.geomspace(1e-4, 30.0, 400)


@pytest.mark.parametrize("w", [
    Hyperbolic(1.0), PowerGrowth(2.0), PowerGrowth(0.8), PowerLog(1.2),
    Tabulated(_N3_GRID, *Hyperbolic(1.0).eval(_N3_GRID))], ids=repr)
def test_n3_criterion_is_one_quadrature(monkeypatch, w):
    # at n = 3, phi^(n-3) = 1: the criterion's finite part is the one pass
    # of panel triples on every path (Convergent, Divergent, Inconclusive),
    # and no LogCumulative is built.  Power-log tails add their inner and
    # double quadratures in log(t/R)
    from weakmodel import criterion, quadrature
    cums = count_calls(monkeypatch, quadrature, "LogCumulative")
    quads = count_calls(monkeypatch, criterion, "adaptive_quad_log")
    cum_quads = count_calls(monkeypatch, quadrature, "adaptive_quad_log")
    march_criterion(w, 3, tol=1e-8)
    tails = 2 if isinstance(w.growth_class, PowerLogGrowth) else 0
    assert (len(cums), len(cum_quads), len(quads)) == (0, 0, 1 + tails)
    criterion.classify(w, 3, tol=1e-8)
    assert (len(cums), len(cum_quads)) == (0, 0)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("w", [
    Hyperbolic(1.0), PowerGrowth(2.0), PowerGrowth(0.8), PowerLog(1.2),
    Tabulated(_N3_GRID, *Hyperbolic(1.0).eval(_N3_GRID))], ids=repr)
def test_classify_runs_one_pass_at_every_n(monkeypatch, w, n):
    # the triangle, int_1^R phi^(1-n) and C(1,R) of both reports come from
    # one pass of panel triples over [1, R], at every n and on every path; a
    # report alone runs that one pass too, to the same bits.  No
    # LogCumulative is built.  Power-log tails add quadratures that start at
    # v = 0 in v = log(t/R)
    from weakmodel import criterion, quadrature
    cums = count_calls(monkeypatch, quadrature, "LogCumulative")
    quads = count_calls(monkeypatch, criterion, "adaptive_quad_log")
    reports = criterion.classify(w, n, tol=1e-8)
    passes = [c for c in quads if c[1][0] == 1.0]
    assert len(passes) == 1 and passes[0][1][-1] == reports[0].r_max
    for alone, rep in zip((march_criterion, transience_integral), reports):
        quads.clear()
        assert alone(w, n, tol=1e-8).to_json_dict() == rep.to_json_dict()
        assert len([c for c in quads if c[1][0] == 1.0]) == 1
    assert cums == []


@pytest.mark.parametrize("w", [Hyperbolic(1.0), PowerGrowth(2.0), PowerLog(1.2)],
                         ids=repr)
@pytest.mark.parametrize("R", [30.0, 1e5, 1e250])
def test_n3_tail_certificate_cumulative_is_exact(monkeypatch, w, R):
    # C(1,R) = int_1^R phi^0 = R - 1, with no quadrature behind it
    from weakmodel import criterion, quadrature
    cums = count_calls(monkeypatch, quadrature, "LogCumulative")
    quads = count_calls(monkeypatch, criterion, "adaptive_quad_log")
    cert = tail_certificate(w, 3, R)
    assert cert.r_max == R
    assert cert.log_cum == math.log(R - 1.0)
    assert cums == [] and [c for c in quads if c[1][0] == 1.0] == []


def _reports_or_error(thunk):
    """(march dict, transience dict), or the type and text of the error."""
    try:
        return tuple(rep.to_json_dict() for rep in thunk())
    except QuadratureFailure as exc:
        return type(exc), str(exc)


def _assert_classify_is_two_calls(w, n, r_max):
    from weakmodel import criterion
    separate = _reports_or_error(lambda: (
        march_criterion(w, n, tol=1e-8, r_max=r_max),
        transience_integral(w, n, tol=1e-8, r_max=r_max)))
    together = _reports_or_error(
        lambda: criterion.classify(w, n, tol=1e-8, r_max=r_max))
    assert together == separate, (w, n, r_max)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_metric_and_n(dims=st.integers(2, 5)),
       st.sampled_from([None, 30.0, 250.0]))
def test_classify_is_the_two_separate_reports(case, r_max):
    # the shared integrals change no bit of either report, and a pass that
    # cannot certify raises what its own call raises
    _assert_classify_is_two_calls(*case, r_max)


@pytest.mark.parametrize("n, r_max", [(2, None), (2, 12.0), (3, None)])
def test_classify_is_the_two_separate_reports_on_samples(n, r_max):
    grid = np.geomspace(1e-4, 30.0, 400)
    _assert_classify_is_two_calls(Tabulated(grid, *Hyperbolic(1.0).eval(grid)),
                                  n, r_max)


@pytest.mark.parametrize("w", [PowerGrowth(2.0), Hyperbolic(0.5)], ids=repr)
def test_n2_classify_integrates_once(monkeypatch, w):
    # at n = 2 the criterion and transience share the finite part C and the
    # inner tail: one call each, where two separate calls make two of each.
    # Exponential and power tails make no quadrature, so C is the only one
    from weakmodel import criterion
    calls = count_calls(monkeypatch, criterion, "adaptive_quad_log")
    tails = count_calls(monkeypatch, criterion._TailModel, "log_psi_inner")
    march, trans = criterion.classify(w, 2, tol=1e-8)
    assert march.verdict == trans.verdict == CONVERGENT
    assert len(tails) == 1, tails
    assert len(calls) == 1, [c[1:3] for c in calls]


@pytest.mark.parametrize("w", [PowerGrowth(2.0), Hyperbolic(1.0), PowerLog(1.2)],
                         ids=repr)
def test_classify_refines_each_inner_tail_once(monkeypatch, w):
    # at n = 3 the cross term C(1,R) T_in(R) needs the transience tail T_in(R),
    # computed once per R for both passes.  Exponential and power tails make
    # no quadrature; power-log makes one per tail, on [0, 48] in v = log(t/R)
    # for its inner tail and its double tail alike, so its inner one is shared
    from weakmodel import criterion
    tails = count_calls(monkeypatch, criterion._TailModel, "log_psi_inner")
    quads = count_calls(monkeypatch, criterion, "adaptive_quad_log")
    criterion.classify(w, 3, tol=1e-8)
    inner_radii = [c[1] for c in tails]
    assert inner_radii and len(inner_radii) == len(set(inner_radii)), inner_radii
    tail_quads = [c for c in quads if c[1][0] == 0.0]
    assert len(tail_quads) == (2 * len(inner_radii) if isinstance(w, PowerLog) else 0)


# ---------------------------------------------------------------------------
# Unknown growth: tabulated data get the finite part, never a verdict
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("w,n,r_grid", [
    (Hyperbolic(1.0), 2, np.geomspace(1e-4, 80.0, 6000)),
    (Euclidean(), 3, np.geomspace(1e-4, 150.0, 4000)),
    # truly convergent (p > 1, p(n-1) > 1), but slow
    (PowerGrowth(1.05), 2, np.geomspace(1e-4, 400.0, 400)),
    # c = 1 at n = 2 sits on the threshold
    (PowerLog(1.0), 2, np.geomspace(1e-4, 150.0, 4000)),
    (Hyperbolic(1.0), 2, np.geomspace(1e-4, 10.0, 500)),
], ids=["hyperbolic", "euclidean", "powergrowth_1.05", "powerlog_threshold",
        "short_hull"])
def test_tabulated_data_are_inconclusive(tmp_path, monkeypatch, w, n, r_grid):
    # finite data cannot tell a divergent integral from a slow convergent
    # one: the report is the finite part up to just inside the last sample,
    # computed once per report
    from weakmodel import criterion
    t = load_tabulated_csv(write_tabulated_csv(tmp_path / "t.csv", w, r_grid))
    calls = count_calls(monkeypatch, criterion, "_finite")
    for classify in (march_criterion, transience_integral):
        rep = classify(t, n, tol=1e-8)
        assert rep.verdict == INCONCLUSIVE and rep.error_bound == math.inf
        assert 0.99 * r_grid[-1] < rep.r_max < r_grid[-1]
        assert math.isfinite(rep.value) and rep.value > 0
        assert "lower bound" in rep.tail_evidence
    assert [c[2] for c in calls] == [rep.r_max] * 2


@st.composite
def _sampled_metric_and_n(draw):
    w, n = draw(_metric_and_n())
    top_max = min(400.0, 120.0 / w.a) if isinstance(w, Hyperbolic) else 400.0
    return w, n, draw(st.floats(20.0, top_max))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_sampled_metric_and_n())
def test_tabulated_value_is_the_finite_part(case):
    # sampled on 400 nodes, every closed family gets Inconclusive, with the
    # closed family's own finite part over [1, r_max] as the value, up to the
    # interpolation error of the samples: 1.0e-7 at worst in a scan of the
    # drawn ranges, reached by PowerLog(1.125) to r = 250 at n = 4 (the
    # splice of PowerLog is C^3 only); the bound is 5 times that
    from weakmodel import criterion
    w, n, top = case
    grid = np.geomspace(1e-4, top, 400)
    t = Tabulated(grid, *w.eval(grid))
    for double, classify in ((True, march_criterion),
                             (False, transience_integral)):
        rep = classify(t, n, tol=1e-8)
        assert rep.verdict == INCONCLUSIVE, (w, n, top)
        exact = criterion._finite(w, n, rep.r_max, double)[0]
        assert abs(rep.value - exact) <= 5e-7 * exact, (w, n, top, double)


@pytest.mark.parametrize("w, top", [(Hyperbolic(1.0), 80.0),
                                    (PowerGrowth(2.0), 3000.0)], ids=repr)
def test_trusted_400_node_table_gives_its_family_value(w, top):
    # with its true growth class, a table of 400 geometric nodes from 1e-3
    # certifies the n = 3 criterion within 1e-9 of the family's own value:
    # 5.6e-10 off for Hyperbolic(1) and 4.6e-11 for PowerGrowth(2)
    grid = np.geomspace(1e-3, top, 400)
    t = Tabulated(grid, *w.eval(grid), growth=w.growth_class)
    rep = march_criterion(t, 3, tol=1e-8)
    assert rep.verdict == CONVERGENT
    assert abs(rep.value - march_criterion(w, 3, tol=1e-10).value) <= 1e-9


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


# ---------------------------------------------------------------------------
# Exponential growth at user radii past 1e20, and phi's breakpoints
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a, R", [(1.0, 1e30), (0.1, 1e21)])
def test_exponential_growth_past_1e20_prints_the_closed_forms(a, R):
    # the one K15 panel on [1, R] has every node beyond 4e17, where a log
    # value near -4e17 has an ulp of 64: a stopping test that added log rtol
    # to it passed, and the reports printed 0 with bound 0.  At n = 2 the
    # criterion is (log tanh(a/2))^2/2, at n = 3 the transience integral is
    # a (coth a - 1)
    import mpmath as mp
    with mp.workdps(40):
        n2 = float(mp.log(mp.tanh(mp.mpf(a) / 2)) ** 2 / 2)
        n3 = float(a * (mp.coth(a) - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        march = march_criterion(Hyperbolic(a), 2, tol=1e-8, r_max=R)
        trans = transience_integral(Hyperbolic(a), 3, tol=1e-8, r_max=R)
    for rep, exact in ((march, n2), (trans, n3)):
        assert rep.verdict == CONVERGENT and rep.r_max == R
        assert rep.value > 0 and abs(rep.value - exact) <= rep.error_bound, (rep, exact)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_exponential_growth_past_1e20_at_n4_and_up_is_refused(n):
    # phi^(n-3) near R = 1e30 has a log near 1e30, whose rounding no panel
    # in t resolves: the pass refuses at once
    start = time.perf_counter()
    with pytest.raises(QuadratureFailure, match=r"^log-space quadrature on "
                       r"\[1, 1e\+30\] cannot split the panel at .* below rounding$"):
        march_criterion(Hyperbolic(1.0), n, tol=1e-8, r_max=1e30)
    assert time.perf_counter() - start < 1.0


def test_every_pass_starts_at_the_power_log_splice(monkeypatch):
    # phi is C^3 only at e and e^2: the criterion's passes, which give the
    # certificate's C(1,R) and tau's panels over [1, R], start with edges
    # there; tau's own pass stops at r = 1, below them
    from weakmodel import criterion, quadrature, radial
    from weakmodel.spectrum import eigen_round_sphere
    quads = count_calls(monkeypatch, criterion, "adaptive_quad_log")
    cums = count_calls(monkeypatch, quadrature, "adaptive_quad_log")
    w = PowerLog(2.0)
    criterion.classify(w, 4, tol=1e-8)
    tail_certificate(w, 4, 100.0)
    radial.conformal_modes(w, [eigen_round_sphere(2, 1)],
                           march_criterion(w, 2, r_max=100.0))
    passes = [c[1] for c in quads if c[1][0] == 1.0]
    assert len(passes) == 3
    for edges in passes:
        assert {math.e, math.e ** 2} <= set(edges)
    (tau_edges,) = [c[1] for c in cums]
    assert tau_edges[0] == 1e-3 and tau_edges[-1] == 1.0
    assert PowerLog.breakpoints == (math.e, math.e ** 2)
    assert Hyperbolic(1.0).breakpoints == () == PowerGrowth(2.0).breakpoints
