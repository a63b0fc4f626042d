import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from conftest import count_calls, write_tabulated_csv
from weakmodel.criterion import (CONVERGENT, DIVERGENT, INCONCLUSIVE,
                                 fubini_check, march_criterion,
                                 tail_certificate, transience_integral)
from weakmodel.errors import InvalidTolerance, NotConvergent
from weakmodel.warp import (Euclidean, Hyperbolic, PowerGrowth, PowerLog,
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


def test_invalid_tolerance():
    with pytest.raises(InvalidTolerance):
        march_criterion(Euclidean(), 2, tol=0.0)
    with pytest.raises(InvalidTolerance):
        transience_integral(Euclidean(), 2, tol=-1e-3)
    with pytest.raises(InvalidTolerance):
        fubini_check(Euclidean(), 2, 0.5)


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


def test_finite_part_evaluates_phi_once_per_node_vector(monkeypatch):
    # the integrand phi^(1-n)(t) * int_1^t phi^(n-3) needs one log_phi call
    # for phi^(1-n) and one for all partial panels of the cumulative integral
    from weakmodel import criterion
    w = Hyperbolic(1.0)
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
    F, F_err, _ = criterion._finite_double(w, 2, 30.0)
    assert per_vector and max(per_vector) <= 2
    assert F > 0 and F_err < 1e-9 * F


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
