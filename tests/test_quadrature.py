import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from weakmodel.errors import QuadratureFailure
from weakmodel.quadrature import LogCumulative, adaptive_quad, adaptive_quad_log


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

