"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import criterion_at, fubini_check, normalized
from weakmodel import extension as ext
from weakmodel import oracle, radial
from weakmodel.criterion import (CONVERGENT, DIVERGENT, march_criterion,
                                 transience_integral)
from weakmodel.spectrum import BoundaryData, eigen_round_sphere
from weakmodel.warp import Euclidean, Hyperbolic, PowerGrowth, PowerLog


@contextlib.contextmanager
def criterion_line(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def sweep_cases():
    cases = [(Euclidean(), n, DIVERGENT) for n in (2, 3, 4)]
    for a in (0.5, 1.0, 2.0):
        for n in (2, 3):
            cases.append((Hyperbolic(a), n, CONVERGENT))
    for p in (0.8, 1.0, 1.5, 2.0):
        for n in (2, 3):
            truth = CONVERGENT if (p > 1.0 and p * (n - 1) > 1.0) else DIVERGENT
            cases.append((PowerGrowth(p), n, truth))
    for c in (0.3, 0.4, 0.6, 0.8, 1.2):
        for n in (2, 3):
            truth = CONVERGENT if (c > 1.0 if n == 2 else c > 0.5) else DIVERGENT
            cases.append((PowerLog(c), n, truth))
    return cases


def test_criterion_1_classifier_sweep():
    with criterion_line(1, "criterion verdicts match analytic ground truth"):
        start = time.monotonic()
        for w, n, truth in sweep_cases():
            rep = march_criterion(w, n, tol=1e-6)
            assert rep.verdict == truth, f"{w!r} n={n}: {rep.verdict} != {truth}"
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_closed_form_value():
    with criterion_line(2, "hyperbolic closed-form value"):
        rep = march_criterion(Hyperbolic(1.0), 2, tol=1e-8)
        expect = (math.log(math.tanh(0.5))) ** 2 / 2.0
        assert rep.verdict == CONVERGENT
        assert abs(rep.value - expect) < 1e-5


def test_criterion_3_exact_mode_solutions():
    with criterion_line(3, "exact radial mode solutions"):
        t0 = time.monotonic()
        p = radial.solve_radial(Euclidean(), 2, eigen_round_sphere(2, 2),
                                r_max=10.0)
        assert time.monotonic() - t0 < 1.0
        assert abs(p.interp(2.0) / p.interp(1.0) - 4.0) < 1e-8

        t0 = time.monotonic()
        q = normalized(radial.solve_radial(Hyperbolic(1.0), 2,
                                           eigen_round_sphere(2, 1), r_max=25.0))
        assert time.monotonic() - t0 < 1.0
        r = np.linspace(0.1, 10.0, 500)
        assert np.max(np.abs(q.interp(r) - np.tanh(r / 2))) < 1e-6


def test_criterion_4_lemma_suite():
    with criterion_line(4, "Riccati residual, inequality, growth bound"):
        s_grid = np.linspace(1.0, 20.0, 481)
        for w in (Hyperbolic(1.0), PowerGrowth(2.0)):
            for n in (2, 3):
                for m in range(1, 6):
                    p = radial.solve_radial(w, n, eigen_round_sphere(n, m),
                                            r_max=25.0)
                    tr = radial.riccati_trace(p, s_grid=s_grid)
                    src = np.exp((n - 3) * np.asarray(w.log_phi(s_grid)))
                    assert np.all(np.abs(tr.residual) < 1e-6 * (1.0 + src)), \
                        f"{w!r} n={n} m={m}: residual"
                    assert tr.inequality_ok, f"{w!r} n={n} m={m}: inequality"
                    _, ok = radial.lemma_bound_check(p, criterion_at(p), s_grid)
                    assert ok, f"{w!r} n={n} m={m}: bound"


def test_criterion_5_fubini_and_implication():
    with criterion_line(5, "Fubini identity and transience implication"):
        boxes = [(Euclidean(), 3, 10.0), (Hyperbolic(1.0), 2, 5.0),
                 (PowerGrowth(2.0), 3, 20.0), (PowerLog(0.8), 2, 30.0),
                 (Hyperbolic(0.5), 3, 12.0)]
        for w, n, R in boxes:
            lhs, rhs = fubini_check(w, n, R)
            assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(lhs)), f"{w!r} n={n} R={R}"
        for w, n, _ in sweep_cases():
            if march_criterion(w, n, tol=1e-6).verdict == CONVERGENT:
                assert transience_integral(w, n, tol=1e-6).verdict == CONVERGENT


def test_criterion_6_extension_verification(hyperbolic, hyperbolic_criterion):
    with criterion_line(6, "extension verification battery"):
        start = time.monotonic()
        w = hyperbolic
        fn = lambda th: 0.5 + np.cos(th) - 0.25 * np.sin(2 * th)
        f = BoundaryData.from_function(2, 4, fn)
        e = ext.build_extension(w, 2, f, 4, tol=1e-8,
                                criterion=hyperbolic_criterion)

        # maximum principle on a 100 x 360 grid
        th = 2 * math.pi * np.arange(360) / 360
        f_dense = fn(2 * math.pi * np.arange(1440) / 1440)
        eps = (e.truncation_error_bound + 4.0 * e.numeric_slack
               + (2 * math.pi / 1440) ** 2 * 3.0)
        lo, hi = f_dense.min() - eps, f_dense.max() + eps
        for r in np.linspace(0.15, 15.0, 100):
            vals = ext.evaluate(e, r, th)
            assert lo <= vals.min() and vals.max() <= hi, f"r={r}"

        # L2 distance monotone nonincreasing, < 1e-3 at r = 15
        rs = np.linspace(0.5, 15.0, 59)
        dist = [ext.l2_distance_to_boundary(e, r) for r in rs]
        assert all(a >= b - 1e-12 for a, b in zip(dist, dist[1:]))
        assert dist[-1] < 1e-3

        # FD residual of u at h = 0.02 with observed order about 2
        u = lambda r, t: float(ext.evaluate(e, r, t))
        pts = [(1.2, 0.5), (2.5, 2.4), (5.0, 4.0)]
        res_h = [abs(oracle.laplace_beltrami_residual_fn(w, 2, u, r, t, h=0.02))
                 for r, t in pts]
        res_h2 = [abs(oracle.laplace_beltrami_residual_fn(w, 2, u, r, t, h=0.01))
                  for r, t in pts]
        assert max(res_h) < 5e-3
        orders = [math.log2(a / b) for a, b in zip(res_h, res_h2)]
        assert all(1.5 < o < 2.5 for o in orders), orders

        # annulus-oracle interior agreement
        grid = oracle.AnnulusGrid(0.5, 3.0, 128, 128)
        ths = grid.theta_nodes
        u_num = oracle.solve_annulus_dirichlet(
            w, grid, ext.evaluate(e, grid.r_a, ths),
            ext.evaluate(e, grid.r_b, ths), tol=1e-10)
        u_spec = np.array([ext.evaluate(e, r, ths) for r in grid.r_nodes])
        assert np.max(np.abs(u_num - u_spec)) < 5e-3

        assert time.monotonic() - start < 60.0


def test_criterion_7_deterministic_sweep(tmp_path):
    with criterion_line(7, "byte-identical sweep reports"):
        from weakmodel.cli import main
        assert main(["sweep", "--out", str(tmp_path / "r1")]) == 0
        assert main(["sweep", "--out", str(tmp_path / "r2")]) == 0
        b1 = (tmp_path / "r1" / "sweep.json").read_bytes()
        b2 = (tmp_path / "r2" / "sweep.json").read_bytes()
        assert b1 == b2 and len(b1) > 0
