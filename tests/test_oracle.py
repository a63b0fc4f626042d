import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import sphere_laplacian_s2
from weakmodel.errors import BoundaryPoint, SolverDivergence
from weakmodel.oracle import (AnnulusGrid, laplace_beltrami_residual,
                              laplace_beltrami_residual_fn,
                              solve_annulus_dirichlet)
from weakmodel.warp import Euclidean, Hyperbolic


def exact_field(grid):
    # tanh(r/2) cos(theta): harmonic for phi = sinh r in n = 2
    return np.tanh(grid.r_nodes[:, None] / 2) * np.cos(grid.theta_nodes[None, :])


def test_constant_residual_exact():
    g = AnnulusGrid(0.5, 3.0, 32, 32)
    U = np.full((32, 32), 1.7)
    assert laplace_beltrami_residual(Euclidean(), g, U, (10, 5)) == 0.0


def test_r_cos_theta_residual_small():
    # u = r cos(theta) is harmonic in the plane; the radial part of the polar
    # stencil is exact on it, the angular part contributes O(h_theta^2)
    g = AnnulusGrid(0.5, 3.0, 32, 1024)
    U = g.r_nodes[:, None] * np.cos(g.theta_nodes[None, :])
    res = [laplace_beltrami_residual(Euclidean(), g, U, (i, j))
           for i in (1, 15, 30) for j in (0, 200, 700)]
    assert np.max(np.abs(res)) < 1e-5
    # quartering under theta-refinement confirms the O(h^2) law
    g2 = AnnulusGrid(0.5, 3.0, 32, 2048)
    U2 = g2.r_nodes[:, None] * np.cos(g2.theta_nodes[None, :])
    r1 = laplace_beltrami_residual(Euclidean(), g, U, (15, 0))
    r2 = laplace_beltrami_residual(Euclidean(), g2, U2, (15, 0))
    assert r1 / r2 == pytest.approx(4.0, rel=0.05)


def test_known_harmonic_residual_quarters():
    w = Hyperbolic(1.0)
    u = lambda r, th: math.tanh(r / 2) * math.cos(th)
    r1 = laplace_beltrami_residual_fn(w, 2, u, 1.5, 0.7, h=0.02)
    r2 = laplace_beltrami_residual_fn(w, 2, u, 1.5, 0.7, h=0.01)
    assert abs(r1) < 5e-3
    assert r1 / r2 == pytest.approx(4.0, rel=0.1)


def test_boundary_point_rejected():
    g = AnnulusGrid(0.5, 3.0, 32, 32)
    U = np.zeros((32, 32))
    with pytest.raises(BoundaryPoint):
        laplace_beltrami_residual(Euclidean(), g, U, (0, 3))
    with pytest.raises(BoundaryPoint):
        laplace_beltrami_residual(Euclidean(), g, U, (31, 3))
    with pytest.raises(BoundaryPoint):
        laplace_beltrami_residual_fn(Euclidean(), 3, lambda r, om: 0.0, 1.0,
                                     (0.01, 0.0), h=0.02)


def test_annulus_exact_solution_error():
    w = Hyperbolic(1.0)
    g = AnnulusGrid(0.5, 3.0, 251, 128)   # h_r = 0.01
    exact = exact_field(g)
    u = solve_annulus_dirichlet(w, g, exact[0], exact[-1], tol=1e-11)
    assert np.max(np.abs(u - exact)) < 1e-3


def test_annulus_grid_convergence_order():
    w = Hyperbolic(1.0)
    errs = []
    for N in (32, 64, 128):
        g = AnnulusGrid(0.5, 3.0, N, N)
        exact = exact_field(g)
        u = solve_annulus_dirichlet(w, g, exact[0], exact[-1], tol=1e-11)
        errs.append(np.max(np.abs(u - exact)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.8 <= o <= 2.2 for o in orders), orders


def test_constant_bc_maximum_principle():
    w = Hyperbolic(1.0)
    g = AnnulusGrid(0.5, 3.0, 48, 48)
    u = solve_annulus_dirichlet(w, g, np.full(48, 3.0), np.full(48, 3.0),
                                tol=1e-12)
    assert np.max(np.abs(u - 3.0)) < 1e-10


def test_extrema_on_boundary():
    w = Euclidean()
    g = AnnulusGrid(1.0, 4.0, 48, 64)
    bc_in = np.cos(g.theta_nodes)
    bc_out = 0.25 * np.sin(2 * g.theta_nodes) - 0.5
    u = solve_annulus_dirichlet(w, g, bc_in, bc_out, tol=1e-11)
    interior = u[1:-1]
    bmax = max(bc_in.max(), bc_out.max())
    bmin = min(bc_in.min(), bc_out.min())
    assert interior.max() <= bmax + 1e-9
    assert interior.min() >= bmin - 1e-9


def test_mode_decoupling():
    w = Hyperbolic(1.0)
    g = AnnulusGrid(0.5, 3.0, 64, 128)
    bc = np.cos(5 * g.theta_nodes)
    u = solve_annulus_dirichlet(w, g, bc, 0.3 * bc, tol=1e-12)
    spec = np.abs(np.fft.rfft(u[32])) ** 2
    assert spec[5] / np.sum(spec) > 0.9999


def test_solver_divergence():
    w = Hyperbolic(1.0)
    g = AnnulusGrid(0.5, 3.0, 64, 64)
    exact = exact_field(g)
    with pytest.raises(SolverDivergence):
        solve_annulus_dirichlet(w, g, exact[0], exact[-1], tol=1e-12,
                                max_iter=3)


def test_sphere_laplacian_stencil_eigen():
    # zonal degree-1 harmonic: Delta f = -2 f on S^2
    colat = np.linspace(0, math.pi, 361)
    lon = np.linspace(0, 2 * math.pi, 720, endpoint=False)
    F = np.cos(colat)[:, None] * np.ones_like(lon)[None, :]
    lap = sphere_laplacian_s2(F, colat, lon)
    assert_allclose(lap, -2.0 * F[1:-1], atol=1e-4)

