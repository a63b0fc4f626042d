import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import sphere_laplacian_s2
from weakmodel import oracle
from weakmodel.errors import (BoundaryPoint, NonPositiveWarp, OutOfDomain,
                              SolverDivergence)
from weakmodel.oracle import (AnnulusGrid, laplace_beltrami_residual_fn,
                              solve_annulus_dirichlet)
from weakmodel.warp import (Euclidean, Hyperbolic, PowerGrowth, PowerLog,
                            WarpingFunction)


def exact_field(grid):
    # tanh(r/2) cos(theta): harmonic for phi = sinh r in n = 2
    return np.tanh(grid.r_nodes[:, None] / 2) * np.cos(grid.theta_nodes[None, :])


def test_known_harmonic_residual_quarters():
    w = Hyperbolic(1.0)
    u = lambda r, th: math.tanh(r / 2) * math.cos(th)
    r1 = laplace_beltrami_residual_fn(w, 2, u, 1.5, 0.7, h=0.02)
    r2 = laplace_beltrami_residual_fn(w, 2, u, 1.5, 0.7, h=0.01)
    assert abs(r1) < 5e-3
    assert r1 / r2 == pytest.approx(4.0, rel=0.1)


def test_residual_evaluates_each_stencil_point_once():
    # the same expressions as with repeated calls, so the same bits
    calls = []

    def u2(r, th):
        calls.append((r, th))
        return math.exp(-1.0 / r) * math.cos(2 * th) + r * r * math.sin(th)

    def u3(r, om):
        calls.append((r, om))
        c, l = om
        return (math.exp(-1.0 / r) * math.cos(c) * math.sin(l + 0.3)
                + r * math.sin(c) ** 2)

    w = Hyperbolic(1.0)
    assert laplace_beltrami_residual_fn(w, 2, u2, 1.5, 0.7, h=0.02) \
        == 3.035314974192535
    assert len(calls) == len(set(calls)) == 5
    calls.clear()
    assert laplace_beltrami_residual_fn(w, 3, u3, 2.0, (1.1, 0.6), h=0.02) \
        == 1.5493723484708832
    assert len(calls) == len(set(calls)) == 7


def test_boundary_point_rejected():
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
    with pytest.raises(SolverDivergence, match="residual"):
        solve_annulus_dirichlet(w, g, exact[0], exact[-1], tol=1e-20)


def _stencil_system(w, grid, bc_in, bc_out):
    """phi at faces and rows, and the right-hand side, as the solver forms them."""
    r = grid.r_nodes
    phi_mid = w.eval(0.5 * (r[:-1] + r[1:]))[0]
    phi_c = w.eval(r[1:-1])[0]
    b = np.zeros((grid.n_r - 2, grid.n_theta))
    b[0] = phi_mid[0] * bc_in / grid.h_r ** 2
    b[-1] = phi_mid[-1] * bc_out / grid.h_r ** 2
    return phi_mid, phi_c, b


def _pcg_reference(w, grid, bc_in, bc_out, tol, max_iter=20000):
    """Jacobi-preconditioned conjugate gradients on the same system, the
    iterative reference for the direct solve."""
    phi_mid, phi_c, b = _stencil_system(w, grid, bc_in, bc_out)
    apply = lambda v: oracle._apply_symmetrized(grid, v, phi_mid, phi_c)
    x = np.zeros_like(b)
    resid = b - apply(x)
    diag = ((phi_mid[1:] + phi_mid[:-1]) / grid.h_r ** 2
            + 2.0 / (grid.h_theta ** 2 * phi_c))[:, None] * np.ones_like(b)
    z = resid / diag
    p = z.copy()
    rz = float(np.sum(resid * z))
    b_norm = math.sqrt(float(np.sum(b * b))) or 1.0
    for _ in range(max_iter):
        if math.sqrt(float(np.sum(resid * resid))) <= tol * b_norm:
            break
        Ap = apply(p)
        alpha = rz / float(np.sum(p * Ap))
        x += alpha * p
        resid -= alpha * Ap
        z = resid / diag
        rz_new = float(np.sum(resid * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise SolverDivergence("reference CG did not converge")
    return x


@pytest.mark.parametrize("n_r,n_theta", [(20, 16), (20, 17), (24, 33)])
def test_direct_solve_is_the_stencils_exact_solution(n_r, n_theta):
    # odd n_theta has no Nyquist column; the dense matrix is assembled
    # column by column from the stencil itself
    w = Hyperbolic(1.0)
    g = AnnulusGrid(0.5, 3.0, n_r, n_theta)
    rng = np.random.default_rng(n_r * n_theta)
    bc_in, bc_out = rng.normal(size=(2, n_theta))
    phi_mid, phi_c, b = _stencil_system(w, g, bc_in, bc_out)
    size = b.size
    dense = np.empty((size, size))
    for j in range(size):
        e = np.zeros(size)
        e[j] = 1.0
        dense[:, j] = oracle._apply_symmetrized(g, e.reshape(b.shape), phi_mid,
                                                phi_c).ravel()
    exact = np.linalg.solve(dense, b.ravel()).reshape(b.shape)
    u = solve_annulus_dirichlet(w, g, bc_in, bc_out, tol=1e-12)
    assert_allclose(u[[0, -1]], [bc_in, bc_out], rtol=0, atol=0)
    assert np.linalg.norm(u[1:-1] - exact) <= 1e-12 * np.linalg.norm(exact)


@pytest.mark.parametrize("w", [Hyperbolic(0.5), Hyperbolic(2.5),
                               PowerGrowth(1.2), PowerLog(2.0)], ids=repr)
def test_direct_solve_matches_cg_on_the_verify_grid(w):
    g = AnnulusGrid(0.5, 3.0, 96, 96)
    th = g.theta_nodes
    bc_in = np.cos(th) + 0.3 * np.sin(3 * th)
    bc_out = 0.5 - 0.2 * np.cos(2 * th) + 0.1 * np.sin(7 * th)
    u = solve_annulus_dirichlet(w, g, bc_in, bc_out, tol=1e-12)
    x = _pcg_reference(w, g, bc_in, bc_out, tol=1e-12)
    assert np.max(np.abs(u[1:-1] - x)) < 1e-9


@pytest.mark.parametrize("side", ["inner", "outer"])
def test_non_finite_boundary_data_is_refused_fast(side):
    g = AnnulusGrid(0.5, 3.0, 96, 96)
    bc = {"inner": np.ones(96), "outer": np.ones(96)}
    bc[side][7] = math.nan
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"{side} boundary data is not finite "
                                         f"at theta = {g.theta_nodes[7]:g}"):
        solve_annulus_dirichlet(Hyperbolic(1.0), g, bc["inner"], bc["outer"])
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("call,match", [
    (lambda: AnnulusGrid(0.0, 3.0, 96, 96), "^need 0 < r_a < r_b$"),
    (lambda: AnnulusGrid(3.0, 0.5, 96, 96), "^need 0 < r_a < r_b$"),
    (lambda: AnnulusGrid(0.5, 3.0, 15, 96), "^need at least 16 nodes per direction$"),
    (lambda: laplace_beltrami_residual_fn(Hyperbolic(1.0), 2, lambda r, om: r, 1.5, 0.7,
                                          h=0.1), "^grid step must satisfy h <= 0.05$"),
    (lambda: solve_annulus_dirichlet(Hyperbolic(1.0), AnnulusGrid(0.5, 3.0, 96, 96),
                                     np.ones(95), np.ones(96)),
     "^boundary data must be sampled on grid.theta_nodes$"),
], ids=["r_a_zero", "r_b_below_r_a", "coarse", "wide_step", "bc_shape"])
def test_bad_grid_step_or_boundary_shape_is_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class _StubWarp(WarpingFunction):
    def __init__(self, phi):
        self.phi = phi

    def eval(self, r):
        r = np.asarray(r, dtype=float)
        return self.phi(r), np.ones_like(r)


@pytest.mark.parametrize("w,grid,error,match", [
    (_StubWarp(lambda r: r * (1.0 - r / 2.0)), AnnulusGrid(0.5, 3.0, 96, 96),
     NonPositiveWarp, r"phi\(2\.0\d*\) <= 0 on the annulus"),
    (_StubWarp(lambda r: np.where(r > 1.0, math.nan, r)),
     AnnulusGrid(0.5, 3.0, 96, 96), OutOfDomain, r"phi\(1\.0\d*\) is not finite"),
    (Hyperbolic(1.0), AnnulusGrid(0.5, 800.0, 96, 96), OutOfDomain,
     r"phi\(7\d\d\.\d*\) is not finite")], ids=["negative", "nan", "overflow"])
def test_non_positive_or_non_finite_phi_is_refused_fast(w, grid, error, match):
    t0 = time.perf_counter()
    with pytest.raises(error, match=match):
        solve_annulus_dirichlet(w, grid, np.ones(96), np.ones(96))
    assert time.perf_counter() - t0 < 0.5


def test_sphere_laplacian_stencil_eigen():
    # zonal degree-1 harmonic: Delta f = -2 f on S^2
    colat = np.linspace(0, math.pi, 361)
    lon = np.linspace(0, 2 * math.pi, 720, endpoint=False)
    F = np.cos(colat)[:, None] * np.ones_like(lon)[None, :]
    lap = sphere_laplacian_s2(F, colat, lon)
    assert_allclose(lap, -2.0 * F[1:-1], atol=1e-4)

