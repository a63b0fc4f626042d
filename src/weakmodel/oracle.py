"""Independent finite-difference checks for the spectral pipeline.

Two tools: the pointwise second-order residual, for a callable u, of the
warped Laplacian

    L u = u_rr + (n-1)(phi'/phi) u_r + phi^{-2} Delta_omega u,

and a 2D annulus Dirichlet solver (n = 2) discretizing the self-adjoint
form (1/phi)(phi u_r)_r + phi^{-2} u_thth with a conservative 5-point
stencil, solved by conjugate gradients on the symmetrized system.  Both are
deliberately independent of the spectral machinery they validate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryPoint, SolverDivergence
from .warp import WarpingFunction


@dataclass(frozen=True)
class AnnulusGrid:
    """Uniform polar grid on [r_a, r_b] x [0, 2pi), theta periodic."""
    r_a: float
    r_b: float
    n_r: int
    n_theta: int

    def __post_init__(self):
        if not (self.r_a > 0 and self.r_b > self.r_a):
            raise ValueError("need 0 < r_a < r_b")
        if self.n_r < 16 or self.n_theta < 16:
            raise ValueError("need at least 16 nodes per direction")

    @property
    def h_r(self):
        return (self.r_b - self.r_a) / (self.n_r - 1)

    @property
    def h_theta(self):
        return 2 * math.pi / self.n_theta

    @property
    def r_nodes(self):
        return np.linspace(self.r_a, self.r_b, self.n_r)

    @property
    def theta_nodes(self):
        return 2 * math.pi * np.arange(self.n_theta) / self.n_theta


def laplace_beltrami_residual_fn(w: WarpingFunction, n: int, u, r, omega,
                                 h: float = 0.02) -> float:
    """Residual of L u at one point for a callable u, any n in {2, 3}.

    Second-order central differences with step h in every coordinate.  For
    n = 3 the point must stay away from the poles (sin(colat) >> h).
    """
    if h > 0.05:
        raise ValueError("grid step must satisfy h <= 0.05")
    phi, dphi, _ = w.eval(r)
    if n == 2:
        theta = omega
        u_rr = (u(r + h, theta) - 2 * u(r, theta) + u(r - h, theta)) / h ** 2
        u_r = (u(r + h, theta) - u(r - h, theta)) / (2 * h)
        u_tt = (u(r, theta + h) - 2 * u(r, theta) + u(r, theta - h)) / h ** 2
        return float(u_rr + (n - 1) * (dphi / phi) * u_r + u_tt / phi ** 2)
    colat, lon = omega
    if math.sin(colat) < 4 * h:
        raise BoundaryPoint("colatitude too close to a pole for the stencil")
    u0 = u(r, (colat, lon))
    u_rr = (u(r + h, (colat, lon)) - 2 * u0 + u(r - h, (colat, lon))) / h ** 2
    u_r = (u(r + h, (colat, lon)) - u(r - h, (colat, lon))) / (2 * h)
    u_cc = (u(r, (colat + h, lon)) - 2 * u0 + u(r, (colat - h, lon))) / h ** 2
    u_c = (u(r, (colat + h, lon)) - u(r, (colat - h, lon))) / (2 * h)
    u_ll = (u(r, (colat, lon + h)) - 2 * u0 + u(r, (colat, lon - h))) / h ** 2
    sphere_lap = u_cc + u_c / math.tan(colat) + u_ll / math.sin(colat) ** 2
    return float(u_rr + (n - 1) * (dphi / phi) * u_r + sphere_lap / phi ** 2)


def _apply_symmetrized(grid, x, phi_mid, phi_c):
    """Matrix-vector product of the symmetrized negative warped Laplacian.

    x has shape (n_r - 2, n_theta), interior rows only; Dirichlet rows are
    zero here (their data enters through the right-hand side).
    """
    h_r2 = grid.h_r ** 2
    h_t2 = grid.h_theta ** 2
    padded = np.zeros((grid.n_r, grid.n_theta))
    padded[1:-1, :] = x
    up = padded[2:, :]
    down = padded[:-2, :]
    lap_r = (phi_mid[1:, None] * (up - x) - phi_mid[:-1, None] * (x - down)) / h_r2
    lap_t = (np.roll(x, -1, axis=1) - 2 * x + np.roll(x, 1, axis=1)) \
        / (h_t2 * phi_c[:, None])
    return -(lap_r + lap_t)


def solve_annulus_dirichlet(w: WarpingFunction, grid: AnnulusGrid,
                            inner_bc, outer_bc, tol: float = 1e-10,
                            max_iter: int = 20000) -> np.ndarray:
    """Solve L u = 0 on the annulus with Dirichlet circles, n = 2.

    inner_bc, outer_bc: values on grid.theta_nodes (arrays or callables).
    Returns u on the full (n_r, n_theta) grid.  Conjugate gradients on the
    conservative symmetric-positive system; deterministic for fixed inputs.
    """
    thetas = grid.theta_nodes
    bc_in = np.asarray(inner_bc(thetas) if callable(inner_bc) else inner_bc,
                       dtype=float)
    bc_out = np.asarray(outer_bc(thetas) if callable(outer_bc) else outer_bc,
                        dtype=float)
    if bc_in.shape != thetas.shape or bc_out.shape != thetas.shape:
        raise ValueError("boundary data must be sampled on grid.theta_nodes")

    r = grid.r_nodes
    r_mid = 0.5 * (r[:-1] + r[1:])
    phi_mid = np.asarray(w.eval(r_mid)[0], dtype=float)
    phi_c = np.asarray(w.eval(r[1:-1])[0], dtype=float)

    # right-hand side from Dirichlet rows entering the stencil
    b = np.zeros((grid.n_r - 2, grid.n_theta))
    b[0, :] += phi_mid[0] * bc_in / grid.h_r ** 2
    b[-1, :] += phi_mid[-1] * bc_out / grid.h_r ** 2

    x = np.zeros_like(b)
    resid = b - _apply_symmetrized(grid, x, phi_mid, phi_c)
    # Jacobi preconditioner
    diag = ((phi_mid[1:] + phi_mid[:-1]) / grid.h_r ** 2
            + 2.0 / (grid.h_theta ** 2 * phi_c))[:, None] * np.ones_like(b)
    z = resid / diag
    p = z.copy()
    rz = float(np.sum(resid * z))
    b_norm = math.sqrt(float(np.sum(b * b))) or 1.0
    for it in range(max_iter):
        if math.sqrt(float(np.sum(resid * resid))) <= tol * b_norm:
            break
        Ap = _apply_symmetrized(grid, p, phi_mid, phi_c)
        alpha = rz / float(np.sum(p * Ap))
        x += alpha * p
        resid -= alpha * Ap
        z = resid / diag
        rz_new = float(np.sum(resid * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise SolverDivergence(
            f"conjugate gradients did not reach residual {tol:g} in "
            f"{max_iter} iterations")

    u = np.empty((grid.n_r, grid.n_theta))
    u[0, :] = bc_in
    u[-1, :] = bc_out
    u[1:-1, :] = x
    return u

