"""Independent finite-difference checks for the spectral pipeline.

Two tools: the pointwise second-order residual, for a callable u, of the
warped Laplacian

    L u = u_rr + (n-1)(phi'/phi) u_r + phi^{-2} Delta_omega u,

and a 2D annulus Dirichlet solver (n = 2) discretizing the self-adjoint
form (1/phi)(phi u_r)_r + phi^{-2} u_thth with a conservative 5-point
stencil.  phi depends on r alone, so the stencil separates in theta: the
annulus system is solved directly, one tridiagonal system in r per column
of a real discrete Fourier basis.  Both tools are deliberately independent
of the spectral machinery they validate: no ODE, no sphere eigenfunctions,
no radial profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryPoint, SolverDivergence
from .warp import WarpingFunction, phi_on


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

    Second-order central differences with step h in every coordinate, each
    stencil point evaluated once: 5 calls of u at n = 2, 7 at n = 3.  For
    n = 3 the point must stay away from the poles (sin(colat) >> h).
    """
    if h > 0.05:
        raise ValueError("grid step must satisfy h <= 0.05")
    phi, dphi = w.eval(r)
    if n != 2 and math.sin(omega[0]) < 4 * h:
        raise BoundaryPoint("colatitude too close to a pole for the stencil")
    u0 = u(r, omega)
    u_rp, u_rm = u(r + h, omega), u(r - h, omega)
    u_rr = (u_rp - 2 * u0 + u_rm) / h ** 2
    u_r = (u_rp - u_rm) / (2 * h)
    if n == 2:
        u_tp, u_tm = u(r, omega + h), u(r, omega - h)
        sphere_lap = (u_tp - 2 * u0 + u_tm) / h ** 2
    else:
        colat, lon = omega
        u_cp, u_cm = u(r, (colat + h, lon)), u(r, (colat - h, lon))
        u_lp, u_lm = u(r, (colat, lon + h)), u(r, (colat, lon - h))
        u_cc = (u_cp - 2 * u0 + u_cm) / h ** 2
        u_c = (u_cp - u_cm) / (2 * h)
        u_ll = (u_lp - 2 * u0 + u_lm) / h ** 2
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


def _real_fourier_basis(n):
    """Orthonormal real DFT basis of n periodic nodes and each column's k.

    Columns are cos(k theta_j) for k <= n/2, then sin(k theta_j) for
    0 < k < n/2; each is an eigenvector of the periodic second difference.
    """
    col = np.arange(n)
    k = np.where(col <= n // 2, col, col - n // 2)
    # reduce k j mod n before scaling, so each angle is exact to rounding
    angle = (2 * math.pi / n) * (np.outer(np.arange(n), k) % n)
    basis = np.where(col <= n // 2, np.cos(angle), np.sin(angle))
    return basis / np.sqrt(np.sum(basis * basis, axis=0)), k


def solve_annulus_dirichlet(w: WarpingFunction, grid: AnnulusGrid,
                            inner_bc, outer_bc, tol: float = 1e-10) -> np.ndarray:
    """Solve L u = 0 on the annulus with Dirichlet circles, n = 2.

    inner_bc, outer_bc: arrays of finite values on grid.theta_nodes.
    Returns u on the full (n_r, n_theta) grid: the direct solution of the
    conservative symmetric-positive system, one Thomas sweep over all
    Fourier columns at once; deterministic for fixed inputs.
    Raises SolverDivergence unless the true residual is within tol * ||b||.
    """
    thetas = grid.theta_nodes
    bc_in = np.asarray(inner_bc, dtype=float)
    bc_out = np.asarray(outer_bc, dtype=float)
    if bc_in.shape != thetas.shape or bc_out.shape != thetas.shape:
        raise ValueError("boundary data must be sampled on grid.theta_nodes")
    for name, bc in (("inner", bc_in), ("outer", bc_out)):
        if not np.all(np.isfinite(bc)):
            raise ValueError(f"{name} boundary data is not finite at theta = "
                             f"{thetas[np.argmax(~np.isfinite(bc))]:g}")

    r = grid.r_nodes
    phi_mid = phi_on(w, 0.5 * (r[:-1] + r[1:]), "on the annulus")
    phi_c = phi_on(w, r[1:-1], "on the annulus")
    h_r2 = grid.h_r ** 2

    # right-hand side from Dirichlet rows entering the stencil
    b = np.zeros((grid.n_r - 2, grid.n_theta))
    b[0, :] += phi_mid[0] * bc_in / h_r2
    b[-1, :] += phi_mid[-1] * bc_out / h_r2

    # in the Fourier basis column k is the tridiagonal system in r with
    # diagonal (phi_mid[i+1] + phi_mid[i])/h_r^2 + mu_k/phi_c[i], where
    # mu_k = (2 - 2 cos(k h_theta))/h_theta^2, written without cancellation
    basis, k = _real_fourier_basis(grid.n_theta)
    mu = (2 * np.sin(0.5 * grid.h_theta * k) / grid.h_theta) ** 2
    diag = (phi_mid[1:] + phi_mid[:-1])[:, None] / h_r2 + mu / phi_c[:, None]
    off = -phi_mid[1:-1] / h_r2
    # one vector-matrix product per row (y[i] = b[i] @ basis, and back
    # x[i] = basis @ y[i]): a matrix-matrix product would touch BLAS's
    # packing buffers, a lasting 0.25 MB of resident memory
    y = np.matmul(b[:, None, :], basis)[:, 0]
    for i in range(1, len(y)):   # Thomas sweep, all columns at once
        f = off[i - 1] / diag[i - 1]
        diag[i] -= f * off[i - 1]
        y[i] -= f * y[i - 1]
    y[-1] /= diag[-1]
    for i in range(len(y) - 2, -1, -1):
        y[i] = (y[i] - off[i] * y[i + 1]) / diag[i]
    x = np.matmul(basis, y[:, :, None])[:, :, 0]

    resid = b - _apply_symmetrized(grid, x, phi_mid, phi_c)
    res = math.sqrt(float(np.sum(resid * resid)))
    b_norm = math.sqrt(float(np.sum(b * b)))
    if not res <= tol * b_norm:
        raise SolverDivergence(
            f"annulus solve left residual {res:.3g}, above tol {tol:g} "
            f"times ||b|| = {b_norm:.3g}")

    u = np.empty((grid.n_r, grid.n_theta))
    u[0, :] = bc_in
    u[-1, :] = bc_out
    u[1:-1, :] = x
    return u
