"""Spectral data of the round sphere S^{n-1} and boundary-data projection.

Eigenvalues lambda_m^2 = m(m+n-2) are provided for every n >= 2;
eigenfunction evaluation and quadrature are implemented for n = 2 (circle,
Fourier basis) and n = 3 (sphere, real spherical harmonics).  Any other
cross-section metric can be plugged in through the SphereSpectrum interface
since the radial machinery only consumes (eigenvalue, multiplicity,
eigenfunction, quadrature) tuples.

Index convention: within eigenvalue m, k = 0 is the zonal/cosine-leading
eigenfunction; odd k are cos-type, even k > 0 are sin-type azimuthal orders.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, IndexOutOfRange, UnsupportedDimension


@dataclass(frozen=True)
class EigenMode:
    m: int
    lambda_sq: float
    multiplicity: int | None  # None when unavailable (n not in {2, 3})


def eigen_round_sphere(n: int, m: int) -> EigenMode:
    """m-th eigenvalue data of the Laplacian on the round S^{n-1}."""
    if n < 2:
        raise UnsupportedDimension(f"need n >= 2, got {n}")
    if m < 0:
        raise IndexOutOfRange(f"need m >= 0, got {m}")
    lam2 = float(m * (m + n - 2))
    if n == 2:
        mult = 1 if m == 0 else 2
    elif n == 3:
        mult = 2 * m + 1
    else:
        mult = 1 if m == 0 else None
    return EigenMode(m=m, lambda_sq=lam2, multiplicity=mult)


def multiplicity(n: int, m: int) -> int:
    mode = eigen_round_sphere(n, m)
    if mode.multiplicity is None:
        raise UnsupportedDimension(
            f"eigenfunction data only available for n in {{2, 3}}, got n={n}")
    return mode.multiplicity


# ---------------------------------------------------------------------------
# Eigenfunction evaluation
# ---------------------------------------------------------------------------

def _normalized_legendre(l, mu, x):
    """Fully normalized associated Legendre Nbar_{l,mu}(x).

    Normalized so that the real spherical harmonics built from these are
    orthonormal on S^2: integral of (Nbar_{l,0})^2 over the sphere is 1 for
    the zonal case, and the cos/sin harmonics carry an extra sqrt(2).
    Stable three-term recursion in l along fixed order mu.
    """
    x = np.asarray(x, dtype=float)
    sinth = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    # seed P^bar_{mu,mu}
    pmm = np.full_like(x, 1.0 / math.sqrt(4 * math.pi))
    for j in range(1, mu + 1):
        pmm = pmm * math.sqrt((2 * j + 1) / (2.0 * j)) * sinth
    if l == mu:
        return pmm
    pm1 = math.sqrt(2 * mu + 3) * x * pmm
    if l == mu + 1:
        return pm1
    for ll in range(mu + 2, l + 1):
        a = math.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - mu * mu))
        b = math.sqrt(((ll - 1.0) ** 2 - mu * mu) / (4.0 * (ll - 1.0) ** 2 - 1.0))
        pmm, pm1 = pm1, a * (x * pm1 - b * pmm)
    return pm1


def eigenfunction_eval(n: int, m: int, k: int, omega):
    """Evaluate the orthonormal eigenfunction f_{m,k} at omega.

    n=2: omega is an angle theta (scalar or array).
    n=3: omega is (colatitude, longitude), each scalar or array.
    """
    mult = multiplicity(n, m)
    if not 0 <= k < mult:
        raise IndexOutOfRange(f"k={k} outside 0..{mult - 1} for n={n}, m={m}")
    if n == 2:
        theta = np.asarray(omega, dtype=float)
        if m == 0:
            return np.full_like(theta, 1.0 / math.sqrt(2 * math.pi)) + 0.0
        if k == 0:
            return np.cos(m * theta) / math.sqrt(math.pi)
        return np.sin(m * theta) / math.sqrt(math.pi)
    # n == 3
    colat, lon = omega
    colat = np.asarray(colat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    x = np.cos(colat)
    if k == 0:
        return _normalized_legendre(m, 0, x) + 0.0 * lon
    mu = (k + 1) // 2
    base = math.sqrt(2.0) * _normalized_legendre(m, mu, x)
    if k % 2 == 1:
        return base * np.cos(mu * lon)
    return base * np.sin(mu * lon)


# ---------------------------------------------------------------------------
# Quadrature grids, exact for products of eigenfunctions up to degree 2M
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereQuadrature:
    n: int
    band_limit: int
    points: np.ndarray   # (N,) thetas for n=2; (N, 2) colat/lon for n=3
    weights: np.ndarray

    def unpack(self):
        if self.n == 2:
            return self.points
        return self.points[:, 0], self.points[:, 1]


def sphere_quadrature(n: int, M: int) -> SphereQuadrature:
    if M < 0:
        raise GridTooCoarse("band limit must be >= 0")
    if n == 2:
        N = max(4 * (M + 1), 8)
        theta = 2 * math.pi * np.arange(N) / N
        wts = np.full(N, 2 * math.pi / N)
        return SphereQuadrature(n=2, band_limit=M, points=theta, weights=wts)
    if n == 3:
        L = M + 2                       # Gauss-Legendre colatitude nodes
        nlon = max(2 * M + 4, 8)        # uniform longitudes
        xs, wx = np.polynomial.legendre.leggauss(L)
        colat = np.arccos(xs)
        lon = 2 * math.pi * np.arange(nlon) / nlon
        cc, ll = np.meshgrid(colat, lon, indexing="ij")
        ww = np.outer(wx, np.full(nlon, 2 * math.pi / nlon))
        pts = np.column_stack([cc.ravel(), ll.ravel()])
        return SphereQuadrature(n=3, band_limit=M, points=pts, weights=ww.ravel())
    raise UnsupportedDimension(f"quadrature grids available for n in {{2, 3}}, got {n}")


# ---------------------------------------------------------------------------
# Coefficient tables and boundary data
# ---------------------------------------------------------------------------

class CoefficientTable:
    """Sparse table of c_{m,k} coefficients for one dimension n."""

    def __init__(self, n: int, entries=None):
        self.n = n
        self.entries: dict[tuple[int, int], float] = dict(entries or {})

    def get(self, m, k):
        return self.entries.get((m, k), 0.0)

    def set(self, m, k, c):
        self.entries[(m, k)] = float(c)

    def max_m(self):
        return max((m for m, _ in self.entries), default=0)

    def mode_energy(self, m):
        return sum(c * c for (mm, _), c in self.entries.items() if mm == m)

    def total_energy(self):
        return sum(c * c for c in self.entries.values())

    def tail_energy(self, from_m):
        return sum(c * c for (m, _), c in self.entries.items() if m >= from_m)

    def items(self):
        return sorted(self.entries.items())

    def to_json_obj(self):
        return [{"m": m, "k": k, "c": c} for (m, k), c in self.items()]

    @classmethod
    def from_json_obj(cls, n, obj):
        table = cls(n)
        for rec in obj:
            table.set(int(rec["m"]), int(rec["k"]), float(rec["c"]))
        return table

    def __eq__(self, other):
        return isinstance(other, CoefficientTable) and \
            self.n == other.n and self.entries == other.entries


@dataclass
class BoundaryData:
    """Boundary data on S^{n-1}: grid samples and/or direct coefficients."""

    n: int
    band_limit: int
    samples: np.ndarray | None = None
    coeffs: CoefficientTable | None = None
    quadrature: SphereQuadrature = field(default=None, repr=False)

    @classmethod
    def from_function(cls, n, M, fn):
        quad = sphere_quadrature(n, M)
        if n == 2:
            samples = np.asarray(fn(quad.points), dtype=float)
        else:
            samples = np.asarray(fn(quad.points[:, 0], quad.points[:, 1]), dtype=float)
        return cls(n=n, band_limit=M, samples=samples, quadrature=quad)

    @classmethod
    def from_samples(cls, n, M, samples):
        quad = sphere_quadrature(n, M)
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (len(quad.weights),):
            raise GridTooCoarse(
                f"expected {len(quad.weights)} samples on the (n={n}, M={M}) "
                f"grid, got {samples.shape}")
        return cls(n=n, band_limit=M, samples=samples, quadrature=quad)

    @classmethod
    def from_coefficients(cls, table: CoefficientTable):
        return cls(n=table.n, band_limit=table.max_m(), coeffs=table)

    @classmethod
    def from_csv(cls, path, n, M):
        """n=2 expects header theta,f; n=3 expects colat,lon,f.

        Sample locations must match the canonical quadrature grid for (n, M).
        """
        quad = sphere_quadrature(n, M)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        if n == 2:
            pts = np.array([float(r["theta"]) for r in rows])
            vals = np.array([float(r["f"]) for r in rows])
            ref = quad.points
        else:
            pts = np.array([[float(r["colat"]), float(r["lon"])] for r in rows])
            vals = np.array([float(r["f"]) for r in rows])
            ref = quad.points
        if pts.shape != ref.shape or not np.allclose(pts, ref, atol=1e-9):
            raise GridTooCoarse(
                f"{path}: sample locations do not match the canonical "
                f"(n={n}, M={M}) quadrature grid")
        return cls(n=n, band_limit=M, samples=vals, quadrature=quad)

    def values_on_grid(self):
        if self.samples is not None:
            return self.samples
        # synthesize from coefficients on the canonical grid
        quad = self.quadrature or sphere_quadrature(self.n, self.band_limit)
        return synthesize(self.coeffs, self.n, quad.unpack())


def project_boundary(data: BoundaryData, M: int) -> CoefficientTable:
    """Coefficients c_{m,k} = <f, f_{m,k}> for all m <= M."""
    if data.coeffs is not None:
        table = CoefficientTable(data.n)
        for (m, k), c in data.coeffs.items():
            if m <= M:
                table.set(m, k, c)
        return table
    if M > data.band_limit:
        raise GridTooCoarse(
            f"grid built for band limit {data.band_limit}; cannot project "
            f"exactly up to M={M}")
    quad = data.quadrature
    wvals = quad.weights * data.samples
    table = CoefficientTable(data.n)
    omega = quad.unpack()
    for m in range(M + 1):
        for k in range(multiplicity(data.n, m)):
            basis = eigenfunction_eval(data.n, m, k, omega)
            table.set(m, k, float(np.dot(wvals, basis)))
    return table


def synthesize(table: CoefficientTable, n: int, omega):
    """Evaluate sum_{m,k} c_{m,k} f_{m,k}(omega)."""
    if n == 2:
        out = np.zeros_like(np.asarray(omega, dtype=float))
    else:
        out = np.zeros_like(np.asarray(omega[0], dtype=float))
    for (m, k), c in table.items():
        if c != 0.0:
            out = out + c * eigenfunction_eval(n, m, k, omega)
    return out


def load_coefficients_json(path, n):
    with open(path) as fh:
        obj = json.load(fh)
    return CoefficientTable.from_json_obj(n, obj)


def sup_norm_bound(n: int, m: int) -> float:
    """Upper bound for max |f_{m,k}| over the sphere."""
    if n == 2:
        return 1.0 / math.sqrt(2 * math.pi) if m == 0 else 1.0 / math.sqrt(math.pi)
    if n == 3:
        return math.sqrt((2 * m + 1) / (4 * math.pi))
    raise UnsupportedDimension(f"n={n}")


# ---------------------------------------------------------------------------
# Pluggable spectrum interface
# ---------------------------------------------------------------------------

class SphereSpectrum:
    """Spectral data of (S^{n-1}, g_omega) consumed by the extension builder.

    The radial machinery is metric-agnostic: any cross-section metric can be
    used by subclassing this with its eigenvalues, eigenfunctions and an
    exact quadrature rule.  Only the round sphere ships built in.
    """

    def __init__(self, n: int):
        self.n = n

    def mode(self, m: int) -> EigenMode:
        raise NotImplementedError

    def eigenfunction(self, m: int, k: int, omega):
        raise NotImplementedError

    def quadrature(self, M: int) -> SphereQuadrature:
        raise NotImplementedError

    def sup_norm(self, m: int) -> float:
        raise NotImplementedError


class RoundSphere(SphereSpectrum):
    """The standard round metric on S^{n-1}; its eigenfunctions, quadrature
    and sup-norm bounds are built in for n in {2, 3}."""

    def __init__(self, n: int):
        if n not in (2, 3):
            raise UnsupportedDimension(
                f"extensions on the round sphere support n in {{2, 3}}, got n={n}")
        super().__init__(n)

    def mode(self, m):
        return eigen_round_sphere(self.n, m)

    def eigenfunction(self, m, k, omega):
        return eigenfunction_eval(self.n, m, k, omega)

    def quadrature(self, M):
        return sphere_quadrature(self.n, M)

    def sup_norm(self, m):
        return sup_norm_bound(self.n, m)
