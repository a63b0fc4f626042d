"""Spectral data of the round sphere S^{n-1} and boundary-data projection.

Eigenvalues lambda_m^2 = m(m+n-2) and their multiplicities are provided
for every n >= 2; eigenfunction evaluation and quadrature are implemented
for n = 2 (circle, Fourier basis) and n = 3 (sphere, real spherical
harmonics).  Any other cross-section metric can be plugged in through the
SphereSpectrum interface since the radial machinery only consumes
(eigenvalue, multiplicity, eigenfunction, quadrature) tuples.

Index convention: within eigenvalue m, k = 0 is the zonal/cosine-leading
eigenfunction; odd k are cos-type, even k > 0 are sin-type azimuthal orders.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (GridTooCoarse, IndexOutOfRange, MalformedArtifact,
                     UnsupportedDimension)
from .report import read_csv_columns


@dataclass(frozen=True)
class EigenMode:
    m: int
    lambda_sq: float
    multiplicity: int


def eigen_round_sphere(n: int, m: int) -> EigenMode:
    """m-th eigenvalue data of the Laplacian on the round S^{n-1}."""
    mult = multiplicity(n, m)
    return EigenMode(m=m, lambda_sq=float(m * (m + n - 2)), multiplicity=mult)


def multiplicity(n: int, m: int) -> int:
    """The dimension of degree-m harmonics on S^{n-1} (Stein and Weiss, 1971, IV)."""
    if n < 2:
        raise UnsupportedDimension(f"need n >= 2, got {n}")
    if m < 0:
        raise IndexOutOfRange(f"need m >= 0, got {m}")
    return math.comb(m + n - 1, n - 1) - math.comb(max(m + n - 3, 0), n - 1)


def _check_dimension(n: int):
    """Refuse an n whose round-sphere basis is not built in."""
    if n not in (2, 3):
        raise UnsupportedDimension(
            f"the round sphere's basis is built for n in {{2, 3}}, got n={n}")


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
    _check_dimension(n)
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
    _check_dimension(n)
    if n == 2:
        N = max(4 * (M + 1), 8)
        theta = 2 * math.pi * np.arange(N) / N
        wts = np.full(N, 2 * math.pi / N)
        return SphereQuadrature(n=2, band_limit=M, points=theta, weights=wts)
    L = M + 2                       # Gauss-Legendre colatitude nodes
    nlon = max(2 * M + 4, 8)        # uniform longitudes
    xs, wx = np.polynomial.legendre.leggauss(L)
    colat = np.arccos(xs)
    lon = 2 * math.pi * np.arange(nlon) / nlon
    cc, ll = np.meshgrid(colat, lon, indexing="ij")
    ww = np.outer(wx, np.full(nlon, 2 * math.pi / nlon))
    pts = np.column_stack([cc.ravel(), ll.ravel()])
    return SphereQuadrature(n=3, band_limit=M, points=pts, weights=ww.ravel())


# ---------------------------------------------------------------------------
# Coefficient tables and boundary data
# ---------------------------------------------------------------------------

class CoefficientTable:
    """Sparse table of c_{m,k} coefficients for one dimension n."""

    def __init__(self, n: int, entries=None):
        self.n = n
        self.entries: dict[tuple[int, int], float] = {}
        for (m, k), c in dict(entries or {}).items():
            self.set(m, k, c)

    def get(self, m, k):
        return self.entries.get((m, k), 0.0)

    def set(self, m, k, c):
        """c_{m,k} = c; an index that is negative or past the multiplicity
        N(n, m) (IndexOutOfRange), or a c that is not finite
        (MalformedArtifact), is refused."""
        if m < 0 or k < 0:
            raise IndexOutOfRange(f"coefficient index (m, k) = ({m}, {k}) "
                                  "is negative")
        if k >= multiplicity(self.n, m):
            raise IndexOutOfRange(f"coefficient index (m, k) = ({m}, {k}) has k outside "
                                  f"0..{multiplicity(self.n, m) - 1} for n={self.n}")
        c = float(c)
        if not math.isfinite(c):
            raise MalformedArtifact(f"coefficient c_{{{m},{k}}} is {c}, not "
                                    "a finite number")
        self.entries[(m, k)] = c

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
        """The table of a list of {"m", "k", "c"} records; an index that is
        not a JSON integer, or a c that is not a JSON number, is refused
        (MalformedArtifact)."""
        table = cls(n)
        for rec in obj:
            for key in "mk":
                if type(rec[key]) is not int:   # not 1.7, nor true, a bool
                    raise MalformedArtifact(f"coefficient index {key} = "
                                            f"{json.dumps(rec[key])} is not an integer")
            if type(rec["c"]) not in (int, float):   # not "2.5", nor true
                raise MalformedArtifact(f"coefficient c = {json.dumps(rec['c'])} "
                                        "is not a number")
            table.set(rec["m"], rec["k"], float(rec["c"]))
        return table

    def __eq__(self, other):
        return isinstance(other, CoefficientTable) and \
            self.n == other.n and self.entries == other.entries


@dataclass
class BoundaryData:
    """Boundary data on S^{n-1}: grid samples on their quadrature, or
    direct coefficients."""

    samples: np.ndarray | None = None
    coeffs: CoefficientTable | None = None
    quadrature: SphereQuadrature = field(default=None, repr=False)

    @property
    def n(self):
        return self.coeffs.n if self.coeffs is not None else self.quadrature.n

    @classmethod
    def from_function(cls, n, M, fn):
        quad = sphere_quadrature(n, M)
        if n == 2:
            samples = np.asarray(fn(quad.points), dtype=float)
        else:
            samples = np.asarray(fn(quad.points[:, 0], quad.points[:, 1]), dtype=float)
        return cls(samples=_finite(samples, quad), quadrature=quad)

    @classmethod
    def from_samples(cls, n, M, samples):
        quad = sphere_quadrature(n, M)
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (len(quad.weights),):
            raise GridTooCoarse(
                f"expected {len(quad.weights)} samples on the (n={n}, M={M}) "
                f"grid, got {samples.shape}")
        return cls(samples=_finite(samples, quad), quadrature=quad)

    @classmethod
    def from_coefficients(cls, table: CoefficientTable):
        return cls(coeffs=table)

    @classmethod
    def from_csv(cls, path, n, M):
        """n=2 expects the columns theta,f; n=3 colat,lon,f, read and
        refused by `report.read_csv_columns` (MalformedArtifact).

        Sample locations must match the canonical quadrature grid for (n, M).
        """
        quad = sphere_quadrature(n, M)
        data = read_csv_columns(path, ("theta", "f") if n == 2 else ("colat", "lon", "f"),
                                MalformedArtifact)
        pts = data[:, 0] if n == 2 else data[:, :2]
        if pts.shape != quad.points.shape or not np.allclose(pts, quad.points, atol=1e-9):
            raise GridTooCoarse(
                f"{path}: sample locations do not match the canonical "
                f"(n={n}, M={M}) quadrature grid")
        return cls(samples=data[:, -1], quadrature=quad)


def _finite(samples, quad: SphereQuadrature):
    """samples, refused (MalformedArtifact) at the first that is not finite,
    named by its index and, when there is one per node, its node."""
    flat = np.ravel(samples)
    bad = ~np.isfinite(flat)
    if not np.any(bad):
        return samples
    i = int(np.argmax(bad))
    node = ""
    if flat.size == len(quad.weights):
        coords = ", ".join(f"{a:g}" for a in np.atleast_1d(quad.points[i]))
        node = f" ({'theta' if quad.n == 2 else 'colat, lon'} = {coords})"
    raise MalformedArtifact(f"boundary sample {i}{node} is {flat[i]:g}, not "
                            "a finite number")


def project_boundary(data: BoundaryData, M: int) -> CoefficientTable:
    """Coefficients c_{m,k} = <f, f_{m,k}> for all m <= M."""
    if data.coeffs is not None:
        table = CoefficientTable(data.n)
        for (m, k), c in data.coeffs.items():
            if m <= M:
                table.set(m, k, c)
        return table
    if M > data.quadrature.band_limit:
        raise GridTooCoarse(
            f"grid built for band limit {data.quadrature.band_limit}; cannot project "
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


def load_coefficients_json(path, n):
    """The table in a JSON list of {"m", "k", "c"} records, refused by name
    (MalformedArtifact) if it is not one."""
    try:
        with open(path) as fh:
            return CoefficientTable.from_json_obj(n, json.load(fh))
    except KeyError as exc:
        raise MalformedArtifact(f"{path}: a coefficient record has no {exc} key") from None
    except (IndexOutOfRange, MalformedArtifact) as exc:
        raise MalformedArtifact(f"{path}: {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:   # a c past float range
        raise MalformedArtifact(f"{path}: not a list of m, k, c records: {exc}") from None


def sup_norm_bound(n: int, m: int) -> float:
    """Upper bound for max |f_{m,k}| over the sphere."""
    _check_dimension(n)
    if n == 2:
        return 1.0 / math.sqrt(2 * math.pi) if m == 0 else 1.0 / math.sqrt(math.pi)
    return math.sqrt((2 * m + 1) / (4 * math.pi))


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
        _check_dimension(n)
        super().__init__(n)

    def mode(self, m):
        return eigen_round_sphere(self.n, m)

    def eigenfunction(self, m, k, omega):
        return eigenfunction_eval(self.n, m, k, omega)

    def quadrature(self, M):
        return sphere_quadrature(self.n, M)

    def sup_norm(self, m):
        return sup_norm_bound(self.n, m)
