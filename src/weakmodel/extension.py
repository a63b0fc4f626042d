"""Harmonic extensions u(r, omega) = sum_m phi_m(r) sum_k c_{m,k} f_{m,k}(omega).

Built only when the criterion integral converges; every radial factor is
normalized to limit 1, so u(r, .) converges to the boundary data in L^2 as
r grows, and for band-limited data the truncated series is itself an exact
harmonic function whose boundary values are the data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import criterion as _criterion
from . import radial as _radial
from .errors import NotSolvable, OutOfRange, UnsupportedDimension, UnsupportedSpectrum
from .spectrum import (BoundaryData, CoefficientTable, RoundSphere,
                       SphereSpectrum, project_boundary)

_TAIL_ENERGY_FRACTION = 1e-6


@dataclass
class HarmonicExtension:
    profiles: dict            # m -> RadialProfile for m = 0..M, all normalized
    coeffs: CoefficientTable
    truncation_error_bound: float
    criterion: _criterion.CriterionReport   # of the metric (warp, n)
    spectrum: SphereSpectrum = None

    @property
    def M(self):
        return max(self.profiles)

    @property
    def r_max(self):
        return min(p.r_max for p in self.profiles.values())

    @property
    def numeric_slack(self):
        """The largest limit_error of the modes the data use."""
        return max((self.profiles[m].limit_error for (m, _), c in self.coeffs.items()
                    if c != 0.0), default=0.0)


def _truncation_bound(f: BoundaryData, coeffs: CoefficientTable,
                      spectrum: SphereSpectrum, M: int) -> float:
    """Sup-norm bound for the discarded m > M part of f.

    Coefficient input drops a known part: the sum of |c_mk| sup_norm(m)
    over m > M, nothing when no mode is above M.  Sampled data get a
    geometric decay fitted to the last nonzero mode amplitudes; for
    band-limited samples all tail amplitudes vanish and the bound is the
    projection noise floor.  Either is raised to the node residual
    max_j |f_j - f_M(eta_j)|, a lower bound on sup |f - f_M|.
    """
    amps = {}
    for (m, k), c in coeffs.items():
        amps[m] = amps.get(m, 0.0) + abs(c) * spectrum.sup_norm(m)
    total = sum(amps.values())
    floor = 1e-13 * max(total, 1.0)
    if f.coeffs is not None:
        return floor + sum(abs(c) * spectrum.sup_norm(m)
                           for (m, _), c in f.coeffs.items() if m > M)
    omega = f.quadrature.unpack()
    f_M = sum(c * spectrum.eigenfunction(m, k, omega) for (m, k), c in coeffs.items())
    residual = float(np.max(np.abs(f.samples - f_M)))
    nonzero = [(m, a) for m, a in sorted(amps.items()) if a > floor]
    if len(nonzero) < 3 or nonzero[-1][0] < M - 1:
        return max(floor, residual)
    (m1, a1), (m2, a2) = nonzero[-2], nonzero[-1]
    if m2 == m1 or a2 >= a1:
        return max(floor + a2, residual)  # no decay evidence: one more mode's worth
    rho = (a2 / a1) ** (1.0 / (m2 - m1))
    return max(floor + a2 * rho / (1.0 - rho), residual)


def build_extension(f: BoundaryData, M: int, criterion: _criterion.CriterionReport,
                    tol: float = 1e-8, spectrum: SphereSpectrum | None = None
                    ) -> HarmonicExtension:
    """Assemble the harmonic extension of f truncated at degree M.

    `spectrum` defaults to the round sphere; any cross-section metric can be
    supplied through the SphereSpectrum interface, with data given by
    coefficients: sampled data are projected on the round-sphere basis, so
    they are refused with any other spectrum.  The round sphere refuses n
    outside {2, 3}, and data of another n are refused, before any solve.
    Construction warns when the top of the band (at M >= 2), with any input
    mode above it, carries more than _TAIL_ENERGY_FRACTION of the boundary
    energy; at M < 2 only input modes above M count.  Exact coefficients
    with no mode above M need no warning, as their projection drops
    nothing.  For sampled data the energy is sum_j w_j f_j^2 on the grid,
    and the tail is that less what the projection puts below the top of the
    band, so modes the grid cannot resolve count as dropped.  The
    Convergent `criterion` report of (w, n) gives w, n, R, panels and tail
    certificate (pass `march_criterion(w, n, r_max=...)` to choose R); a
    Divergent or Inconclusive one is refused with NotSolvable, one with no
    certificate with NotConvergent.  At n = 2 the modes are the closed forms
    exp(-lambda tau) at R, tau read off the report.  At n >= 3 the highest
    mode the data use picks the radius first, from the metric alone, by
    `suggest_rmax`'s search in log R from the report's certificate, kept if
    its tail delta is tight (constant data keep R); every m <= M is then
    solved once, as one stack, at that radius, and normalized with its own
    tail delta.
    """
    n = criterion.n
    if spectrum is None:
        spectrum = RoundSphere(n)
    if f.n != n:
        raise UnsupportedDimension(f"the boundary data are of n = {f.n}, "
                                   f"not of the metric's n = {n}")
    if f.coeffs is None and not isinstance(spectrum, RoundSphere):
        raise UnsupportedSpectrum(
            f"sampled boundary data are projected on the round-sphere basis; "
            f"give coefficients to use {type(spectrum).__name__}")
    if criterion.verdict != _criterion.CONVERGENT:
        raise NotSolvable(
            f"Dirichlet problem at infinity not solvable: criterion verdict "
            f"is {criterion.verdict}")
    _criterion.check_certified(criterion)
    coeffs = project_boundary(f, M)

    exact = f.coeffs is not None and f.coeffs.max_m() <= M
    top = M - 1 if M >= 2 else M + 1    # below M = 2, only modes above M count
    if f.coeffs is not None:
        total, tail = f.coeffs.total_energy(), f.coeffs.tail_energy(top)
    else:   # the samples' energy, less what the projection puts below top
        total = float(np.dot(f.quadrature.weights, f.samples ** 2))
        tail = total - sum(coeffs.mode_energy(m) for m in range(top))
    if total > 0 and not exact:
        if tail > _TAIL_ENERGY_FRACTION * total:
            warnings.warn(
                f"boundary data is not well resolved at M={M}: modes >= {top} "
                f"carry {tail / total:.3g} of the energy", stacklevel=2)

    modes = [spectrum.mode(m) for m in range(M + 1)]
    used = {m for (m, _), c in coeffs.items() if c != 0.0}
    if n == 2:
        profiles = dict(enumerate(_radial.conformal_modes(modes, criterion)))
    else:   # constant data, with lambda^2 = 0, keep the report's certificate
        cert = _radial.suggest_rmax(criterion, modes[max(used, default=0)].lambda_sq)
        raw = _radial.solve_modes(criterion, modes, r_max=cert.r_max, tol=tol)
        profiles = {m: _radial.normalize_profile(prof, cert)
                    for m, prof in enumerate(raw)}

    return HarmonicExtension(
        profiles=profiles, coeffs=coeffs,
        truncation_error_bound=_truncation_bound(f, coeffs, spectrum, M),
        criterion=criterion, spectrum=spectrum)


def _angular_parts(ext: HarmonicExtension, omega):
    """sum_k c_{m,k} f_{m,k}(omega) for each m, vectorized over omega."""
    parts = {}
    for (m, k), c in ext.coeffs.items():
        if c == 0.0:
            continue
        term = c * ext.spectrum.eigenfunction(m, k, omega)
        parts[m] = parts.get(m, 0.0) + term
    return parts


def evaluate(ext: HarmonicExtension, r, omega):
    """u(r, omega) for 0 <= r <= r_max and omega scalar or array.

    A scalar r gives omega's shape; an array of radii gives one row per
    radius, each equal to the scalar call at that radius.  The angular parts
    are built once and each profile is interpolated once.
    """
    r = np.asarray(r, dtype=float)
    outside = r[(r < 0) | (r > ext.r_max * (1 + 1e-12))]
    if outside.size:
        raise OutOfRange(f"r = {outside[0]:g} outside [0, {ext.r_max:g}]")
    parts = _angular_parts(ext, omega)
    shape = np.shape(omega if ext.criterion.n == 2 else omega[0])
    out = np.zeros(r.shape + shape)
    for m, ang in parts.items():
        radial = np.reshape(ext.profiles[m].interp(r), r.shape + (1,) * len(shape))
        out = out + radial * ang
    return out


def boundary_value(ext: HarmonicExtension, omega):
    """The boundary series itself: u at the sphere at infinity."""
    parts = _angular_parts(ext, omega)
    return sum(parts.values())


def l2_distance_to_boundary(ext: HarmonicExtension, r):
    """|| u(r, .) - f ||_{L^2} in coefficient space (Parseval).

    A float r gives a float; an array of radii gives an array, each entry
    equal to the float call at that radius.  Each profile is interpolated
    once.
    """
    total = np.zeros(np.shape(r))
    for m in sorted({m for m, _ in ext.coeffs.entries}):
        gap = 1.0 - ext.profiles[m].interp(r)
        total = total + gap * gap * ext.coeffs.mode_energy(m)
    return np.sqrt(total) if np.ndim(r) else math.sqrt(total)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def dump_evaluation_csv(ext: HarmonicExtension, path, r_values):
    """u at the nodes of the degree-M quadrature; columns r,theta,u (n=2) or
    r,colat,lon,u (n=3).

    The quadrature is exact for products of degree 2M, so one radius's rows
    project back to c_mk phi_m(r): they hold all of the truncated u.  Lines
    end in CRLF, as csv.writer writes them.  The file's fixed text, the
    angles and the line ends, is one %-template, and each radius row fills
    it with its r and its values.
    """
    quad = ext.spectrum.quadrature(ext.M)
    header = "r,theta,u" if ext.criterion.n == 2 else "r,colat,lon,u"
    angles = [",".join(f"{a:.12g}" for a in p)
              for p in quad.points.reshape(len(quad.weights), -1)]
    template = "".join([f"%s,{a},%.12g\r\n" for a in angles])
    rows = evaluate(ext, r_values, quad.unpack())
    args = [None] * (2 * len(angles))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for r, vals in zip(r_values, rows):
            args[0::2] = [f"{r:.12g}"] * len(angles)
            args[1::2] = vals.tolist()
            fh.write(template % tuple(args))


def summary_json(ext: HarmonicExtension, r_values) -> dict:
    r_values = np.asarray(r_values, dtype=float)
    return {
        "M": ext.M,
        "n": ext.criterion.n,
        "truncation_error_bound": ext.truncation_error_bound,
        "r_max": ext.r_max,
        "l2_curve": [[r, d] for r, d in zip(
            r_values.tolist(), l2_distance_to_boundary(ext, r_values).tolist())],
    }
