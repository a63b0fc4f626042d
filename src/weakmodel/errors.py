"""Exception types shared across the package."""


class WeakModelError(Exception):
    """Base class for all package-specific errors."""


class OutOfDomain(WeakModelError, ValueError):
    """Evaluation point lies outside the domain of a warping function."""


class InvalidFamily(WeakModelError, ValueError):
    """Warping-family parameter violates its constraints."""


class UnsupportedDimension(WeakModelError, ValueError):
    """Requested spectral data is not available for this dimension."""


class UnsupportedSpectrum(WeakModelError, ValueError):
    """Operation needs the round-sphere basis, but another spectrum was given."""


class IndexOutOfRange(WeakModelError, IndexError):
    """Eigenfunction index k outside 0..multiplicity-1."""


class GridTooCoarse(WeakModelError, ValueError):
    """Quadrature grid is not exact for the requested band limit."""


class InvalidTolerance(WeakModelError, ValueError):
    """Tolerance must be a positive finite number."""


class QuadratureFailure(WeakModelError, RuntimeError):
    """Adaptive subdivision exceeded its budget without converging."""


class StepSizeUnderflow(WeakModelError, RuntimeError):
    """ODE integrator failed to advance."""


class NonPositiveWarp(WeakModelError, ValueError):
    """phi(r) <= 0 encountered where positivity is required."""


class DegenerateProfile(WeakModelError, ValueError):
    """Operation undefined for this profile (e.g. lambda^2 = 0)."""


class TailNotTight(WeakModelError, RuntimeError):
    """No radius gives a tail certificate that pins a profile's limit."""


class NotConvergent(WeakModelError, ValueError):
    """Operation requires a Convergent criterion verdict."""


class NotSolvable(WeakModelError, ValueError):
    """Dirichlet problem at infinity is not solvable for this metric."""


class MalformedArtifact(WeakModelError, ValueError):
    """Artifact, input file or input data is not in the form the package
    writes or reads."""


class OutOfRange(WeakModelError, ValueError):
    """Evaluation radius beyond the solved profile range."""


class SolverDivergence(WeakModelError, RuntimeError):
    """The annulus solve left a residual above its tolerance."""


class BoundaryPoint(WeakModelError, ValueError):
    """Residual stencil requested at a boundary node."""
