"""Dirichlet problem at infinity on rotationally symmetric metrics.

Tools for metrics g = dr^2 + phi^2(r) g_omega on R^n: classify solvability
via the criterion integral, solve the radial mode equation, and build and
verify harmonic extensions of boundary data on the sphere at infinity.
"""

from .criterion import (CONVERGENT, DIVERGENT, INCONCLUSIVE, CriterionReport,
                        classify, march_criterion, tail_certificate,
                        transience_integral)
from .extension import (HarmonicExtension, build_extension, evaluate,
                        l2_distance_to_boundary)
from .oracle import (AnnulusGrid, laplace_beltrami_residual_fn,
                     solve_annulus_dirichlet)
from .radial import (RadialProfile, RiccatiTrace, indicial_exponent,
                     lemma_bound_check, normalize_profile, riccati_trace,
                     solve_modes, solve_radial, suggest_rmax)
from .spectrum import (BoundaryData, CoefficientTable, EigenMode,
                       RoundSphere, SphereSpectrum, eigen_round_sphere,
                       eigenfunction_eval, project_boundary,
                       sphere_quadrature)
from .warp import (Euclidean, Hyperbolic, PowerGrowth, PowerLog, Tabulated,
                   WarpingFunction, load_tabulated_csv)

__version__ = "0.1.0"
