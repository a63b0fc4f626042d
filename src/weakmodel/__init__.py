"""Dirichlet problem at infinity on rotationally symmetric metrics.

Tools for metrics g = dr^2 + phi^2(r) g_omega on R^n: classify solvability
via the criterion integral, solve the radial mode equation, and build and
verify harmonic extensions of boundary data on the sphere at infinity.
The names live in the submodules (`weakmodel.criterion`, `.warp`,
`.radial`, `.spectrum`, `.extension`, `.oracle`), so importing one loads
only what it needs.
"""

__version__ = "0.1.0"
