"""Finite-volume (TPFA) discretization substrate.

Implements the two-point flux approximation of the paper's Eqs. (3)-(6):

* half/harmonic transmissibilities ``Υ_KL`` on internal faces,
* arithmetic-averaged interfacial mobility ``λ_KL``,
* the matrix-free operator ``x -> Jx`` (Eq. 6, vectorized reference),
* the residual ``r(p)`` (Eq. 3),
* an assembled sparse-matrix baseline (the matrix-based approach the paper's
  matrix-free method replaces).

Sign convention: outflow-positive (``r_K = Σ Υλ (p_K - p_L)``) so that J is
literally symmetric positive definite — see DESIGN.md §1.
"""

from repro.fv.transmissibility import (
    FaceTransmissibility,
    compute_transmissibility,
    half_transmissibility,
)
from repro.fv.mobility import FaceMobility, compute_face_mobility
from repro.fv.coefficients import FluxCoefficients, build_flux_coefficients
from repro.fv.operator import MatrixFreeOperator, apply_jx
from repro.fv.residual import compute_residual
from repro.fv.assembly import assemble_jacobian, eliminate_dirichlet
from repro.fv.stencil import STENCIL_OFFSETS

__all__ = [
    "FaceTransmissibility",
    "compute_transmissibility",
    "half_transmissibility",
    "FaceMobility",
    "compute_face_mobility",
    "FluxCoefficients",
    "build_flux_coefficients",
    "MatrixFreeOperator",
    "apply_jx",
    "compute_residual",
    "assemble_jacobian",
    "eliminate_dirichlet",
    "STENCIL_OFFSETS",
]
