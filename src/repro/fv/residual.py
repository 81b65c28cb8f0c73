"""The FV residual ``r(p)`` (Eq. 3), outflow-positive convention.

    r_K = Σ_{L ∈ adj(K)} Υ_KL λ_KL (p_K - p_L)   if K ∉ T_D,
    r_K = p_K - p^D_K                            otherwise.

Because the flux is linear in p, the residual is ``J p`` with the Dirichlet
rows shifted by ``p^D`` — which is exactly what :func:`compute_residual`
evaluates (reusing the matrix-free operator, as the paper's implementation
reuses the flux kernel for both residual and Jx).
"""

from __future__ import annotations

import numpy as np

from repro.fv.coefficients import FluxCoefficients
from repro.fv.operator import apply_jx
from repro.mesh.boundary import DirichletSet
from repro.util.errors import ValidationError


def compute_residual(
    coeffs: FluxCoefficients,
    dirichlet: DirichletSet,
    pressure: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate ``r(p)`` for the incompressible single-phase system.

    Parameters
    ----------
    coeffs:
        Flux coefficients ``c = Υ λ``.
    dirichlet:
        The set ``T_D`` and its imposed pressures ``p^D``.
    pressure:
        Current pressure field, shape ``grid.shape``.
    out:
        Optional preallocated output.
    """
    grid = coeffs.grid
    pressure = np.asarray(pressure)
    if pressure.shape != grid.shape:
        raise ValidationError(
            f"pressure shape {pressure.shape} != grid {grid.shape}"
        )
    out = apply_jx(coeffs, None, pressure, out=out)
    if not dirichlet.is_empty:
        boundary_residual = pressure - dirichlet.values.astype(pressure.dtype)
        np.copyto(out, boundary_residual, where=dirichlet.mask)
    return out
