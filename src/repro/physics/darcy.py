"""Problem container for single-phase incompressible Darcy flow.

Bundles the grid, permeability, viscosity, Dirichlet set and the derived
flux coefficients into one immutable object every backend (reference, WSE,
GPU) consumes.  The governing system is Eq. (1): Darcy's law plus mass
balance, discretized by TPFA into the residual of Eq. (3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fv.coefficients import FluxCoefficients, build_flux_coefficients
from repro.fv.operator import MatrixFreeOperator
from repro.fv.residual import compute_residual
from repro.mesh.boundary import DirichletSet
from repro.mesh.grid import CartesianGrid3D
from repro.util.errors import ConfigurationError
from repro.util.validation import check_positive


@dataclass(frozen=True)
class SinglePhaseProblem:
    """An incompressible single-phase pressure problem.

    Attributes
    ----------
    grid:
        The Cartesian mesh.
    permeability:
        Cell permeability field ``κ``.
    viscosity:
        Constant fluid viscosity ``µ`` (the paper assumes constant µ).
    dirichlet:
        The set ``T_D`` with imposed pressures (wells and/or planes).
    coefficients:
        Derived ``c = Υ λ`` products (built once, reused by all backends).
    """

    grid: CartesianGrid3D
    permeability: np.ndarray
    viscosity: float
    dirichlet: DirichletSet
    coefficients: FluxCoefficients

    def operator(self) -> MatrixFreeOperator:
        """The matrix-free Jacobian operator for this problem."""
        return MatrixFreeOperator(self.coefficients, self.dirichlet)

    def residual(self, pressure: np.ndarray) -> np.ndarray:
        """Evaluate ``r(p)`` (Eq. 3)."""
        return compute_residual(self.coefficients, self.dirichlet, pressure)

    def initial_pressure(self, fill: float = 0.0, *, dtype=np.float32) -> np.ndarray:
        """An initial guess honouring the Dirichlet values exactly.

        Starting from a guess with exact boundary values keeps the residual
        (and every CG iterate) zero on ``T_D`` — the invariant the
        matrix-free dataflow kernel relies on.
        """
        p = np.full(self.grid.shape, fill, dtype=dtype)
        self.dirichlet.apply_to(p)
        return p

    def check_system_shapes(self, accumulation=None, rhs=None) -> None:
        """Reject a transient ``accumulation`` diagonal or a right-hand
        side that is not grid-shaped."""
        for name, array in (("accumulation", accumulation), ("rhs", rhs)):
            if array is not None and array.shape != self.grid.shape:
                raise ConfigurationError(
                    f"{name} shape {array.shape} != grid {self.grid.shape}"
                )

    def system_vectors(
        self, dtype, *, initial_pressure=None, accumulation=None, rhs=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The guess ``p0`` and right-hand side ``b`` a solver of
        ``(J [+ A]) p = b`` starts from, in ``dtype``.

        ``p0`` is a copy of ``initial_pressure`` (default: zero) with the
        Dirichlet values applied; ``b`` is ``rhs`` (default: zero, the
        steady system) with ``p^D`` on the Dirichlet rows.  The shapes of
        ``rhs`` and ``accumulation`` are checked first."""
        self.check_system_shapes(accumulation, rhs)
        if initial_pressure is None:
            p0 = self.initial_pressure(dtype=dtype)
        else:
            p0 = np.array(initial_pressure, dtype=dtype, copy=True)
            self.dirichlet.apply_to(p0)
        b = (
            np.zeros(self.grid.shape, dtype=dtype)
            if rhs is None
            else np.asarray(rhs, dtype=dtype).copy()
        )
        b[self.dirichlet.mask] = self.dirichlet.values[self.dirichlet.mask]
        return p0, b


def build_problem(
    grid: CartesianGrid3D,
    permeability: np.ndarray | float,
    dirichlet: DirichletSet,
    *,
    viscosity: float = 1.0,
    dtype=np.float32,
) -> SinglePhaseProblem:
    """Construct a :class:`SinglePhaseProblem`, validating inputs.

    ``permeability`` may be a scalar (homogeneous medium) or a full field.
    """
    check_positive("viscosity", viscosity)
    if np.isscalar(permeability):
        perm = np.full(grid.shape, float(permeability), dtype=dtype)  # type: ignore[arg-type]
    else:
        perm = np.asarray(permeability, dtype=dtype)
    if dirichlet.grid.shape != grid.shape:
        raise ConfigurationError("dirichlet set was built for a different grid")
    if dirichlet.is_empty:
        raise ConfigurationError(
            "problem needs at least one Dirichlet cell: the pure-Neumann "
            "pressure system is singular"
        )
    coeffs = build_flux_coefficients(
        grid, perm, viscosity=viscosity, dtype=dtype
    )
    return SinglePhaseProblem(grid, perm, float(viscosity), dirichlet, coeffs)
