"""Single-phase incompressible Darcy flow (Eqs. 1a/1b).

Packages the mesh + FV pieces into a ready-to-solve problem description and
provides analytic solutions used for numerical-integrity tests (§V-B).
"""

from repro.physics.darcy import SinglePhaseProblem, build_problem
from repro.physics.analytic import (
    linear_pressure_profile,
    analytic_two_plane_solution,
)
from repro.physics.simulation import NewtonReport, newton_solve

__all__ = [
    "SinglePhaseProblem",
    "build_problem",
    "linear_pressure_profile",
    "analytic_two_plane_solution",
    "NewtonReport",
    "newton_solve",
]
