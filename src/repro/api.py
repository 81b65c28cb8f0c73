"""The canonical Fig. 5 problem builder.

:func:`quarter_five_spot_problem` builds the paper's quarter-five-spot
problem (the ``quarter_five_spot`` scenario delegates to it).  Solving
goes through :func:`repro.solve`.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.grid import CartesianGrid3D
from repro.mesh.geomodel import homogeneous_permeability
from repro.mesh.wells import quarter_five_spot
from repro.physics.darcy import SinglePhaseProblem, build_problem


def quarter_five_spot_problem(
    nx: int = 16,
    ny: int = 16,
    nz: int = 8,
    *,
    permeability: np.ndarray | float = 100.0,
    viscosity: float = 1.0,
    injection_pressure: float = 1.0,
    production_pressure: float = 0.0,
) -> SinglePhaseProblem:
    """The Fig. 5 scenario: injector at (0,0), producer at (nx-1,ny-1)."""
    grid = CartesianGrid3D(nx, ny, nz)
    if np.isscalar(permeability):
        perm = homogeneous_permeability(grid, float(permeability))  # type: ignore[arg-type]
    else:
        perm = np.asarray(permeability, dtype=np.float32)
    _, dirichlet = quarter_five_spot(
        grid,
        injection_pressure=injection_pressure,
        production_pressure=production_pressure,
    )
    return build_problem(grid, perm, dirichlet, viscosity=viscosity)
