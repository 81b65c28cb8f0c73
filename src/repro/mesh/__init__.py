"""3D Cartesian mesh substrate.

The paper discretizes single-phase Darcy flow on a 3D Cartesian mesh where
each interior cell has six neighbours (the 7-point stencil of Fig. 1).  This
subpackage provides the grid geometry, Dirichlet boundary sets (the set
``T_D`` of Eq. 3), synthetic geomodels (permeability generators) and wells
expressed as Dirichlet columns.
"""

from repro.mesh.grid import CartesianGrid3D, Direction, DIRECTIONS
from repro.mesh.boundary import DirichletSet
from repro.mesh.geomodel import (
    homogeneous_permeability,
    layered_permeability,
    lognormal_permeability,
    channelized_permeability,
)
from repro.mesh.wells import Well, WellKind, quarter_five_spot, apply_wells

__all__ = [
    "CartesianGrid3D",
    "Direction",
    "DIRECTIONS",
    "DirichletSet",
    "homogeneous_permeability",
    "layered_permeability",
    "lognormal_permeability",
    "channelized_permeability",
    "Well",
    "WellKind",
    "quarter_five_spot",
    "apply_wells",
]
