"""Importable shared helpers for the test suite.

These used to live in ``tests/conftest.py``, but importing them with
``from conftest import ...`` is rootdir-dependent: with both ``tests/``
and ``benchmarks/`` providing a ``conftest.py``, whichever loads first
claims the ``conftest`` module name and the import resolves to the wrong
file.  A plain module with a unique name is unambiguous.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core.solver import WseMatrixFreeSolver
from repro.mesh.geomodel import lognormal_permeability
from repro.mesh.grid import CartesianGrid3D
from repro.mesh.wells import quarter_five_spot
from repro.physics.darcy import SinglePhaseProblem, build_problem
from repro.wse.specs import WSE2


def make_problem(
    nx: int = 5,
    ny: int = 4,
    nz: int = 3,
    *,
    seed: int = 0,
    heterogeneous: bool = True,
) -> SinglePhaseProblem:
    """Helper used by non-fixture tests (hypothesis bodies can't take fixtures)."""
    grid = CartesianGrid3D(nx, ny, nz)
    if heterogeneous:
        perm = lognormal_permeability(grid, seed=seed, sigma_log=0.7)
    else:
        perm = np.full(grid.shape, 10.0, dtype=np.float32)
    _, dirichlet = quarter_five_spot(grid)
    return build_problem(grid, perm, dirichlet)


def converged_guess(problem: SinglePhaseProblem) -> np.ndarray:
    """A float64 pressure converged to ``r^T r < 1e-24``: a fabric solve
    at a looser tolerance started from it stops at its first ITER_CHECK."""
    return WseMatrixFreeSolver(
        problem, engine="vectorized", spec=WSE2.with_fabric(8, 8),
        dtype=np.float64, tol_rtr=1e-24, max_iters=500,
    ).solve().pressure


# -- hypothesis strategies ---------------------------------------------------

grid_dims = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)

#: Grids with at least 2 cells along X and Y (so quarter-five-spot wells are
#: distinct cells).
solvable_grid_dims = st.tuples(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=5),
)

positive_spacing = st.floats(
    min_value=0.1, max_value=10.0, allow_nan=False, allow_infinity=False
)
