"""The fabric kernel's stacked FV apply, pinned element for element
against the per-direction form it replaced (``stencil_reference``).

``repro.fused.kernels.TiledApply`` sums each tile's coupling terms with
one ordered reduction; the reference adds them one port at a time.  The
two must agree under ``np.array_equal``, never a tolerance, on both
kernel variants and precisions, columns of extent 1 along each axis, a
transient accumulation, full and partial Dirichlet columns, and slab,
staged and whole-grid tiles.  ``x_ext`` is random, its pad ring
included, and an interior slab or narrow tile couples nonzero
coefficients into its window's pads.  Coefficients span several
decades so that a reordered sum shows.
"""

from __future__ import annotations

import numpy as np
import pytest

import stencil_reference as ref
from repro.core.fv_kernel import KernelVariant
from repro.core.host import _stage_problem
from repro.core.program import CgProgram
from repro.fused.kernels import TiledApply
from repro.fused.tiling import tile_boxes
from repro.mesh.boundary import DirichletSet
from repro.mesh.grid import CartesianGrid3D
from repro.physics.darcy import build_problem
from repro.physics.transient import build_accumulation

#: Odd lateral sizes, nz = 1, and nx = 1 / ny = 1 columns.
SHAPES = [(9, 7, 4), (6, 5, 1), (1, 7, 3), (7, 1, 3), (5, 6, 2)]
DTYPES = [np.float32, np.float64]


def _problem(shape, dirichlet, seed=0):
    """Lognormal permeability over about eight decades.  Both kinds pin
    one whole column; ``"full"`` pins a second, ``"partial"`` scattered
    cells of the others."""
    rng = np.random.default_rng(seed)
    grid = CartesianGrid3D(*shape)
    perm = np.exp(rng.normal(0.0, 3.0, shape))
    mask = np.zeros(shape, dtype=bool)
    mask[0, 0, :] = True
    if dirichlet == "full":
        mask[-1, -1, :] = True
    else:
        mask |= rng.random(shape) < 0.15
    values = rng.standard_normal(shape)
    return build_problem(grid, perm, DirichletSet(grid, mask, values), viscosity=0.7)


def _staging(problem, program, dtype, acc):
    return _stage_problem(
        problem, program, np.dtype(dtype), accumulation=acc,
        precondition=program.preconditioner_for(problem, acc),
    )


def _both(st, variant, dtype, tile, seed):
    """One apply of every tile by the kernel and by the reference, from
    the same ``x_ext`` (random values in the pad ring too)."""
    nx, ny, nz = st.b.shape
    x_ext = np.random.default_rng(seed).standard_normal((nx + 2, ny + 2, nz)).astype(dtype)
    inner = x_ext[1:-1, 1:-1]
    boxes = tile_boxes(nx, ny, tile)
    got, want = np.empty((nx, ny, nz), dtype), np.empty((nx, ny, nz), dtype)
    kernel = TiledApply(
        st, x_ext=x_ext, out=got, boxes=boxes, variant=variant, dtype=dtype
    )
    reference = ref.TiledApply(
        st, x_ext=x_ext, out=want, boxes=boxes, variant=variant, dtype=dtype
    )
    for t, (x0, x1, y0, y1) in enumerate(boxes):
        kernel.apply(t)
        reference.apply(t, inner[x0:x1, y0:y1])
    return got, want


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("variant", list(KernelVariant))
@pytest.mark.parametrize("dtype", DTYPES)
def test_stacked_apply_equals_per_direction_form(shape, variant, dtype):
    for dirichlet in ("full", "partial"):
        problem = _problem(shape, dirichlet)
        for transient in (False, True):
            acc = (
                build_accumulation(
                    problem, porosity=0.2, total_compressibility=1e-2, dt=0.5
                )
                if transient else None
            )
            program = CgProgram(
                variant=variant, fixed_iterations=1, accumulation=transient
            )
            st = _staging(problem, program, dtype, acc)
            assert st.full_cols.any()
            assert st.has_partial == (dirichlet == "partial" and shape[2] > 1)
            nx, ny, _ = shape
            # Whole grid, full-width slabs, and narrow (staged) tiles.
            for tile in [(nx, ny), (2, ny), (3, 2)]:
                got, want = _both(st, variant, dtype, tile, seed=nx + ny)
                assert np.array_equal(got, want), (
                    f"{dirichlet} transient={transient} {shape} {tile}"
                )

