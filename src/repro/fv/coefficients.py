"""Combined flux coefficients ``c_KL = Υ_KL λ_KL`` and the operator diagonal.

The matrix-free operator only ever needs the product of transmissibility and
interfacial mobility (Eq. 6).  :class:`FluxCoefficients` stores the product
per internal face plus the precomputed row diagonal
``D_K = Σ_{L ∈ adj(K)} c_KL``, which the vectorized reference operator uses
(the dataflow PEs instead recompute the λ average in-kernel; see
``repro.core.fv_kernel``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fv.mobility import compute_face_mobility
from repro.fv.transmissibility import compute_transmissibility
from repro.mesh.grid import CartesianGrid3D, Direction
from repro.util.validation import check_shape


@dataclass(frozen=True)
class FluxCoefficients:
    """Per-face products ``c = Υ λ`` and the per-cell diagonal ``Σ c``."""

    grid: CartesianGrid3D
    cx: np.ndarray
    cy: np.ndarray
    cz: np.ndarray
    diagonal: np.ndarray

    def __post_init__(self) -> None:
        check_shape("cx", self.cx, self.grid.face_shape(0))
        check_shape("cy", self.cy, self.grid.face_shape(1))
        check_shape("cz", self.cz, self.grid.face_shape(2))
        check_shape("diagonal", self.diagonal, self.grid.shape)

    def axis(self, axis: int) -> np.ndarray:
        return (self.cx, self.cy, self.cz)[axis]

    def face_value(self, x: int, y: int, z: int, direction: Direction) -> float:
        """Coefficient of the face leaving ``(x,y,z)`` towards ``direction``
        (0.0 at the domain boundary)."""
        self.grid.check_cell(x, y, z)
        n = self.grid.neighbor(x, y, z, direction)
        if n is None:
            return 0.0
        lo = min((x, y, z), n, key=lambda c: c[direction.axis])
        return float(self.axis(direction.axis)[lo])

    def cell_view(self, direction: Direction) -> np.ndarray:
        """Per-cell coefficient towards ``direction``, zero-padded at the
        boundary — the layout each PE stores (six coefficients per cell)."""
        faces = self.axis(direction.axis)
        out = np.zeros(self.grid.shape, dtype=faces.dtype)
        index = [slice(None)] * 3
        if direction.sign > 0:
            index[direction.axis] = slice(0, -1)
        else:
            index[direction.axis] = slice(1, None)
        out[tuple(index)] = faces
        return out

    @property
    def dtype(self) -> np.dtype:
        return self.cx.dtype


def cell_faces(faces, shape: tuple[int, int, int], dtype=None):
    """The three internal-face arrays (shapes ``(nx−1, ny, nz)``,
    ``(nx, ny−1, nz)``, ``(nx, ny, nz−1)``) in the per-cell layout:
    grid-shaped, each cell's face to its upper neighbour, zero on the
    last plane where there is none (``cell_view`` towards EAST, NORTH,
    UP)."""
    out = []
    for axis, f in enumerate(faces):
        cell = np.zeros(shape, dtype=dtype or f.dtype)
        index = [slice(None)] * 3
        index[axis] = slice(0, -1)
        cell[tuple(index)] = f
        out.append(cell)
    return tuple(out)


def diagonal_from_faces(faces) -> np.ndarray:
    """The float64 row sums ``Σ c`` of three per-cell face arrays
    (:func:`cell_faces`).

    On the C-order flattened grid each axis is a shift by its stride
    (``ny·nz``, ``nz``, ``1``).  Per axis x, y, z, each face is added
    to the cell below it, then to the cell above it; the zero faces of
    the last planes add nothing.  The one diagonal assembly: the flux
    coefficients and every multigrid level sum their faces here.
    """
    shape = faces[0].shape
    diagonal = np.zeros(shape, dtype=np.float64)
    flat = diagonal.reshape(-1)
    n = flat.size
    stride = n
    for axis, c in enumerate(faces):
        stride //= shape[axis]
        f = c.reshape(-1)[: n - stride]
        flat[: n - stride] += f
        flat[stride:] += f
    return diagonal


def build_flux_coefficients(
    grid: CartesianGrid3D,
    permeability: np.ndarray,
    *,
    viscosity: float = 1.0,
    mobility: np.ndarray | float | None = None,
    dtype=np.float32,
) -> FluxCoefficients:
    """Assemble ``c = Υ λ`` from permeability and viscosity (or mobility).

    Parameters
    ----------
    grid, permeability:
        Geometry and rock property entering ``Υ``.
    viscosity:
        Constant fluid viscosity µ; ignored if ``mobility`` given.
    mobility:
        Optional per-cell mobility ``λ`` overriding ``1/µ``.
    """
    trans = compute_transmissibility(grid, permeability, dtype=np.float64)
    if mobility is None:
        mobility = 1.0 / float(viscosity)
    mob = compute_face_mobility(grid, mobility, dtype=np.float64)

    faces = []
    for axis in range(3):
        faces.append((trans.axis(axis) * mob.axis(axis)).astype(dtype))

    diagonal = diagonal_from_faces(cell_faces(faces, grid.shape))
    return FluxCoefficients(grid, *faces, diagonal.astype(dtype))

