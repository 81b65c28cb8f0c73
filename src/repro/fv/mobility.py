"""Interfacial fluid mobility ``λ_KL`` (Eq. 4).

The paper treats single-phase flow with constant viscosity, so the cell
mobility is ``λ_K = 1/µ`` and the interfacial mobility is "the arithmetic
average of the mobilities in cells K and L".  We keep the full machinery
(per-cell mobility field, arithmetic face averaging) so that the code path
matches the multiphase generalization the paper points to, and so the
dataflow kernel has the same in-kernel averaging work to do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.grid import CartesianGrid3D, Direction
from repro.util.errors import ValidationError
from repro.util.validation import check_positive, check_shape


@dataclass(frozen=True)
class FaceMobility:
    """Arithmetic-average mobilities on internal faces (same layout as
    :class:`repro.fv.transmissibility.FaceTransmissibility`)."""

    grid: CartesianGrid3D
    mx: np.ndarray
    my: np.ndarray
    mz: np.ndarray

    def __post_init__(self) -> None:
        check_shape("mx", self.mx, self.grid.face_shape(0))
        check_shape("my", self.my, self.grid.face_shape(1))
        check_shape("mz", self.mz, self.grid.face_shape(2))

    def axis(self, axis: int) -> np.ndarray:
        return (self.mx, self.my, self.mz)[axis]

    def face_value(self, x: int, y: int, z: int, direction: Direction) -> float:
        self.grid.check_cell(x, y, z)
        n = self.grid.neighbor(x, y, z, direction)
        if n is None:
            return 0.0
        lo = min((x, y, z), n, key=lambda c: c[direction.axis])
        return float(self.axis(direction.axis)[lo])


def compute_face_mobility(
    grid: CartesianGrid3D,
    mobility: np.ndarray | float,
    *,
    dtype=np.float32,
) -> FaceMobility:
    """Arithmetic average ``λ_KL = (λ_K + λ_L) / 2`` on all internal faces.

    ``mobility`` may be a scalar (constant-viscosity case) or a per-cell
    array (the multiphase-ready path).
    """
    if np.isscalar(mobility):
        check_positive("mobility", float(mobility))  # type: ignore[arg-type]
        mob = np.full(grid.shape, float(mobility), dtype=np.float64)  # type: ignore[arg-type]
    else:
        mob = np.asarray(mobility, dtype=np.float64)
        if mob.shape != grid.shape:
            raise ValidationError(
                f"mobility shape {mob.shape} != grid {grid.shape}"
            )
        if not np.all(mob > 0):
            raise ValidationError("mobility must be strictly positive")
    faces = []
    for axis in range(3):
        lo = _take_lo(mob, axis)
        hi = _take_hi(mob, axis)
        faces.append((0.5 * (lo + hi)).astype(dtype))
    return FaceMobility(grid, *faces)


def _take_lo(a: np.ndarray, axis: int) -> np.ndarray:
    index = [slice(None)] * a.ndim
    index[axis] = slice(0, -1)
    return a[tuple(index)]


def _take_hi(a: np.ndarray, axis: int) -> np.ndarray:
    index = [slice(None)] * a.ndim
    index[axis] = slice(1, None)
    return a[tuple(index)]
