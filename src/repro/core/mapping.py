"""Data mapping: 3D Cartesian mesh onto the 2D fabric (§III-A, Fig. 3).

Cell ``(x, y, z)`` lives on PE ``(x, y)``; the whole Z column is contiguous
in that PE's private memory.  X–Y neighbours are one fabric hop away; Z
neighbours are local memory accesses — "no data movement is required"
(§III-B).

Axis orientation: mesh +y maps to fabric +y, which the fabric's Port
vocabulary calls SOUTH (the wafer's row 0 is the top).  The
:data:`PORT_FOR_DIRECTION` table is derived from coordinate offsets, so the
pairing is correct by construction (tested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.grid import CartesianGrid3D, Direction, LATERAL_DIRECTIONS
from repro.util.errors import ConfigurationError
from repro.wse.router import Port
from repro.wse.specs import WseSpecs

#: Fabric port that reaches the mesh-lateral neighbour in each direction,
#: matched on coordinate offsets (mesh SOUTH = y-1 = fabric NORTH, etc.).
PORT_FOR_DIRECTION: dict[Direction, Port] = {
    d: next(p for p in (Port.WEST, Port.EAST, Port.NORTH, Port.SOUTH)
            if p.offset == (d.offset[0], d.offset[1]))
    for d in LATERAL_DIRECTIONS
}

#: Inverse view: mesh direction whose neighbour data arrives on each port.
DIRECTION_FOR_PORT: dict[Port, Direction] = {
    p: d for d, p in PORT_FOR_DIRECTION.items()
}


@dataclass(frozen=True)
class ProblemMapping:
    """Assignment of a grid to a fabric rectangle (one column per PE).

    The fabric rectangle is exactly ``nx × ny``; the constructor checks it
    fits the machine.  Column depth ``nz`` is bounded only by PE memory
    (checked downstream by the memory arena when buffers are allocated).
    """

    grid: CartesianGrid3D
    spec: WseSpecs

    def __post_init__(self) -> None:
        if self.grid.nx > self.spec.fabric_width or self.grid.ny > self.spec.fabric_height:
            raise ConfigurationError(
                f"grid {self.grid.nx}x{self.grid.ny} (lateral) exceeds the "
                f"{self.spec.fabric_width}x{self.spec.fabric_height} fabric"
            )

    @property
    def fabric_width(self) -> int:
        return self.grid.nx

    @property
    def fabric_height(self) -> int:
        return self.grid.ny

    def pe_for_cell(self, x: int, y: int, z: int) -> tuple[int, int]:
        """The PE owning cell (x, y, z)."""
        self.grid.check_cell(x, y, z)
        return (x, y)

    def column_of(self, field: np.ndarray, x: int, y: int) -> np.ndarray:
        """The (contiguous) Z column of a cell field at PE (x, y)."""
        if field.shape != self.grid.shape:
            raise ConfigurationError(
                f"field shape {field.shape} != grid {self.grid.shape}"
            )
        return field[x, y, :]

    def scatter(self, field: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
        """Split a field into per-PE columns (views, zero-copy)."""
        return {
            (x, y): self.column_of(field, x, y)
            for x in range(self.grid.nx)
            for y in range(self.grid.ny)
        }

    def gather(self, columns: dict[tuple[int, int], np.ndarray], *, dtype=None) -> np.ndarray:
        """Reassemble per-PE columns into a full field."""
        out = np.zeros(self.grid.shape, dtype=dtype or np.float32)
        for (x, y), col in columns.items():
            out[x, y, :] = col
        return out
