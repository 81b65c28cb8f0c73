"""The 7-point stencil (Fig. 1) as data.

The stencil is the communication footprint of the matrix-free kernel: four
lateral neighbours exchanged over the fabric, two vertical neighbours
resident in the same PE column.
"""

from __future__ import annotations

from repro.mesh.grid import Direction, DIRECTIONS

#: (direction, offset) pairs for the 6 off-center stencil points.
STENCIL_OFFSETS: tuple[tuple[Direction, tuple[int, int, int]], ...] = tuple(
    (d, d.offset) for d in DIRECTIONS
)

#: Number of stencil neighbours for an interior cell.
INTERIOR_NEIGHBORS = 6

#: FLOPs the paper charges per neighbour contribution (14, with FMA = 2).
PAPER_FLOPS_PER_NEIGHBOR = 14

#: FLOPs the paper charges per cell for the rest of Algorithm 1 (12).
PAPER_FLOPS_REST_OF_CG = 12

#: Total per-cell FLOPs in the paper's accounting (6 * 14 + 12 = 96).
PAPER_FLOPS_PER_CELL = INTERIOR_NEIGHBORS * PAPER_FLOPS_PER_NEIGHBOR + PAPER_FLOPS_REST_OF_CG
