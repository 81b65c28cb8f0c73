"""Cache-tile selection for the fused hot-loop engine.

The fused engine sweeps the lateral grid in rectangular *tiles* sized so
one tile's working set — the stencil input window plus every coefficient
and CG work column it touches — stays resident in cache between the FV
apply, the axpy updates and the dot partial it fuses (the paper's whole
premise: matrix-free kernels win by keeping the working set next to the
compute).  A tile is an ``(x0, x1, y0, y1)`` lateral box; the z axis is
never split (a PE owns a whole column).

Tile order is row-major over the tile grid and doubles as the engine's
*deterministic reduction order*: per-tile float64 dot partials are summed
sequentially in this order (the sharded engine's trick), so repeated runs
are bit-identical regardless of thread count.  So the tile also fixes
the bits of every answer.
"""

from __future__ import annotations

from repro.spec import normalize_fused_tile

#: Lateral working-set arrays per cell a tile is sized for, on the
#: generous side so the auto-picked tile errs small.  A tile-size
#: constant, not a recount of the kernel's buffers: changing it moves
#: the tile (18×128 at 128×128×4 float32), and so the answers' bits.
_ARRAYS_PER_CELL = 14

#: Target per-tile working set: comfortably inside a desktop L2.
_TARGET_TILE_BYTES = 512 * 1024


def auto_tile(nx: int, ny: int, nz: int, itemsize: int) -> tuple[int, int]:
    """Pick a tile shape from the grid and dtype.

    Always picks a *full-width row slab* ``(rows, ny)``: a slab's padded
    window is one contiguous block of the stencil buffer, so the apply
    reads it in place instead of copying it into scratch (see
    :class:`~repro.fused.kernels.TiledApply`).  The row count
    targets ``_TARGET_TILE_BYTES`` of working set per tile (``~14``
    arrays × ``nz`` × ``itemsize`` bytes per lateral cell), clamped to
    the grid; small grids come back as one whole-grid tile — per-tile
    dispatch is pure overhead below the cache ceiling.
    """
    bytes_per_row = max(1, _ARRAYS_PER_CELL * ny * nz * itemsize)
    rows = max(8, int(_TARGET_TILE_BYTES // bytes_per_row))
    return (min(nx, rows), ny)


def resolve_tile(fused_tile, nx: int, ny: int, nz: int, itemsize: int) -> tuple[int, int]:
    """The tile a solve runs: the normalized ``fused_tile`` (or the
    :func:`auto_tile` pick when it is ``None``), clamped to the grid."""
    tile = normalize_fused_tile(fused_tile)
    if tile is None:
        tile = auto_tile(nx, ny, nz, itemsize)
    return (min(tile[0], nx), min(tile[1], ny))


def tile_boxes(
    nx: int, ny: int, tile: tuple[int, int]
) -> list[tuple[int, int, int, int]]:
    """Row-major ``(x0, x1, y0, y1)`` lateral boxes covering the grid.

    The list order is the engine's deterministic dot-reduction order.
    Edge tiles are clipped, never padded, so every cell belongs to
    exactly one box.
    """
    tx, ty = tile
    tx, ty = min(tx, nx), min(ty, ny)
    boxes = []
    for x0 in range(0, nx, tx):
        for y0 in range(0, ny, ty):
            boxes.append((x0, min(x0 + tx, nx), y0, min(y0 + ty, ny)))
    return boxes


__all__ = ["auto_tile", "normalize_fused_tile", "resolve_tile", "tile_boxes"]
