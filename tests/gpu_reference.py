"""Per-block reference forms the GPU model is pinned against.

The device model runs each kernel launch as whole-array operations and
charges its DRAM traffic from the closed form
``repro.gpu.timing.jx_traffic_bytes``.  These are the forms it replaced:
a launch decomposed into thread blocks (X outermost, Z innermost, edge
blocks clipped), each block's halo tally, and the matrix-free Jx run
block by block, each block gathering its six neighbour windows from the
global array (a window that leaves the domain is edge-padded, or zero
when it lies wholly outside) and accumulating the six terms from +0.0.
``tests/test_gpu_model.py`` requires the closed form to equal the summed
tally, and the whole-array Jx to equal the per-block one bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: fp32 bytes per DRAM access in the traffic model.
F32 = 4


@dataclass
class BlockIndex:
    """One thread block's cell ranges within the mesh."""

    x0: int
    x1: int
    y0: int
    y1: int
    z0: int
    z1: int

    @property
    def cells(self) -> int:
        return (self.x1 - self.x0) * (self.y1 - self.y0) * (self.z1 - self.z0)

    def slices(self) -> tuple[slice, slice, slice]:
        return (slice(self.x0, self.x1), slice(self.y0, self.y1), slice(self.z0, self.z1))

    def halo_cells(self, shape: tuple[int, int, int]) -> int:
        """Off-block stencil neighbours this block must fetch (7-point)."""
        nx, ny, nz = shape
        dx = self.x1 - self.x0
        dy = self.y1 - self.y0
        dz = self.z1 - self.z0
        total = 0
        if self.x0 > 0:
            total += dy * dz
        if self.x1 < nx:
            total += dy * dz
        if self.y0 > 0:
            total += dx * dz
        if self.y1 < ny:
            total += dx * dz
        if self.z0 > 0:
            total += dx * dy
        if self.z1 < nz:
            total += dx * dy
        return total


def iter_blocks(grid_shape, block_shape):
    """The blocks of one launch, in launch order."""
    nx, ny, nz = grid_shape
    bx, by, bz = block_shape
    for x0 in range(0, nx, bx):
        for y0 in range(0, ny, by):
            for z0 in range(0, nz, bz):
                yield BlockIndex(
                    x0, min(x0 + bx, nx),
                    y0, min(y0 + by, ny),
                    z0, min(z0 + bz, nz),
                )


def jx_block_bytes(block: BlockIndex, grid_shape) -> int:
    """One block's Jx DRAM bytes: its x cells and halo, six coefficient
    arrays and one store."""
    cells = block.cells
    return (cells + block.halo_cells(grid_shape) + 6 * cells + cells) * F32


def matrix_free_jx(coeffs_views, dirichlet_mask, x, out, block_shape) -> None:
    """``out = J x`` block by block, each cell's six terms summed in the
    order W, E, S, N, D, U from +0.0."""
    for block in iter_blocks(x.shape, block_shape):
        sx, sy, sz = block.slices()
        xc = x[sx, sy, sz]
        acc = np.zeros_like(xc)
        for key, axis, step in (
            ("W", 0, -1), ("E", 0, +1), ("S", 1, -1),
            ("N", 1, +1), ("D", 2, -1), ("U", 2, +1),
        ):
            nbr = _shifted(x, block, axis=axis, step=step)
            acc += coeffs_views[key][sx, sy, sz] * (xc - nbr)
        if dirichlet_mask is not None:
            acc = np.where(dirichlet_mask[sx, sy, sz], xc, acc)
        out[sx, sy, sz] = acc


def _shifted(x, block: BlockIndex, *, axis: int, step: int) -> np.ndarray:
    """The block's neighbour window along ``axis``, edge-padded where it
    leaves the domain, or zero where it lies wholly outside."""
    lo = [block.x0, block.y0, block.z0]
    hi = [block.x1, block.y1, block.z1]
    lo[axis] += step
    hi[axis] += step
    src_lo = max(lo[axis], 0)
    src_hi = min(hi[axis], x.shape[axis])
    idx = list(block.slices())
    idx[axis] = slice(src_lo, src_hi)
    core = x[tuple(idx)]
    if core.shape[axis] == 0:
        shape = (block.x1 - block.x0, block.y1 - block.y0, block.z1 - block.z0)
        return np.zeros(shape, dtype=x.dtype)
    pad = [(0, 0)] * 3
    pad[axis] = (src_lo - lo[axis], hi[axis] - src_hi)
    return np.pad(core, pad, mode="edge")
