"""Device kernels: matrix-free Jx, dot products, vector updates.

Each launch executes block-by-block (§IV): "each GPU thread handles a cell
K ... concurrently fetches the cell data for itself and all cell data from
its six neighboring cells", computes Eq. (6) per neighbour and assembles
the fluxes.  The block body is vectorized NumPy over the block's cell
ranges — identical arithmetic, same partitioning, no per-thread Python.

Traffic accounting per block (the `GpuDevice` cache model):

* ``x``: interior cells once + off-block halo cells (re-read, no
  inter-block reuse);
* six coefficient arrays: interior cells once each;
* output: one store per cell;
* dots/axpys: pure streaming (one read per operand, one store per output).
"""

from __future__ import annotations

import numpy as np

from repro.fv.coefficients import FluxCoefficients
from repro.gpu.model import BlockIndex, F32, GpuDevice
from repro.mesh.boundary import DirichletSet
from repro.util.errors import ValidationError

#: FLOPs a GPU thread spends per neighbour in our kernel: one subtract and
#: one fused multiply-add (matching `repro.core.fv_kernel`'s per-neighbour
#: arithmetic; the paper's own accounting charges 14 — see
#: `repro.perf.opcount` for both).
FLOPS_PER_NEIGHBOR = 3

#: Number of coefficient arrays read per cell.
NUM_COEFF_ARRAYS = 6


def launch_matrix_free_jx(
    device: GpuDevice,
    coeffs_views: dict[str, np.ndarray],
    dirichlet_mask: np.ndarray | None,
    x: np.ndarray,
    out: np.ndarray,
) -> None:
    """One kernel launch computing ``out = J x`` (Eq. 6) block-by-block.

    ``coeffs_views`` holds the six zero-padded per-cell coefficient arrays
    keyed ``"W","E","S","N","D","U"`` (mesh directions), shaped like the
    grid.
    """
    shape = x.shape
    if out.shape != shape:
        raise ValidationError(f"out shape {out.shape} != x shape {shape}")
    cw, ce = coeffs_views["W"], coeffs_views["E"]
    cs, cn = coeffs_views["S"], coeffs_views["N"]
    cd, cu = coeffs_views["D"], coeffs_views["U"]
    nx, ny, nz = shape

    def block_body(block: BlockIndex) -> tuple[int, int]:
        sx, sy, sz = block.slices()
        xc = x[sx, sy, sz]
        acc = np.zeros_like(xc)

        # The six neighbours (global-memory gathers, may cross block).
        w = _shifted(x, block, axis=0, step=-1)
        acc += cw[sx, sy, sz] * (xc - w)
        e = _shifted(x, block, axis=0, step=+1)
        acc += ce[sx, sy, sz] * (xc - e)
        s = _shifted(x, block, axis=1, step=-1)
        acc += cs[sx, sy, sz] * (xc - s)
        n = _shifted(x, block, axis=1, step=+1)
        acc += cn[sx, sy, sz] * (xc - n)
        d = _shifted(x, block, axis=2, step=-1)
        acc += cd[sx, sy, sz] * (xc - d)
        u = _shifted(x, block, axis=2, step=+1)
        acc += cu[sx, sy, sz] * (xc - u)

        if dirichlet_mask is not None:
            mask = dirichlet_mask[sx, sy, sz]
            acc = np.where(mask, xc, acc)
        out[sx, sy, sz] = acc

        flops = block.cells * 6 * FLOPS_PER_NEIGHBOR
        traffic_cells = (
            block.cells  # x interior
            + block.halo_cells(shape)  # x halo re-reads
            + block.cells * NUM_COEFF_ARRAYS  # coefficients
            + block.cells  # store
        )
        return flops, traffic_cells * F32

    device.launch(shape, block_body)


def _shifted(x: np.ndarray, block: BlockIndex, *, axis: int, step: int) -> np.ndarray:
    """Gather the neighbour value along ``axis`` for each block cell,
    clamping at the domain boundary (the zero-padded coefficient kills the
    contribution there, so the clamped value is never used)."""
    lo = [block.x0, block.y0, block.z0]
    hi = [block.x1, block.y1, block.z1]
    lo[axis] += step
    hi[axis] += step
    n = x.shape[axis]
    src_lo = max(lo[axis], 0)
    src_hi = min(hi[axis], n)
    idx = [slice(block.x0, block.x1), slice(block.y0, block.y1), slice(block.z0, block.z1)]
    idx[axis] = slice(src_lo, src_hi)
    core = x[tuple(idx)]
    if core.shape[axis] == 0:
        # The whole shifted window lies outside the domain (a one-cell-wide
        # boundary block): the zero-padded coefficient nullifies these
        # contributions, so any fill value works.
        shape = [block.x1 - block.x0, block.y1 - block.y0, block.z1 - block.z0]
        return np.zeros(tuple(shape), dtype=x.dtype)
    pad_before = src_lo - lo[axis]
    pad_after = hi[axis] - src_hi
    if pad_before or pad_after:
        pad = [(0, 0)] * 3
        pad[axis] = (pad_before, pad_after)
        core = np.pad(core, pad, mode="edge")
    return core


def launch_dot(device: GpuDevice, a: np.ndarray, b: np.ndarray) -> float:
    """Device dot product (block-wise partial sums, as a reduction kernel
    would produce) followed by the host-side final accumulation the
    paper's CG needs for α/β."""
    if a.shape != b.shape:
        raise ValidationError("dot operands must share a shape")
    partials = []

    def block_body(block: BlockIndex) -> tuple[int, int]:
        sx, sy, sz = block.slices()
        partials.append(float(np.vdot(a[sx, sy, sz], b[sx, sy, sz]).real))
        return block.cells * 2, 2 * block.cells * F32

    device.launch(a.shape, block_body)
    return float(sum(partials))


def launch_fma(device: GpuDevice, a: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """``y += a ⊙ x`` (elementwise, one streaming kernel) — the transient
    accumulation term fused after the matrix-free ``Jx`` launch."""
    if a.shape != x.shape or x.shape != y.shape:
        raise ValidationError("fma operands must share a shape")

    def block_body(block: BlockIndex) -> tuple[int, int]:
        sx, sy, sz = block.slices()
        y[sx, sy, sz] += a[sx, sy, sz] * x[sx, sy, sz]
        return block.cells * 2, 4 * block.cells * F32

    device.launch(x.shape, block_body)


def launch_axpy(device: GpuDevice, alpha: float, x: np.ndarray, y: np.ndarray) -> None:
    """``y += alpha * x`` (one streaming kernel)."""
    if x.shape != y.shape:
        raise ValidationError("axpy operands must share a shape")

    def block_body(block: BlockIndex) -> tuple[int, int]:
        sx, sy, sz = block.slices()
        y[sx, sy, sz] += np.asarray(alpha, dtype=y.dtype) * x[sx, sy, sz]
        return block.cells * 2, 3 * block.cells * F32

    device.launch(x.shape, block_body)


def launch_xpay(device: GpuDevice, x: np.ndarray, beta: float, y: np.ndarray) -> None:
    """``y = x + beta * y`` (the CG direction update, one kernel)."""
    if x.shape != y.shape:
        raise ValidationError("xpay operands must share a shape")

    def block_body(block: BlockIndex) -> tuple[int, int]:
        sx, sy, sz = block.slices()
        y[sx, sy, sz] = x[sx, sy, sz] + np.asarray(beta, dtype=y.dtype) * y[sx, sy, sz]
        return block.cells * 2, 3 * block.cells * F32

    device.launch(x.shape, block_body)


def coefficient_views_for(coeffs: FluxCoefficients) -> dict[str, np.ndarray]:
    """The six zero-padded per-cell coefficient arrays the kernel reads."""
    from repro.mesh.grid import Direction

    return {
        "W": coeffs.cell_view(Direction.WEST),
        "E": coeffs.cell_view(Direction.EAST),
        "S": coeffs.cell_view(Direction.SOUTH),
        "N": coeffs.cell_view(Direction.NORTH),
        "D": coeffs.cell_view(Direction.DOWN),
        "U": coeffs.cell_view(Direction.UP),
    }


def dirichlet_mask_for(dirichlet: DirichletSet | None) -> np.ndarray | None:
    if dirichlet is None or dirichlet.is_empty:
        return None
    return dirichlet.mask
