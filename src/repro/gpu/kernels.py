"""Device kernels: matrix-free Jx, dot products, vector updates.

"Each GPU thread handles a cell K ... concurrently fetches the cell data
for itself and all cell data from its six neighboring cells", computes
Eq. (6) per neighbour and assembles the fluxes (§IV).  A thread's
arithmetic is elementwise, so each launch runs as whole-array NumPy
operations in the thread's order of operations: the same bits per cell,
no per-block or per-thread Python.  Only the dot keeps its blocks, since
each block's partial sum, added in block order, sets the bits of α and β.

Each launch charges the `GpuDevice` from closed forms:

* Jx: :func:`repro.gpu.timing.jx_traffic_bytes` — ``x`` once per cell
  plus the off-block halo cells each block re-reads (no inter-block
  reuse), six coefficient arrays once each, one store per cell;
* dots/axpys: pure streaming, two FLOPs per cell and one fp32 read per
  operand and one store per output, per cell.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.fv.coefficients import FluxCoefficients
from repro.gpu.model import F32, GpuDevice
from repro.gpu.timing import jx_traffic_bytes
from repro.mesh.boundary import DirichletSet
from repro.util.errors import ValidationError

#: FLOPs a GPU thread spends per neighbour in our kernel: one subtract and
#: one fused multiply-add (matching `repro.core.fv_kernel`'s per-neighbour
#: arithmetic; the paper's own accounting charges 14 — see
#: `repro.perf.opcount` for both).
FLOPS_PER_NEIGHBOR = 3


def launch_matrix_free_jx(
    device: GpuDevice,
    coeffs_views: dict[str, np.ndarray],
    dirichlet_mask: np.ndarray | None,
    x: np.ndarray,
    out: np.ndarray,
) -> None:
    """One kernel launch computing ``out = J x`` (Eq. 6).

    ``coeffs_views`` holds the six zero-padded per-cell coefficient arrays
    keyed ``"W","E","S","N","D","U"`` (mesh directions), shaped like the
    grid.  Each cell sums its six neighbour terms in that order from
    +0.0.  An off-domain neighbour reads the edge cell; its zero
    coefficient makes the term ±0.0, which never changes the sum.
    """
    shape = x.shape
    if out.shape != shape:
        raise ValidationError(f"out shape {out.shape} != x shape {shape}")
    xp = np.pad(x, 1, mode="edge")
    acc = np.zeros_like(x)
    acc += coeffs_views["W"] * (x - xp[:-2, 1:-1, 1:-1])
    acc += coeffs_views["E"] * (x - xp[2:, 1:-1, 1:-1])
    acc += coeffs_views["S"] * (x - xp[1:-1, :-2, 1:-1])
    acc += coeffs_views["N"] * (x - xp[1:-1, 2:, 1:-1])
    acc += coeffs_views["D"] * (x - xp[1:-1, 1:-1, :-2])
    acc += coeffs_views["U"] * (x - xp[1:-1, 1:-1, 2:])
    if dirichlet_mask is not None:
        acc = np.where(dirichlet_mask, x, acc)
    out[...] = acc
    device.charge(
        shape,
        flops=x.size * 6 * FLOPS_PER_NEIGHBOR,
        dram_bytes=jx_traffic_bytes(shape, device.block_shape),
    )


def launch_dot(device: GpuDevice, a: np.ndarray, b: np.ndarray) -> float:
    """Device dot product (block-wise partial sums, as a reduction kernel
    would produce) followed by the host-side final accumulation, in block
    order, that the paper's CG needs for α/β."""
    if a.shape != b.shape:
        raise ValidationError("dot operands must share a shape")
    bx, by, bz = device.block_shape
    nx, ny, nz = a.shape
    partials = []
    for i, j, k in itertools.product(
        range(0, nx, bx), range(0, ny, by), range(0, nz, bz)
    ):
        block = (slice(i, i + bx), slice(j, j + by), slice(k, k + bz))
        partials.append(float(np.vdot(a[block], b[block]).real))
    device.charge(a.shape, flops=2 * a.size, dram_bytes=2 * a.size * F32)
    return float(sum(partials))


def launch_fma(device: GpuDevice, a: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """``y += a ⊙ x`` (elementwise, one streaming kernel) — the transient
    accumulation term fused after the matrix-free ``Jx`` launch."""
    if a.shape != x.shape or x.shape != y.shape:
        raise ValidationError("fma operands must share a shape")
    y += a * x
    device.charge(x.shape, flops=2 * x.size, dram_bytes=4 * x.size * F32)


def launch_axpy(device: GpuDevice, alpha: float, x: np.ndarray, y: np.ndarray) -> None:
    """``y += alpha * x`` (one streaming kernel)."""
    if x.shape != y.shape:
        raise ValidationError("axpy operands must share a shape")
    y += np.asarray(alpha, dtype=y.dtype) * x
    device.charge(x.shape, flops=2 * x.size, dram_bytes=3 * x.size * F32)


def launch_xpay(device: GpuDevice, x: np.ndarray, beta: float, y: np.ndarray) -> None:
    """``y = x + beta * y`` (the CG direction update, one kernel)."""
    if x.shape != y.shape:
        raise ValidationError("xpay operands must share a shape")
    y[...] = x + np.asarray(beta, dtype=y.dtype) * y
    device.charge(x.shape, flops=2 * x.size, dram_bytes=3 * x.size * F32)


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
