"""CUDA-like execution model: grids of thread blocks over the cell mesh.

The paper launches 3D thread blocks of 16×8×8 (1024 threads, the hardware
cap), X innermost (§IV).  The model:

* runs a kernel launch as whole-array NumPy operations: a GPU thread's
  arithmetic is elementwise, so each cell gets the same operations in
  the same order as its thread would;
* charges each launch from closed forms: one thread per cell, the
  blocks that tile the grid, the kernel's FLOPs, and its DRAM bytes
  (for the stencil, :func:`repro.gpu.timing.jx_traffic_bytes`: within a
  block each global array element is read once, across blocks there is
  no reuse, so stencil halo cells are re-read — the classic
  surface-to-volume amplification).

The model is *functionally exact* and *traffic-analytic*; wall-clock time
comes from `repro.gpu.timing`, never from Python runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.gpu.specs import GpuSpecs
from repro.util.errors import ConfigurationError

#: fp32 bytes.
F32 = 4


class BlockShape(NamedTuple):
    """Thread-block extents; ``x`` is the innermost (coalescing) dimension."""

    x: int
    y: int
    z: int

    @property
    def threads(self) -> int:
        return self.x * self.y * self.z


#: The paper's block shape: "GPU threadblock size of 16 x 8 x 8, where 16
#: is the innermost dimension size".
DEFAULT_BLOCK_SHAPE = BlockShape(16, 8, 8)


@dataclass
class GpuCounters:
    """Device counters accumulated across kernel launches."""

    kernel_launches: int = 0
    threads_executed: int = 0
    flops: int = 0
    dram_bytes: int = 0
    blocks_executed: int = 0


def block_counts(
    grid_shape: tuple[int, int, int], block_shape: BlockShape
) -> tuple[int, int, int]:
    """Blocks per axis of a launch over ``grid_shape`` (edge blocks are
    clipped to the grid)."""
    return tuple(-(-n // b) for n, b in zip(grid_shape, block_shape))


class GpuDevice:
    """A GPU: device-memory accounting and per-launch counters.

    Parameters
    ----------
    specs:
        Hardware description (used for capacity checks and rooflines).
    block_shape:
        Thread-block extents; must not exceed 1024 threads (the CUDA and
        paper constraint).
    """

    def __init__(self, specs: GpuSpecs, block_shape: BlockShape = DEFAULT_BLOCK_SHAPE):
        if block_shape.threads > specs.max_threads_per_block:
            raise ConfigurationError(
                f"block {block_shape} has {block_shape.threads} threads; the "
                f"device caps blocks at {specs.max_threads_per_block}"
            )
        self.specs = specs
        self.block_shape = block_shape
        self.counters = GpuCounters()
        self._allocated_bytes = 0

    # -- memory ------------------------------------------------------------------

    def alloc_like(self, shape, dtype=np.float32) -> np.ndarray:
        """cudaMalloc-style allocation with device-capacity accounting."""
        # Check the modeled capacity before touching host memory, so an
        # oversized request fails like cudaMalloc would instead of OOMing
        # the host.
        nbytes = int(np.prod(np.asarray(shape, dtype=np.int64))) * np.dtype(dtype).itemsize
        if self._allocated_bytes + nbytes > self.specs.device_memory_bytes:
            raise ConfigurationError(
                f"device memory exhausted: {self._allocated_bytes + nbytes} B > "
                f"{self.specs.device_memory_bytes:.0f} B on {self.specs.name}"
            )
        self._allocated_bytes += nbytes
        return np.zeros(shape, dtype=dtype)

    def htod(self, host_array: np.ndarray, dtype=np.float32) -> np.ndarray:
        """Host-to-device copy (counted as allocation, not kernel traffic:
        the paper loads everything once up front, §IV)."""
        dev = self.alloc_like(host_array.shape, dtype=dtype)
        dev[...] = host_array
        return dev

    @property
    def allocated_bytes(self) -> int:
        return self._allocated_bytes

    # -- launch ------------------------------------------------------------------

    def charge(
        self, grid_shape: tuple[int, int, int], *, flops: int, dram_bytes: int
    ) -> None:
        """Count one kernel launch over ``grid_shape``: one thread per
        cell, the ``block_shape`` blocks that tile the grid, and the
        launch's FLOPs and DRAM bytes.  One launch = one kernel, as in
        CUDA."""
        counters = self.counters
        counters.kernel_launches += 1
        counters.blocks_executed += math.prod(block_counts(grid_shape, self.block_shape))
        counters.threads_executed += math.prod(grid_shape)
        counters.flops += int(flops)
        counters.dram_bytes += int(dram_bytes)
