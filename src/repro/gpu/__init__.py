"""CUDA-like GPU reference implementation (§IV) — model + timing.

The paper's baseline is a CUDA matrix-free FV kernel on A100/H100 GPUs:
3D thread blocks of 16×8×8 (X innermost), one thread per cell, each thread
gathering its six neighbours and accumulating the flux.  We reproduce:

* the execution model (`model`): device memory and per-launch counters
  charged from closed forms over the thread blocks that tile the grid;
* the kernels (`kernels`): matrix-free Jx, dot products, axpy updates,
  each launch one whole-array operation in a thread's order of
  operations (the dot keeps its per-block partial sums), charged the
  block-level memory-traffic model of `timing` (intra-block reuse,
  inter-block halo re-reads);
* the CG driver (`cg`): the same Algorithm 1 over device kernels;
* the timing model (`timing`): bytes-over-achieved-bandwidth plus a
  per-iteration host-synchronization overhead, with constants calibrated
  once against two published endpoints (``tests/test_gpu_model.py``
  checks them and the predicted rows).
"""

from repro.gpu.specs import GpuSpecs, A100, H100
from repro.gpu.model import GpuDevice, BlockShape, DEFAULT_BLOCK_SHAPE
from repro.gpu.kernels import (
    launch_matrix_free_jx,
    launch_dot,
    launch_axpy,
    launch_xpay,
)
from repro.gpu.cg import GpuCGSolver, GpuSolveReport
from repro.gpu.timing import GpuTimingModel

__all__ = [
    "GpuSpecs",
    "A100",
    "H100",
    "GpuDevice",
    "BlockShape",
    "DEFAULT_BLOCK_SHAPE",
    "launch_matrix_free_jx",
    "launch_dot",
    "launch_axpy",
    "launch_xpay",
    "GpuCGSolver",
    "GpuSolveReport",
    "GpuTimingModel",
]
