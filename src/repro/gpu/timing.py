"""GPU timing model, calibrated on the paper's published endpoints.

Model
-----
Per CG iteration the device moves a predictable number of DRAM bytes (the
block-level traffic model below, which the kernels of `repro.gpu.kernels`
also charge) and pays a fixed per-iteration host overhead (kernel
launches plus the host-synchronized dot-product reductions CG needs for
α and β):

    t_iter(N) = bytes_per_iter(N) / achieved_bandwidth + overhead

The paper's Table III A100 columns are affine in N to high accuracy, which
is exactly this model; we calibrate ``achieved_bandwidth`` and
``overhead`` from the smallest and largest published rows (Alg. 1 and
Alg. 2 separately), then *predict* the five middle rows
(``tests/test_gpu_model.py`` holds each within 15 % of the paper).  The
implied achieved bandwidth is ~620 GB/s ≈ 49 % of the A100's measured
1262.9 GB/s ceiling — a plausible stencil+reduction duty cycle.

For the H100 only one time is published (Table II); we assume the same
code (same overhead) and back out its achieved bandwidth.

Traffic model
-------------
``jx_traffic_bytes`` counts, per launch: one read of x per cell plus
halo re-reads across block boundaries (no inter-block reuse), six
coefficient reads, one store.  CG adds two dots (2 reads each) and three
axpy-style updates (2 reads + 1 store each) per iteration.  It is the
only Jx traffic model: every functional Jx launch charges it, and the
timing model below prices it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpu.model import BlockShape, DEFAULT_BLOCK_SHAPE, F32, block_counts
from repro.gpu.specs import A100, H100, GpuSpecs
from repro.util.errors import ConfigurationError

#: Published endpoints (Table II / Table III of the paper).
PAPER_A100_ALG1 = ((36_880_000, 226, 2.8021), (687_351_000, 225, 23.1879))
PAPER_A100_ALG2 = ((36_880_000, 226, 1.3979), (687_351_000, 225, 9.5507))
PAPER_H100_ALG1_TIME = 11.3861  # s, 225 iterations, largest mesh (Table II)

#: Streaming bytes per cell per iteration for CG's vector work: two dots
#: (p·Ap and r·r: 2 reads each) + axpy on y, axpy on r, xpay on p
#: (2 reads + 1 store each).
CG_VECTOR_BYTES_PER_CELL = (2 * 2 + 3 * 3) * F32


def jx_traffic_bytes(
    grid_shape: tuple[int, int, int],
    block_shape: BlockShape = DEFAULT_BLOCK_SHAPE,
) -> int:
    """Closed-form DRAM bytes of one matrix-free Jx launch.

    :func:`repro.gpu.kernels.launch_matrix_free_jx` charges exactly this;
    ``tests/gpu_reference.py`` keeps a per-block tally that sums to it.
    """
    nx, ny, nz = grid_shape
    n = nx * ny * nz
    nbx, nby, nbz = block_counts(grid_shape, block_shape)
    halo = 2 * (
        (nbx - 1) * ny * nz + (nby - 1) * nx * nz + (nbz - 1) * nx * ny
    )
    # x reads (interior + halo) + 6 coefficient arrays + 1 store.
    return (n + halo + 6 * n + n) * F32


def cg_iteration_bytes(
    grid_shape: tuple[int, int, int],
    block_shape: BlockShape = DEFAULT_BLOCK_SHAPE,
) -> int:
    """DRAM bytes of one full CG iteration (Jx + dots + updates)."""
    n = grid_shape[0] * grid_shape[1] * grid_shape[2]
    return jx_traffic_bytes(grid_shape, block_shape) + n * CG_VECTOR_BYTES_PER_CELL


@dataclass(frozen=True)
class GpuTimingModel:
    """Calibrated affine-in-N timing for a GPU.

    Attributes
    ----------
    specs:
        The GPU (ceilings for rooflines and reporting).
    achieved_bandwidth:
        Sustained DRAM bandwidth on this kernel chain (calibrated).
    overhead_alg1 / overhead_alg2:
        Fixed per-iteration host cost for the full CG iteration and the
        Jx-only kernel loop respectively (launches + host-synced dots).
    """

    specs: GpuSpecs
    achieved_bandwidth: float
    overhead_alg1: float
    overhead_alg2: float
    block_shape: BlockShape = DEFAULT_BLOCK_SHAPE

    def __post_init__(self) -> None:
        if self.achieved_bandwidth <= 0:
            raise ConfigurationError("achieved_bandwidth must be > 0")
        if self.achieved_bandwidth > self.specs.hbm_bandwidth:
            raise ConfigurationError(
                "achieved bandwidth cannot exceed the HBM ceiling "
                f"({self.achieved_bandwidth:.3g} > {self.specs.hbm_bandwidth:.3g})"
            )

    # -- per-iteration and total times ------------------------------------------

    def iteration_time_alg2(self, grid_shape: tuple[int, int, int]) -> float:
        bytes_iter = jx_traffic_bytes(grid_shape, self.block_shape)
        return bytes_iter / self.achieved_bandwidth + self.overhead_alg2

    def iteration_time_alg1(self, grid_shape: tuple[int, int, int]) -> float:
        bytes_iter = cg_iteration_bytes(grid_shape, self.block_shape)
        return bytes_iter / self.achieved_bandwidth + self.overhead_alg1

    def total_time_alg2(self, grid_shape, iterations: int) -> float:
        return self.iteration_time_alg2(grid_shape) * iterations

    def total_time_alg1(self, grid_shape, iterations: int) -> float:
        return self.iteration_time_alg1(grid_shape) * iterations

    def time_from_traffic(self, dram_bytes: int, iterations: int, *, alg1: bool = True) -> float:
        """Time for measured (counter) traffic — used by the functional
        solver, which knows its exact byte count."""
        overhead = self.overhead_alg1 if alg1 else self.overhead_alg2
        return dram_bytes / self.achieved_bandwidth + overhead * iterations

    # -- calibration ---------------------------------------------------------------

    @classmethod
    def calibrated(
        cls,
        specs: GpuSpecs,
        endpoints_alg1,
        endpoints_alg2,
        *,
        nz: int = 922,
        block_shape: BlockShape = DEFAULT_BLOCK_SHAPE,
    ) -> "GpuTimingModel":
        """Fit (bandwidth, overheads) to two published (N, iters, time)
        endpoints per algorithm.

        The bandwidth comes from the Alg. 1 slope; Alg. 2 gets its own
        overhead from its small endpoint under the shared bandwidth.
        """
        (n1, it1, t1), (n2, it2, t2) = endpoints_alg1
        per1, per2 = t1 / it1, t2 / it2
        shape1 = _shape_for(n1, nz)
        shape2 = _shape_for(n2, nz)
        b1 = cg_iteration_bytes(shape1, block_shape)
        b2 = cg_iteration_bytes(shape2, block_shape)
        bandwidth = (b2 - b1) / (per2 - per1)
        overhead_alg1 = per1 - b1 / bandwidth

        (m1, jt1, s1), _ = endpoints_alg2
        jshape1 = _shape_for(m1, nz)
        overhead_alg2 = s1 / jt1 - jx_traffic_bytes(jshape1, block_shape) / bandwidth
        return cls(
            specs=specs,
            achieved_bandwidth=bandwidth,
            overhead_alg1=max(overhead_alg1, 0.0),
            overhead_alg2=max(overhead_alg2, 0.0),
            block_shape=block_shape,
        )

    @classmethod
    def for_specs(
        cls, specs: GpuSpecs, block_shape: BlockShape = DEFAULT_BLOCK_SHAPE
    ) -> "GpuTimingModel":
        """The calibrated model of a GPU the paper times (the A100 and
        the H100), else a roofline-ideal one: half the HBM ceiling and no
        per-iteration overhead."""
        calibrated = {
            A100.name: cls.calibrated_a100, H100.name: cls.calibrated_h100,
        }.get(specs.name)
        if calibrated is not None:
            return calibrated()
        return cls(
            specs=specs,
            achieved_bandwidth=0.5 * specs.hbm_bandwidth,
            overhead_alg1=0.0,
            overhead_alg2=0.0,
            block_shape=block_shape,
        )

    @classmethod
    def calibrated_a100(cls) -> "GpuTimingModel":
        """The A100 model fit on Table III's smallest/largest rows."""
        return cls.calibrated(A100, PAPER_A100_ALG1, PAPER_A100_ALG2)

    @classmethod
    def calibrated_h100(cls) -> "GpuTimingModel":
        """The H100 model: same code (same overheads as the A100 fit),
        achieved bandwidth backed out of its single Table II time."""
        a100 = cls.calibrated_a100()
        n2, it2, _ = PAPER_A100_ALG1[1]
        shape2 = _shape_for(n2, 922)
        per_iter = PAPER_H100_ALG1_TIME / it2
        stream_time = per_iter - a100.overhead_alg1
        if stream_time <= 0:
            raise ConfigurationError("H100 calibration: overhead exceeds time")
        bandwidth = cg_iteration_bytes(shape2) / stream_time
        return cls(
            specs=H100,
            achieved_bandwidth=bandwidth,
            overhead_alg1=a100.overhead_alg1,
            overhead_alg2=a100.overhead_alg2,
        )


def _shape_for(num_cells: int, nz: int) -> tuple[int, int, int]:
    """Recover the paper's (nx, ny, nz) from a cell count at fixed nz.

    Table III grids all share nz = 922 and publish nx, ny; we only need a
    shape whose block decomposition matches, so factor the lateral size as
    the paper's nx × ny when known, else a near-square split.
    """
    lateral = num_cells // nz
    if lateral * nz != num_cells:
        raise ConfigurationError(f"{num_cells} not divisible by nz={nz}")
    known = {
        40_000: (200, 200),
        160_000: (400, 400),
        360_000: (600, 600),
        450_000: (750, 600),
        600_000: (750, 800),
        712_500: (750, 950),
        745_500: (750, 994),
    }
    if lateral in known:
        nx, ny = known[lateral]
    else:
        nx = int(math.sqrt(lateral))
        while lateral % nx:
            nx -= 1
        ny = lateral // nx
    return (nx, ny, nz)
