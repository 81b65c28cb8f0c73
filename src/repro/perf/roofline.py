"""Roofline model (Fig. 6): ceilings, points, bound classification.

The CS-2 chart has a compute roof at 1.785 PFLOP/s and two bandwidth
slopes — memory at 20 PB/s and fabric at 3.3 PB/s — with the kernel
plotted twice (once per resource).  The paper's headline: both dots are
*compute-bound* at 68 % of peak (1.217 PFLOP/s achieved, using the
96-FLOP/cell count over the Alg. 2 kernel time).

The A100 chart uses the measured ERT ceilings (14.7 TFLOP/s; L1/L2/HBM
slopes); the kernel is memory-bound there.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.specs import A100, GpuSpecs
from repro.gpu.timing import GpuTimingModel, jx_traffic_bytes
from repro.perf.opcount import paper_arithmetic_intensities, paper_flops_per_cell
from repro.perf.timemodel import Cs2TimeModel
from repro.util.errors import ConfigurationError
from repro.wse.specs import WSE2, WseSpecs


@dataclass(frozen=True)
class RooflineCeiling:
    """One bandwidth slope (or the compute roof) of a roofline chart."""

    name: str
    bandwidth_bytes: float | None  # None for the compute roof
    peak_flops: float

    def bound_at(self, intensity: float) -> float:
        """Attainable FLOP/s at a given arithmetic intensity."""
        if intensity <= 0:
            raise ConfigurationError("arithmetic intensity must be > 0")
        if self.bandwidth_bytes is None:
            return self.peak_flops
        return min(self.peak_flops, self.bandwidth_bytes * intensity)


@dataclass(frozen=True)
class RooflinePoint:
    """A measured/modelled kernel point on a roofline chart."""

    label: str
    intensity_flops_per_byte: float
    achieved_flops: float
    ceiling: RooflineCeiling

    @property
    def attainable_flops(self) -> float:
        return self.ceiling.bound_at(self.intensity_flops_per_byte)

    @property
    def fraction_of_attainable(self) -> float:
        return self.achieved_flops / self.attainable_flops

    @property
    def fraction_of_peak(self) -> float:
        return self.achieved_flops / self.ceiling.peak_flops

    @property
    def is_compute_bound(self) -> bool:
        """True when the bandwidth slope at this AI clears the roof."""
        if self.ceiling.bandwidth_bytes is None:
            return True
        return (
            self.ceiling.bandwidth_bytes * self.intensity_flops_per_byte
            >= self.ceiling.peak_flops
        )


@dataclass(frozen=True)
class RooflineChart:
    """A platform's ceilings plus its kernel points."""

    platform: str
    ceilings: tuple[RooflineCeiling, ...]
    points: tuple[RooflinePoint, ...]


def build_cs2_roofline(
    *,
    spec: WseSpecs = WSE2,
    num_cells: int = 750 * 994 * 922,
    model: Cs2TimeModel | None = None,
) -> RooflineChart:
    """The Fig. 6 (top) chart: memory and fabric dots for the FV kernel.

    Achieved FLOP/s follows the paper's accounting: 96 FLOPs per cell over
    the Alg. 2 kernel time per iteration.
    """
    model = model or Cs2TimeModel.calibrated(spec)
    ai_mem, ai_fabric = paper_arithmetic_intensities()
    t_iter = model.iteration_time_alg2(922)
    achieved = paper_flops_per_cell() * num_cells / t_iter
    mem_ceiling = RooflineCeiling("memory", spec.memory_bandwidth_bytes, spec.peak_flops)
    fabric_ceiling = RooflineCeiling("fabric", spec.fabric_bandwidth_bytes, spec.peak_flops)
    points = (
        RooflinePoint("FV kernel (memory)", ai_mem, achieved, mem_ceiling),
        RooflinePoint("FV kernel (fabric)", ai_fabric, achieved, fabric_ceiling),
    )
    return RooflineChart("CS-2 (WSE-2)", (mem_ceiling, fabric_ceiling), points)


def build_a100_roofline(
    *,
    specs: GpuSpecs = A100,
    grid_shape: tuple[int, int, int] = (750, 994, 922),
    iterations: int = 225,
    timing: GpuTimingModel | None = None,
) -> RooflineChart:
    """The Fig. 6 (bottom) chart: the kernel's DRAM dot on the A100.

    Arithmetic intensity uses the paper's 96-FLOP/cell count over our
    block-level DRAM traffic model; achieved FLOP/s uses the published
    Alg. 2 kernel time.  The kernel is memory-bound (the paper's
    classification); ``benchmarks/bench_fig6_roofline.py`` and
    ``tests/test_perf_models.py::TestRoofline`` check where it sits.
    """
    timing = timing or GpuTimingModel.calibrated_a100()
    n = grid_shape[0] * grid_shape[1] * grid_shape[2]
    flops_per_iter = paper_flops_per_cell() * n
    bytes_per_iter = jx_traffic_bytes(grid_shape, timing.block_shape)
    ai_dram = flops_per_iter / bytes_per_iter
    t_iter = timing.iteration_time_alg2(grid_shape)
    achieved = flops_per_iter / t_iter
    hbm = RooflineCeiling("HBM", specs.hbm_bandwidth, specs.peak_flops_f32)
    l2 = RooflineCeiling("L2", specs.l2_bandwidth, specs.peak_flops_f32)
    l1 = RooflineCeiling("L1", specs.l1_bandwidth, specs.peak_flops_f32)
    points = (RooflinePoint("FV kernel (DRAM)", ai_dram, achieved, hbm),)
    return RooflineChart(specs.name, (hbm, l2, l1), points)
