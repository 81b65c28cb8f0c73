"""What-if projections: the calibrated models applied to hypothetical
machines (the "post-exascale" direction the paper's §II-C cites).

With the CS-2 model calibrated, we can ask the questions a follow-up
study would: what does a bigger wafer, a faster clock, wider SIMD or a
deeper-memory PE buy for this kernel?  The projections keep the
calibrated per-hop and per-instruction constants and scale only the
stated machine parameters — they are *model extrapolations*, clearly not
measurements, and are labelled as such by the bench that prints them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.memmodel import PeMemoryModel, SCALAR_RESERVE_BYTES
from repro.perf.timemodel import Cs2TimeModel
from repro.util.errors import ConfigurationError
from repro.wse.specs import WSE2, WseSpecs


@dataclass(frozen=True)
class WhatIfScenario:
    """A hypothetical machine derived from the CS-2 baseline.

    Attributes scale the respective baseline parameter (1.0 = CS-2).
    """

    name: str
    fabric_scale: float = 1.0  # linear scale on width and height
    clock_scale: float = 1.0
    simd_scale: float = 1.0
    memory_scale: float = 1.0  # per-PE memory

    def apply(self, base: WseSpecs = WSE2) -> WseSpecs:
        if min(self.fabric_scale, self.clock_scale, self.simd_scale,
               self.memory_scale) <= 0:
            raise ConfigurationError("scenario scales must be > 0")
        width = max(1, int(round(base.fabric_width * self.fabric_scale)))
        height = max(1, int(round(base.fabric_height * self.fabric_scale)))
        simd = max(1, int(round(base.simd_width_f32 * self.simd_scale)))
        clock = base.clock_hz * self.clock_scale
        peak = simd * 2.0 * clock * width * height
        return WseSpecs(
            name=f"{base.name} [{self.name}]",
            fabric_width=width,
            fabric_height=height,
            pe_memory_bytes=int(base.pe_memory_bytes * self.memory_scale),
            clock_hz=clock,
            simd_width_f32=simd,
            peak_flops=peak,
            memory_bandwidth_bytes=base.memory_bandwidth_bytes
            * self.fabric_scale**2 * self.clock_scale,
            fabric_bandwidth_bytes=base.fabric_bandwidth_bytes
            * self.fabric_scale**2 * self.clock_scale,
        )


#: Scenarios a follow-up study would table.
DEFAULT_SCENARIOS = (
    WhatIfScenario("baseline CS-2"),
    WhatIfScenario("2x clock", clock_scale=2.0),
    WhatIfScenario("4-wide SIMD", simd_scale=2.0),
    WhatIfScenario("2x wafer (linear)", fabric_scale=2.0),
    WhatIfScenario("2x PE memory", memory_scale=2.0),
    WhatIfScenario("all of the above", fabric_scale=2.0, clock_scale=2.0,
                   simd_scale=2.0, memory_scale=2.0),
)


def project(
    scenarios=DEFAULT_SCENARIOS,
    *,
    iterations: int = 225,
    nz: int = 922,
) -> list[dict]:
    """Project the paper's largest run onto each scenario.

    The per-PE work (nz cells) and iteration count are held fixed; the
    fabric extent of the run scales with the machine (weak scaling, as in
    Table III).  Returns row dictionaries ready for tabulation.
    """
    base_model = Cs2TimeModel.calibrated()
    rows: list[dict] = []
    baseline_time = None
    for scenario in scenarios:
        spec = scenario.apply()
        # The calibrated constants are per-cycle quantities; they carry
        # over. SIMD scaling enters the kernel cycle count directly.
        model = Cs2TimeModel(
            spec=spec,
            issue_factor=base_model.issue_factor,
            collective_base_cycles=base_model.collective_base_cycles,
            collective_hop_cycles=base_model.collective_hop_cycles,
            comm_wire_factor=base_model.comm_wire_factor,
        )
        depth_model = PeMemoryModel(spec=spec)
        max_depth = depth_model.max_depth()
        run_nz = min(nz, max_depth)
        t_alg2 = model.total_time_alg2(run_nz, iterations)
        t_alg1 = model.total_time_alg1(
            spec.fabric_width, spec.fabric_height, run_nz, iterations
        )
        max_cells = spec.fabric_width * spec.fabric_height * max_depth
        if baseline_time is None:
            baseline_time = t_alg1
        rows.append(
            {
                "scenario": scenario.name,
                "fabric": f"{spec.fabric_width}x{spec.fabric_height}",
                "nz_run": run_nz,
                "alg2_s": t_alg2,
                "alg1_s": t_alg1,
                "speedup": baseline_time / t_alg1,
                "max_depth": max_depth,
                "max_cells": max_cells,
                "peak_pflops": spec.peak_flops / 1e15,
            }
        )
    return rows
