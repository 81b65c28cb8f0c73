"""The event-driven fabric engine — the cycle-accurate oracle.

Composes the per-PE machinery (fabric + routers, halo exchange,
all-reduce, FV column kernel, distributed CG state machine) exactly as
the original one-engine solver did, and plays the
:class:`~repro.core.program.CgProgram` as discrete wavelet events.  Every
message, switch advance and DSD instruction is simulated individually,
so traces and counters are byte-stable against the pre-engine code — the
reference the vectorized engine is verified against.
"""

from __future__ import annotations

import numpy as np

from repro.core.allreduce import AllReduce, AllReduceColors
from repro.core.cg_dataflow import DataflowCG
from repro.core.exchange import ExchangeColors, HaloExchange
from repro.core.fv_kernel import FvColumnKernel
from repro.core.host import fabric_memory_report, gather_field, stage_problem
from repro.core.mapping import ProblemMapping
from repro.core.program import CgProgram, EngineReport
from repro.physics.darcy import SinglePhaseProblem
from repro.solvers.preconditioning import Preconditioner
from repro.wse.color import ColorAllocator
from repro.wse.fabric import Fabric
from repro.wse.specs import WseSpecs


class EventEngine:
    """Discrete-event execution of the dataflow CG program.

    Construction stages the problem onto a freshly built fabric (the
    memory arena enforces the 48 KiB budget here, like an oversized CSL
    program failing to load); :meth:`run` plays the program to
    completion and gathers the results.  ``fabric``, ``exchange``,
    ``allreduce`` and ``kernel`` are the current staging's machinery.
    ``precondition`` is the system's built ``M`` (default: the
    program's, built here); every staging reuses it.
    """

    name = "event"

    def __init__(
        self,
        problem: SinglePhaseProblem,
        program: CgProgram,
        *,
        spec: WseSpecs,
        dtype=np.float32,
        simd_width: int | None = None,
        initial_pressure: np.ndarray | None = None,
        accumulation: np.ndarray | None = None,
        rhs: np.ndarray | None = None,
        precondition: Preconditioner | None = None,
    ):
        from repro.util.errors import ConfigurationError

        if program.batch != 1:
            raise ConfigurationError(
                f"the event-driven engine plays one problem at a time; got "
                f"batch={program.batch} (batched execution needs the "
                f"vectorized engine)"
            )
        if program.accumulation != (accumulation is not None):
            raise ConfigurationError(
                "program.accumulation and the staged accumulation array "
                "must be supplied together"
            )
        self.problem = problem
        self.program = program
        self.spec = spec
        self.mapping = ProblemMapping(problem.grid, spec)
        if precondition is None:
            precondition = program.preconditioner_for(problem, accumulation, dtype)
        self._staging = dict(
            dtype=np.dtype(dtype), simd_width=simd_width,
            initial_pressure=initial_pressure, accumulation=accumulation,
            rhs=rhs, precondition=precondition,
        )
        self._stage()
        self.mg_hierarchy = precondition.hierarchy
        self._mg_packet = None
        if program.mg:
            from repro.mg import build_mg_packet
            from repro.wse.vector_engine import _ChargeModel

            # The V-cycle's fabric cost is charged from the same analytic
            # packet the vectorized engine merges (only machine
            # parameters are read, so counters/traffic agree exactly).
            simd = spec.simd_width_f32 if simd_width is None else int(simd_width)
            machine = _ChargeModel(
                width=self.fabric.width, height=self.fabric.height,
                depth=problem.grid.nz, simd_width=simd, spec=spec,
                suppress=False, kind_counts={}, kernel_plans={},
            )
            self._mg_packet = build_mg_packet(machine, self.mg_hierarchy)

    def _stage(self) -> None:
        """Build a fresh fabric and stage the problem onto it."""
        from repro.perf.memmodel import SCALAR_RESERVE_BYTES

        problem, program, kw = self.problem, self.program, self._staging
        self.fabric = Fabric(
            self.spec,
            width=problem.grid.nx,
            height=problem.grid.ny,
            dtype=kw["dtype"],
            simd_width=kw["simd_width"],
            # CG scalars, state-machine bookkeeping and stack live outside
            # the column buffers; reserve them so the capacity model's
            # max_depth is exactly the staging boundary (tested).
            reserved_pe_bytes=SCALAR_RESERVE_BYTES,
        )
        colors = ColorAllocator(31)
        self.exchange = HaloExchange(
            self.fabric, ExchangeColors.allocate(colors), problem.grid.nz
        )
        self.allreduce = AllReduce(self.fabric, AllReduceColors.allocate(colors))
        self.kernel = FvColumnKernel()
        self.kernel_configs = stage_problem(
            self.fabric,
            problem,
            self.mapping,
            variant=program.variant,
            reuse_buffers=program.reuse_buffers,
            initial_pressure=kw["initial_pressure"],
            precondition=kw["precondition"],
            accumulation=kw["accumulation"],
            rhs=kw["rhs"],
        )
        if program.comm_only:
            for pe in self.fabric.iter_pes():
                pe.suppress_fp = True
        self._staged = True

    def run(self, *, track_states_for: tuple[int, int] = (0, 0)) -> EngineReport:
        """Run the distributed CG to completion.  The fabric is spent by
        a run, so a repeated run re-stages the problem first and reports
        exactly what the first one did."""
        if not self._staged:
            self._stage()
        self._staged = False
        cg = DataflowCG(
            self.fabric,
            self.exchange,
            self.allreduce,
            self.kernel,
            self.kernel_configs,
            self.program,
            track_states_for=track_states_for,
            mg_hierarchy=self.mg_hierarchy,
        )
        cg.launch()
        trace = self.fabric.run()
        pressure = gather_field(self.fabric, self.mapping, "y")
        counters = self.fabric.merged_counters()
        preconditioner = None
        if self.program.mg:
            from repro.mg import merge_mg_packet

            merge_mg_packet(counters, trace, self._mg_packet, cg.mg_applies)
            preconditioner = self.mg_hierarchy.telemetry(cg.mg_applies)
        return EngineReport(
            pressure=pressure,
            iterations=cg.result.iterations,
            converged=cg.result.converged,
            residual_history=cg.result.residual_history,
            trace=trace,
            counters=counters,
            elapsed_seconds=self.fabric.elapsed_seconds(),
            memory=fabric_memory_report(self.fabric),
            state_visits=cg.result.state_visits,
            engine=self.name,
            preconditioner=preconditioner,
        )


__all__ = ["EventEngine"]
