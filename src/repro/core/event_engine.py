"""The event-driven fabric engine — the cycle-accurate oracle.

Composes the per-PE machinery (fabric + routers, halo exchange,
all-reduce, FV column kernel, distributed CG state machine) exactly as
the original one-engine solver did, and plays the
:class:`~repro.core.program.CgProgram` as discrete wavelet events.  Every
message, switch advance and DSD instruction is simulated individually,
so traces and counters are byte-stable against the pre-engine code — the
reference the vectorized engine is verified against.  Its PEs are
loaded from the same staging and PE column inventory as the array
layouts (:mod:`repro.core.host`), so both read one copy of each
system's data and report the same per-PE memory by construction.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.allreduce import AllReduce, AllReduceColors
from repro.core.cg_dataflow import DataflowCG
from repro.core.exchange import ExchangeColors, HaloExchange
from repro.core.fv_kernel import FvColumnKernel
from repro.core.host import (
    _stage_problem,
    fabric_memory_report,
    gather_field,
    stage_problem,
    stage_vectors,
)
from repro.core.mapping import ProblemMapping
from repro.core.program import CgProgram, EngineReport
from repro.physics.darcy import SinglePhaseProblem
from repro.solvers.preconditioning import Preconditioner
from repro.util.errors import ConfigurationError
from repro.wse.color import ColorAllocator
from repro.wse.fabric import Fabric
from repro.wse.memory import SCALAR_RESERVE_BYTES
from repro.wse.specs import WseSpecs


class EventEngine:
    """Discrete-event execution of the dataflow CG program.

    Construction stages the problem once (``staging``, the
    :func:`~repro.core.host._stage_problem` every array layout builds
    too) and loads it onto a freshly built fabric: each PE allocates its
    :func:`~repro.core.host.pe_columns` and copies in its column of the
    staged arrays (the memory arena enforces the 48 KiB budget here,
    like an oversized CSL program failing to load).  :meth:`run` plays
    the program to completion and gathers the results.  ``fabric``,
    ``exchange``, ``allreduce`` and ``kernel`` are the current fabric's
    machinery.  ``precondition`` is the system's built ``M`` (default:
    the program's, built at staging).  :meth:`restage` (the array
    driver's, for one lane) sets up the next run's guess, ``b`` and ε.
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
        if program.batch != 1:
            raise ConfigurationError(
                f"the event-driven engine plays one problem at a time; got "
                f"batch={program.batch} (batched execution needs the "
                f"vectorized engine)"
            )
        self.problem = problem
        self.program = program
        self.spec = spec
        self.simd_width = simd_width
        self.mapping = ProblemMapping(problem.grid, spec)
        self.staging = _stage_problem(
            problem, program, np.dtype(dtype), initial_pressure,
            accumulation=accumulation, rhs=rhs, precondition=precondition,
        )
        self._load()
        self.mg_hierarchy = self.staging.mg_hier
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

    def _load(self) -> None:
        """Build a fresh fabric and load the staging onto it."""
        grid = self.problem.grid
        # CG scalars, state-machine bookkeeping and stack live outside
        # the column buffers; reserve them so the capacity model's
        # max_depth is exactly the staging boundary (tested).
        self.fabric = Fabric(
            self.spec, width=grid.nx, height=grid.ny, dtype=self.staging.y.dtype,
            simd_width=self.simd_width, reserved_pe_bytes=SCALAR_RESERVE_BYTES,
        )
        colors = ColorAllocator(31)
        self.exchange = HaloExchange(
            self.fabric, ExchangeColors.allocate(colors), grid.nz
        )
        self.allreduce = AllReduce(self.fabric, AllReduceColors.allocate(colors))
        self.kernel = FvColumnKernel()
        self.kernel_configs = stage_problem(self.fabric, self.staging, self.program)
        if self.program.comm_only:
            for pe in self.fabric.iter_pes():
                pe.suppress_fp = True
        self._loaded = True

    def restage(self, guesses, rhss, tol_rtrs) -> None:
        """Stage a new guess and ``b``, and ε into ``program.tol_rtr``
        (the CG reads it); the next run loads them onto a fresh fabric."""
        (guess,), (rhs,), (tol,) = guesses, rhss, tol_rtrs
        stage_vectors(self.staging, self.problem, guess, rhs=rhs)
        self.program = replace(self.program, tol_rtr=float(tol))
        self._loaded = False

    def run(self, *, track_states_for: tuple[int, int] = (0, 0)) -> EngineReport:
        """Run the distributed CG to completion.  The fabric is spent by
        a run, so a repeated run loads the staging onto a fresh fabric
        first and reports exactly what the first one did."""
        if not self._loaded:
            self._load()
        self._loaded = False
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
