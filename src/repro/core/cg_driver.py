"""One CG driver for every fabric engine except the event oracle.

The paper runs one SPMD CG program, identical on every PE.  The array
engines mirror that: :class:`CgDriver` is the only CG loop they have,
and an engine is a *layout* of the kernel it drives (chosen in
:mod:`repro.core.engines`):

* ``"vectorized"`` — one lane, one whole-grid tile;
* ``"fused"`` — one lane, cache-sized tiles;
* ``"batched"`` / ``"batched_fused"`` — N such lanes;
* ``"sharded"`` — one lane, each shard's tiles in shard order.

The driver owns what the layouts share: INIT and the loop, the
convergence checks (a converged lane gets no further passes and no
further charges), the two multigrid z-points (the V-cycle is global,
so it runs here, between a kernel's half passes), the residual
histories, and the machine charges.  Charges are never itemised per
iteration: the iteration-invariant packets
(:func:`~repro.wse.vector_engine.build_init_packet`,
:func:`~repro.wse.vector_engine.build_iteration_packets`) are merged
once per lane at the end, scaled by how often the lane's terminal path
ran each segment — so counters, traffic, makespan and state visits are
exactly what the event oracle records.  A lane's staging
(:class:`~repro.core.host._Staging`) is the one the oracle loads its
PEs from, so both read one copy of each system's data.  Every run
builds its own charge models and histories, so every report owns its
data.  A driver is built once per system (once per Δt in a
simulation) and re-staged between its solves (:meth:`CgDriver.restage`).

Lanes are independent problems, so they run one after another; the
per-tile dot partials a kernel returns are summed sequentially in a
fixed order, which makes every layout bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.host import _Staging, stage_vectors
from repro.core.mapping import ProblemMapping
from repro.core.program import CgProgram, EngineReport
from repro.fused.kernels import FusedNumpyBackend
from repro.physics.darcy import SinglePhaseProblem
from repro.solvers.state_machine import CGState
from repro.util.errors import ConfigurationError
from repro.wse.specs import WseSpecs
from repro.wse.vector_engine import (
    _ChargeModel,
    build_init_packet,
    build_iteration_packets,
)


def _no_extras(iterations: int) -> dict:
    return {}


@dataclass
class Lane:
    """One problem of a layout.

    ``staging`` supplies the charge model's Dirichlet histogram and
    kernel plans, the initial guess every run starts from, and the mg
    hierarchy; a re-stage rewrites its guess and ``b`` from ``problem``
    and sets ``tol_rtr``.  ``extras`` maps the lane's iteration count to
    the layout's extra :class:`EngineReport` fields (``fused``/``shard``
    telemetry)."""

    kernel: FusedNumpyBackend
    staging: _Staging
    tol_rtr: float
    memory: dict
    problem: SinglePhaseProblem
    extras: Callable[[int], dict] = _no_extras


def _reduce(partials: Iterable[float]) -> float:
    """Sequential float64 sum of the partials, in the order given."""
    total = 0.0
    for value in partials:
        total += value
    return float(total)


class CgDriver:
    """The CG program over a list of lanes sharing one grid shape.

    :meth:`run` returns the report of a single-lane layout (the
    :class:`~repro.core.engines.FabricEngine` face); :meth:`run_lanes`
    returns one report per lane, in lane order.
    """

    def __init__(
        self,
        name: str,
        lanes: Sequence[Lane],
        program: CgProgram,
        *,
        spec: WseSpecs,
        simd_width: int,
        mapping: ProblemMapping,
    ):
        self.name = name
        self.lanes = list(lanes)
        self.program = program
        self.spec = spec
        self.simd_width = simd_width
        self.mapping = mapping
        first = self.lanes[0].staging
        mg_packet = None
        if program.mg:
            from repro.mg import build_mg_packet

            # Every lane shares the grid shape and the program's mg
            # knobs, so one V-cycle packet serves them all.
            mg_packet = build_mg_packet(self._model(first), first.mg_hier)
        # One packet set per distinct Dirichlet histogram (everything
        # else in the charge sequence is shared across lanes).
        self._packets: dict[tuple, tuple[_ChargeModel, ...]] = {}
        for lane in self.lanes:
            sig = self._signature(lane.staging)
            if sig not in self._packets:
                model = self._model(lane.staging)
                self._packets[sig] = (
                    build_init_packet(model, program.jacobi, mg_packet),
                    *build_iteration_packets(model, program.jacobi, mg_packet),
                )

    @staticmethod
    def _signature(st: _Staging) -> tuple:
        return tuple(sorted((kind.name, n) for kind, n in st.kind_counts.items()))

    def _model(self, st: _Staging) -> _ChargeModel:
        nx, ny, nz = st.y.shape
        return _ChargeModel(
            width=nx, height=ny, depth=nz, simd_width=self.simd_width,
            spec=self.spec, suppress=self.program.comm_only,
            kind_counts=st.kind_counts, kernel_plans=st.kernel_plans,
        )

    def restage(self, guesses: Sequence, rhss: Sequence, tol_rtrs: Sequence) -> None:
        """Give every lane a new guess, right-hand side and ε for its next
        solve; ``program.tol_rtr`` takes the first lane's ε."""
        for lane, guess, rhs, tol in zip(self.lanes, guesses, rhss, tol_rtrs):
            stage_vectors(lane.staging, lane.problem, guess, rhs=rhs)
            lane.tol_rtr = float(tol)
        self.program = replace(self.program, tol_rtr=self.lanes[0].tol_rtr)

    def run(self) -> EngineReport:
        (report,) = self.run_lanes()
        return report

    def run_lanes(self) -> list[EngineReport]:
        return [self._solve(lane) for lane in self.lanes]

    def _solve(self, lane: Lane) -> EngineReport:
        """One lane's CG; control flow replicates the event oracle's
        state machine exactly."""
        program = self.program
        suppress, mg = program.comm_only, program.mg
        if mg:
            # Looked up per run, so wrappers installed on repro.mg apply.
            from repro.mg import mg_apply

            hier = lane.staging.mg_hier
        check = program.check_convergence
        history: list[float] = []
        kernel = lane.kernel
        # Every run starts from the staged guess.
        np.copyto(kernel.y, lane.staging.y)
        # INIT: r0 = b - A y0 ; p0 = r0 (or z0) ; rtr = <r0, r0|z0>
        if suppress:
            rtr = 0.0
        elif mg:
            kernel.init_residual_pass()
            mg_apply(hier, kernel.r, out=kernel.z)
            rtr = _reduce(kernel.mg_seed_pass())
        else:
            rtr = _reduce(kernel.init_pass())
        history.append(rtr)

        k = 0
        at_thres = False  # left the loop at THRES_CHECK, not ITER_CHECK
        while True:
            if check and rtr < lane.tol_rtr:
                terminal = CGState.CONVERGED
                break
            if k >= program.iteration_limit:
                terminal = CGState.MAXITER
                break
            pap = 0.0 if suppress else _reduce(kernel.body_pass())
            if pap == 0.0:
                if not suppress and check:
                    raise ConfigurationError(
                        f"{self.name} engine: p^T A p = 0 with live "
                        f"arithmetic"
                    )
                alpha = 0.0
            else:
                alpha = rtr / pap
            if suppress:
                rtr_new = 0.0
            elif mg:
                kernel.update_axpy_pass(alpha)
                mg_apply(hier, kernel.r, out=kernel.z)
                rtr_new = _reduce(kernel.mg_dot_pass())
            else:
                rtr_new = _reduce(kernel.update_pass(alpha))
            k += 1
            history.append(rtr_new)
            if check and rtr_new < lane.tol_rtr:
                terminal, at_thres = CGState.CONVERGED, True
                break
            if not suppress:
                kernel.direction_pass((rtr_new / rtr) if rtr > 0 else 0.0)
            rtr = rtr_new
        pressure = np.array(kernel.y, copy=True)
        return self._report(lane, k, terminal, at_thres, history, pressure)

    def _report(
        self,
        lane: Lane,
        k: int,
        terminal: CGState,
        at_thres: bool,
        history: list[float],
        pressure: np.ndarray,
    ) -> EngineReport:
        """Compose the lane's charge stream — init, then the check,
        body and direction segments its terminal path ran — in O(1)
        merges, and assemble its report."""
        init, check, body, direction = self._packets[
            self._signature(lane.staging)
        ]
        n_dir = k - 1 if at_thres else k
        m = self._model(lane.staging)
        m.merge_scaled(init, 1)
        m.merge_scaled(check, n_dir + 1)
        m.merge_scaled(body, k)
        m.merge_scaled(direction, n_dir)
        full = check.state_visits + body.state_visits + direction.state_visits
        m.state_visits = init.state_visits + full * n_dir + check.state_visits
        if at_thres:
            m.state_visits += body.state_visits
        m.visit(terminal)
        m.finalize()
        return EngineReport(
            pressure=pressure,
            iterations=k,
            converged=terminal is CGState.CONVERGED,
            residual_history=history,
            trace=m.trace,
            counters=m.counters,
            elapsed_seconds=m.makespan / self.spec.clock_hz,
            memory=dict(lane.memory),
            state_visits=m.state_visits,
            engine=self.name,
            preconditioner=(
                lane.staging.mg_hier.telemetry(k + 1) if self.program.mg else None
            ),
            **lane.extras(k),
        )


__all__ = ["CgDriver", "Lane"]
