"""The vectorized NumPy host reference as a registered backend."""

from __future__ import annotations

import time
from typing import Any, Iterator

import numpy as np

from repro.backends.base import SimulationResult, SolveResult, StepResult
from repro.physics.darcy import SinglePhaseProblem
from repro.physics.simulation import newton_solve
from repro.solvers.cg import PAPER_TOLERANCE_RTR, conjugate_gradient
from repro.solvers.preconditioning import Preconditioner, build_preconditioner
from repro.spec import SolveSpec, coerce_spec


class ReferenceBackend:
    """Float64 NumPy Newton/CG solve — the numerical ground truth.

    Consumes a :class:`~repro.spec.SolveSpec`: tolerances map onto
    :func:`repro.physics.simulation.newton_solve` (``rel_tol`` is the
    cross-backend spelling of the relative tolerance, forwarded as
    ``newton_rtol``), ``precision.dtype`` defaults to float64, and
    ``preconditioner`` names the ``M`` the host CG applies — built once
    per solve, or per Δt of a simulation, by
    :func:`~repro.solvers.preconditioning.build_preconditioner`, which
    also supplies the telemetry entry.  Machine knobs (fabric specs,
    SIMD widths, block shapes) are rejected — there is no machine here.
    """

    name = "reference"

    #: Transient specs route through the host-side
    #: :class:`~repro.physics.transient.TransientOperator` (the same
    #: backward-Euler system the fabric engines solve).
    supports_transient = True

    #: MachineSpec knobs this backend honours: none — it is the host.
    SUPPORTED_MACHINE_FIELDS: set[str] = set()

    def _native_options(self, spec: SolveSpec) -> dict[str, Any]:
        spec.require_machine_support(self.name, self.SUPPORTED_MACHINE_FIELDS)
        options: dict[str, Any] = {
            "tol_rtr": (
                spec.tolerance.tol_rtr
                if spec.tolerance.tol_rtr is not None
                else PAPER_TOLERANCE_RTR
            ),
            "dtype": spec.precision.numpy_dtype(default=np.float64),
        }
        if spec.tolerance.rel_tol is not None:
            options["newton_rtol"] = spec.tolerance.rel_tol
        if spec.tolerance.max_iters is not None:
            options["max_iters"] = spec.tolerance.max_iters
        return options

    @staticmethod
    def _preconditioner(
        problem: SinglePhaseProblem, spec: SolveSpec, accumulation=None
    ) -> Preconditioner:
        return build_preconditioner(
            problem,
            spec.preconditioner,
            accumulation=accumulation,
            mg_levels=spec.mg_levels,
            mg_smoother_iters=spec.mg_smoother_iters,
        )

    def simulate(
        self,
        problem: SinglePhaseProblem,
        spec: SolveSpec | None = None,
        *,
        start_step: int = 0,
        state: np.ndarray | None = None,
    ) -> Iterator[StepResult]:
        """Stream the backward-Euler steps of ``spec.time``.

        Each step solves ``(J + A) p^{n+1} = A p^n + b_D`` with the host
        CG on the existing :class:`~repro.physics.transient.TransientOperator`,
        preconditioned by the step's ``M`` (built with the step's
        accumulation diagonal); warm starts carry the previous step's
        pressure into the next CG.  The operator and ``M`` are rebuilt
        when ``stepper.begin`` returns a new accumulation (once per Δt).
        """
        from repro.physics.transient import TransientOperator, TransientStepper

        spec = coerce_spec(spec)
        tspec = spec.require_time()
        # newton_solve's keywords; each step's CG takes the same tolerances.
        options = self._native_options(spec)
        dtype, tol_rtr = options["dtype"], options["tol_rtr"]
        rel_tol = options.get("newton_rtol")
        max_iters = options.get("max_iters", 10_000)
        times = tspec.times()
        # The reference works in one precision throughout (float64 by
        # default), so accumulation/rhs arithmetic stays in that dtype.
        stepper = TransientStepper(
            problem,
            **tspec.stepper_options(),
            start_step=start_step,
            state=state,
            state_dtype=dtype,
            acc_dtype=dtype,
            rhs_dtype=dtype,
        )
        built = None  # the accumulation the operator and M are for
        for idx in stepper.pending():
            start = time.perf_counter()
            acc, rhs, x0 = stepper.begin(idx)
            if acc is not built:
                built = acc
                operator = TransientOperator(problem, acc)
                # M folds the backward-Euler diagonal in, preconditioning
                # the actual (J + A) system being solved.
                precondition = self._preconditioner(problem, spec, acc)
            tol = float(tol_rtr)
            if rel_tol is not None:
                r0 = rhs - operator(x0)
                tol = max(tol, rel_tol**2 * float(np.vdot(r0, r0).real))
            result = conjugate_gradient(
                operator, rhs, x0=x0, tol_rtr=tol, max_iters=max_iters,
                precondition=None if precondition.name == "none" else precondition,
            )
            p = result.x
            problem.dirichlet.apply_to(p)
            stepper.advance(p)
            yield StepResult(
                step=idx + 1,
                time=times[idx],
                dt=stepper.dts[idx],
                pressure=p.copy(),
                iterations=result.iterations,
                converged=result.converged,
                residual_history=[float(v) for v in result.residual_history],
                elapsed_seconds=time.perf_counter() - start,
                backend=self.name,
                telemetry={
                    "time_kind": "wall_clock",
                    "preconditioner": precondition.telemetry(
                        result.iterations + 1
                    ),
                },
            )

    def solve(self, problem: SinglePhaseProblem, spec: SolveSpec | None = None) -> SolveResult:
        spec = coerce_spec(spec)
        if spec.time is not None:
            return SimulationResult.collect(
                self.simulate(problem, spec), spec
            ).as_solve_result()
        options = self._native_options(spec)
        precondition = self._preconditioner(problem, spec)
        start = time.perf_counter()
        report = newton_solve(
            problem,
            precondition=None if precondition.name == "none" else precondition,
            **options,
        )
        elapsed = time.perf_counter() - start
        history: list[float] = []
        for linear in report.linear_results:
            history.extend(float(v) for v in linear.residual_history)
        # One V-cycle seeds each inner PCG solve plus one per iteration.
        cycles = sum(lr.iterations + 1 for lr in report.linear_results)
        return SolveResult(
            pressure=np.asarray(report.pressure),
            iterations=report.total_linear_iterations,
            # newton_solve raises ConvergenceError on failure, so reaching
            # here means the Newton criterion was met.
            converged=True,
            residual_history=history,
            elapsed_seconds=elapsed,
            backend=self.name,
            telemetry={
                "time_kind": "wall_clock",
                "preconditioner": precondition.telemetry(cycles),
                "newton_iterations": report.newton_iterations,
                "newton_residual_norms": list(report.residual_norms),
            },
        )
