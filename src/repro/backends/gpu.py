"""The CUDA-like GPU reference model as a registered backend."""

from __future__ import annotations

import dataclasses
from typing import Any, Iterator

import numpy as np

from repro.backends.base import SimulationResult, SolveResult, StepResult
from repro.gpu.specs import GpuSpecs
from repro.physics.darcy import SinglePhaseProblem
from repro.spec import SolveSpec, coerce_spec
from repro.util.errors import ConfigurationError


class GpuBackend:
    """Matrix-free CG driven through the device-model kernels.

    Consumes a :class:`~repro.spec.SolveSpec`: ``machine.spec`` is the
    :class:`GpuSpecs` target (default: the paper's A100),
    ``machine.block_shape`` the CUDA thread-block shape, plus tolerances,
    precision and ``fixed_iterations``.  Dataflow-only knobs
    (``simd_width``, ``variant``, ``reuse_buffers``, ``comm_only``) and
    the Jacobi preconditioner (not implemented in the device-model CG)
    are rejected.  ``elapsed_seconds`` is the calibrated timing model
    applied to the run's measured DRAM traffic, never Python wall clock.
    """

    name = "gpu"

    #: Transient specs run natively: the accumulation diagonal rides
    #: on-device and every apply fuses one extra elementwise FMA launch.
    supports_transient = True

    #: MachineSpec knobs this backend honours.
    SUPPORTED_MACHINE_FIELDS = {"spec", "block_shape", "fixed_iterations"}

    def _native_options(self, spec: SolveSpec) -> dict[str, Any]:
        spec.require_machine_support(self.name, self.SUPPORTED_MACHINE_FIELDS)
        machine = spec.machine
        if machine.spec is not None and not isinstance(machine.spec, GpuSpecs):
            raise ConfigurationError(
                f"backend {self.name!r} needs machine.spec to be a GpuSpecs, "
                f"got {type(machine.spec).__name__}"
            )
        if spec.preconditioner != "none":
            raise ConfigurationError(
                f"backend {self.name!r} does not support "
                f"preconditioner={spec.preconditioner!r}; the device-model CG "
                f"is unpreconditioned (Algorithm 1)"
            )
        options: dict[str, Any] = {
            "dtype": spec.precision.numpy_dtype(default=np.float32),
        }
        if machine.spec is not None:
            options["specs"] = machine.spec
        if machine.block_shape is not None:
            from repro.gpu.model import BlockShape

            options["block_shape"] = BlockShape(*machine.block_shape)
        if machine.fixed_iterations is not None:
            options["fixed_iterations"] = machine.fixed_iterations
        if spec.tolerance.tol_rtr is not None:
            options["tol_rtr"] = spec.tolerance.tol_rtr
        if spec.tolerance.rel_tol is not None:
            options["rel_tol"] = spec.tolerance.rel_tol
        if spec.tolerance.max_iters is not None:
            options["max_iters"] = spec.tolerance.max_iters
        return options

    def simulate(
        self,
        problem: SinglePhaseProblem,
        spec: SolveSpec | None = None,
        *,
        start_step: int = 0,
        state: np.ndarray | None = None,
    ) -> Iterator[StepResult]:
        """Stream the backward-Euler steps of ``spec.time`` on the
        device model: per step, the matrix-free CG with the accumulation
        FMA fused into every operator apply, timed by the calibrated
        traffic model."""
        from repro.gpu.cg import GpuCGSolver
        from repro.physics.transient import TransientStepper

        spec = coerce_spec(spec)
        tspec = spec.require_time()
        options = self._native_options(spec)
        times = tspec.times()
        stepper = TransientStepper(
            problem,
            dts=tspec.dts(),
            porosity=tspec.porosity,
            total_compressibility=tspec.total_compressibility,
            initial_condition=tspec.initial_condition,
            warm_start=tspec.warm_start,
            start_step=start_step,
            state=state,
            state_dtype=options["dtype"],
        )
        for idx in stepper.pending():
            acc, rhs, x0 = stepper.begin(idx)
            report = GpuCGSolver(
                problem,
                accumulation=acc,
                rhs=rhs,
                initial_pressure=x0,
                **options,
            ).solve()
            stepper.advance(report.pressure)
            yield StepResult(
                step=idx + 1,
                time=times[idx],
                dt=stepper.dts[idx],
                pressure=np.array(report.pressure, copy=True),
                iterations=report.iterations,
                converged=report.converged,
                residual_history=[float(v) for v in report.residual_history],
                elapsed_seconds=report.modeled_seconds,
                backend=self.name,
                telemetry=self._telemetry(report, spec),
            )

    def solve(self, problem: SinglePhaseProblem, spec: SolveSpec | None = None) -> SolveResult:
        from repro.gpu.cg import GpuCGSolver

        spec = coerce_spec(spec)
        if spec.time is not None:
            return SimulationResult.collect(
                self.simulate(problem, spec), spec
            ).as_solve_result()
        report = GpuCGSolver(problem, **self._native_options(spec)).solve()
        return SolveResult(
            pressure=np.asarray(report.pressure),
            iterations=report.iterations,
            converged=report.converged,
            residual_history=[float(v) for v in report.residual_history],
            elapsed_seconds=report.modeled_seconds,
            backend=self.name,
            telemetry=self._telemetry(report, spec),
        )

    @staticmethod
    def _telemetry(report, spec: SolveSpec) -> dict[str, Any]:
        # Stable JSON-able summaries, not live device objects (the same
        # convention as the fabric backend).
        return {
            "time_kind": "modeled_kernel",
            "preconditioner": spec.preconditioner,
            "counters": dataclasses.asdict(report.counters),
            "device_bytes": int(report.device_bytes),
        }
