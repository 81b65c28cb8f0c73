"""Public dataflow solver: :class:`WseMatrixFreeSolver`.

Builds the engine-agnostic :class:`~repro.core.program.CgProgram` from
the paper's design knobs, hands it to a pluggable fabric engine
(``engine="event"`` — the cycle-accurate discrete-event oracle — or a
layout of the array CG driver for paper-scale fabrics; see
:mod:`repro.core.engines`), and reports both the solution and the
machine-level telemetry (instruction counts, traffic, cycle makespan)
the benchmarks consume.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.engines import DEFAULT_ENGINE, create_batched_engine, create_engine
from repro.core.fv_kernel import KernelVariant
from repro.core.program import CgProgram, EngineReport
from repro.physics.darcy import SinglePhaseProblem
from repro.util.errors import ConfigurationError
from repro.wse.specs import WSE2, WseSpecs


def resolve_preconditioner(
    preconditioner: str | None, jacobi: bool
) -> str:
    """Collapse the legacy ``jacobi`` flag and the ``preconditioner``
    name into one canonical name (``"none"``/``"jacobi"``/``"mg"``)."""
    if preconditioner is None:
        return "jacobi" if jacobi else "none"
    if preconditioner == "jacobi" or not jacobi:
        return preconditioner
    raise ConfigurationError(
        f"jacobi=True conflicts with preconditioner={preconditioner!r}"
    )


def resolve_tolerance(
    problem: SinglePhaseProblem,
    *,
    tol_rtr: float = 2e-10,
    rel_tol: float | None = None,
    jacobi: bool = False,
    preconditioner: str | None = None,
    mg_levels: int | None = None,
    mg_smoother_iters: int | None = None,
    initial_pressure: np.ndarray | None = None,
    accumulation: np.ndarray | None = None,
    rhs: np.ndarray | None = None,
) -> float:
    """The absolute ε on the global ``r^T r`` the device applies.

    ``rel_tol`` is scaled from the initial residual host-side (the
    device still applies a single absolute ε, as the paper does).  For
    transient steps, pass the step's ``accumulation`` diagonal and
    ``rhs`` so the scale comes from the residual of the actual system
    ``(J + A) p = rhs`` the device is about to solve.

    Preconditioned programs check ε against ``r^T z = r^T M^{-1} r``,
    so the scale is the *preconditioned* initial residual norm (the
    inverse diagonal for Jacobi, one V-cycle for mg).
    """
    tol = float(tol_rtr)
    if rel_tol is None:
        return tol
    precond = resolve_preconditioner(preconditioner, jacobi)
    p0 = (
        problem.initial_pressure(dtype=np.float64)
        if initial_pressure is None
        else np.asarray(initial_pressure, dtype=np.float64)
    )
    if accumulation is None:
        r0 = problem.residual(p0)
    else:
        from repro.fv.operator import apply_jx

        if rhs is None:
            raise ConfigurationError(
                "transient tolerance resolution needs the step rhs"
            )
        jx = apply_jx(problem.coefficients, problem.dirichlet, p0)
        r0 = np.asarray(rhs, dtype=np.float64) - (
            jx + accumulation.astype(np.float64) * p0
        )
    if precond == "jacobi":
        # The device checks ε against r^T z = r^T M^{-1} r.
        diag = problem.coefficients.diagonal.astype(np.float64).copy()
        if accumulation is not None:
            diag += accumulation.astype(np.float64)
        diag[problem.dirichlet.mask] = 1.0
        scale = float(np.vdot(r0, r0 / diag).real)
    elif precond == "mg":
        from repro.mg import hierarchy_for_problem, mg_apply

        hier = hierarchy_for_problem(
            problem,
            accumulation=accumulation,
            levels=mg_levels,
            smoother_iters=mg_smoother_iters,
        )
        scale = float(np.vdot(r0, mg_apply(hier, r0)).real)
    else:
        scale = float(np.vdot(r0, r0).real)
    return max(tol, rel_tol**2 * scale)

#: Everything a dataflow solve produces: the solution field gathered from
#: the ``y`` buffers, the CG outcome (global ``r^T r`` totals as every PE
#: saw them), the fabric trace/counters, the simulated device time, the
#: per-PE memory statistics, the tracked PE's state sequence, and the
#: engine that produced it.  Shared verbatim with the engines.
WseSolveReport = EngineReport


class WseMatrixFreeSolver:
    """Matrix-free FV pressure solver on the simulated dataflow machine.

    Use :meth:`for_problem` to build one from a
    :class:`~repro.physics.darcy.SinglePhaseProblem`; then :meth:`solve`.

    Parameters mirror the paper's design knobs:

    * ``variant`` — precomputed ``c = Υλ`` vs. in-kernel mobility fusion;
    * ``reuse_buffers`` — §III-E.1 memory-saving on/off;
    * ``simd_width`` — §III-E.3 vectorization (2 = DSD SIMD, 1 = scalar);
    * ``comm_only`` — §V-C's Table IV methodology (suppress FP, fixed
      iteration count);
    * ``dtype`` — fp32 (paper) or fp64 (tight numerical cross-checks);
    * ``engine`` — ``"event"`` (default: per-PE discrete-event oracle)
      or a layout of the array CG driver, whose analytic cycle/counter
      model reproduces the oracle's instruction counts on fabrics it
      cannot reach: ``"vectorized"`` (one whole-grid tile), ``"fused"``
      (cache-sized tiles; accepts ``fused_tile``) or ``"sharded"`` (the
      grid split over a worker pool; accepts ``shard_shape``,
      ``shard_workers`` and ``fused_tile``).  A repeated :meth:`solve`
      re-stages the problem and returns an equal report.
    """

    def __init__(
        self,
        problem: SinglePhaseProblem,
        *,
        spec: WseSpecs = WSE2,
        dtype=np.float32,
        simd_width: int | None = None,
        variant: KernelVariant | str = KernelVariant.PRECOMPUTED,
        reuse_buffers: bool = True,
        tol_rtr: float = 2e-10,
        rel_tol: float | None = None,
        max_iters: int = 10_000,
        comm_only: bool = False,
        fixed_iterations: int | None = None,
        initial_pressure: np.ndarray | None = None,
        jacobi: bool = False,
        preconditioner: str | None = None,
        mg_levels: int | None = None,
        mg_smoother_iters: int | None = None,
        engine: str = DEFAULT_ENGINE,
        accumulation: np.ndarray | None = None,
        rhs: np.ndarray | None = None,
        shard_shape=None,
        shard_workers: str | None = None,
        fused_tile=None,
    ):
        if isinstance(variant, str):
            variant = KernelVariant(variant)
        self.problem = problem
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self.variant = variant
        self.reuse_buffers = reuse_buffers
        self.tol_rtr = float(tol_rtr)
        self.rel_tol = rel_tol
        self.max_iters = int(max_iters)
        self.comm_only = comm_only
        self.fixed_iterations = fixed_iterations
        self.initial_pressure = initial_pressure
        self.simd_width = simd_width
        self.preconditioner = resolve_preconditioner(preconditioner, jacobi)
        self.jacobi = self.preconditioner == "jacobi"
        self.mg_levels = mg_levels
        self.mg_smoother_iters = mg_smoother_iters
        self.engine_name = engine
        self.accumulation = accumulation
        self.rhs = rhs
        self.shard_shape = shard_shape
        self.shard_workers = shard_workers
        self.fused_tile = fused_tile

        self.program = CgProgram(
            variant=variant,
            reuse_buffers=reuse_buffers,
            jacobi=self.jacobi,
            preconditioner=self.preconditioner,
            mg_levels=mg_levels,
            mg_smoother_iters=(
                2 if mg_smoother_iters is None else int(mg_smoother_iters)
            ),
            comm_only=comm_only,
            tol_rtr=self._resolved_tolerance(),
            max_iters=self.max_iters,
            fixed_iterations=fixed_iterations,
            accumulation=accumulation is not None,
        )
        # Engine construction stages the problem (and enforces the 48 KiB
        # per-PE budget), exactly as loading an oversized CSL program
        # would fail before the run.
        self.engine = create_engine(
            engine,
            problem,
            self.program,
            spec=spec,
            dtype=self.dtype,
            simd_width=simd_width,
            initial_pressure=initial_pressure,
            accumulation=accumulation,
            rhs=rhs,
            shard_shape=shard_shape,
            shard_workers=shard_workers,
            fused_tile=fused_tile,
        )
        self.mapping = self.engine.mapping

    def __getattr__(self, name: str):
        # Event-engine internals stay reachable for fabric inspection and
        # the protocol-level tests, read through so they follow a
        # re-staged fabric (the array layouts have no per-PE machinery).
        if name in ("fabric", "exchange", "allreduce", "kernel"):
            return getattr(self.__dict__.get("engine"), name, None)
        raise AttributeError(name)

    @classmethod
    def for_problem(cls, problem: SinglePhaseProblem, **kwargs) -> "WseMatrixFreeSolver":
        """Build a solver sized exactly to the problem's lateral grid."""
        return cls(problem, **kwargs)

    def _resolved_tolerance(self) -> float:
        """See :func:`resolve_tolerance` (shared with the batched path)."""
        return resolve_tolerance(
            self.problem,
            tol_rtr=self.tol_rtr,
            rel_tol=self.rel_tol,
            preconditioner=self.preconditioner,
            mg_levels=self.mg_levels,
            mg_smoother_iters=self.mg_smoother_iters,
            initial_pressure=self.initial_pressure,
            accumulation=self.accumulation,
            rhs=self.rhs,
        )

    def solve(self) -> WseSolveReport:
        """Run the dataflow CG to completion and gather the results."""
        return self.engine.run()


def solve_batch(
    problems: Sequence[SinglePhaseProblem],
    *,
    spec: WseSpecs = WSE2,
    dtype=np.float32,
    simd_width: int | None = None,
    variant: KernelVariant | str = KernelVariant.PRECOMPUTED,
    reuse_buffers: bool = True,
    tol_rtr: float = 2e-10,
    rel_tol: float | None = None,
    max_iters: int = 10_000,
    comm_only: bool = False,
    fixed_iterations: int | None = None,
    initial_pressure=None,
    jacobi: bool = False,
    preconditioner: str | None = None,
    mg_levels: int | None = None,
    mg_smoother_iters: int | None = None,
    engine: str = "vectorized",
    batch_size: int | None = None,
    accumulation=None,
    rhs=None,
    fused_tile=None,
) -> list[WseSolveReport]:
    """Solve many independent same-shape problems as the lanes of one
    batched layout (``engine="vectorized"`` or ``"fused"``).

    All problems must share one grid shape (heterogeneity fields and
    boundary conditions are free per problem).  ``rel_tol`` is resolved
    per problem, exactly as :class:`WseMatrixFreeSolver` would resolve
    it for a serial solve of that problem.  ``batch_size`` caps the
    lanes per program (``None`` puts everything in one); reports come
    back in input order, one per problem, and each is exactly the report
    a serial solve of that problem alone on ``engine`` would produce.
    """
    from repro.wse.vector_engine import normalize_guesses

    problems = list(problems)
    if not problems:
        return []
    if isinstance(variant, str):
        variant = KernelVariant(variant)
    if batch_size is not None and batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    precond = resolve_preconditioner(preconditioner, jacobi)
    guesses = normalize_guesses(
        initial_pressure, len(problems), problems[0].grid.shape
    )
    accs = normalize_guesses(accumulation, len(problems), problems[0].grid.shape)
    rhss = normalize_guesses(rhs, len(problems), problems[0].grid.shape)
    size = batch_size if batch_size is not None else len(problems)
    reports: list[WseSolveReport] = []
    for start in range(0, len(problems), size):
        chunk = problems[start : start + size]
        chunk_guesses = guesses[start : start + size]
        chunk_accs = accs[start : start + size]
        chunk_rhss = rhss[start : start + size]
        tols = [
            resolve_tolerance(
                problem,
                tol_rtr=tol_rtr,
                rel_tol=rel_tol,
                preconditioner=precond,
                mg_levels=mg_levels,
                mg_smoother_iters=mg_smoother_iters,
                initial_pressure=guess,
                accumulation=acc,
                rhs=lane_rhs,
            )
            for problem, guess, acc, lane_rhs in zip(
                chunk, chunk_guesses, chunk_accs, chunk_rhss
            )
        ]
        program = CgProgram(
            variant=variant,
            reuse_buffers=reuse_buffers,
            jacobi=precond == "jacobi",
            preconditioner=precond,
            mg_levels=mg_levels,
            mg_smoother_iters=(
                2 if mg_smoother_iters is None else int(mg_smoother_iters)
            ),
            comm_only=comm_only,
            tol_rtr=float(tol_rtr),
            max_iters=int(max_iters),
            fixed_iterations=fixed_iterations,
            batch=len(chunk),
            accumulation=accumulation is not None,
        )
        batched = create_batched_engine(
            engine,
            chunk,
            program,
            spec=spec,
            dtype=np.dtype(dtype),
            simd_width=simd_width,
            tol_rtrs=tols,
            initial_pressure=chunk_guesses if any(
                g is not None for g in chunk_guesses
            ) else None,
            accumulation=chunk_accs if any(
                a is not None for a in chunk_accs
            ) else None,
            rhs=chunk_rhss if any(r is not None for r in chunk_rhss) else None,
            fused_tile=fused_tile,
        )
        reports.extend(batched.run_lanes())
    return reports


# -- transient time stepping --------------------------------------------------


def simulate_reports(
    problem: SinglePhaseProblem,
    *,
    dts: Sequence[float],
    porosity: float = 0.2,
    total_compressibility: float = 1e-4,
    initial_condition="problem",
    warm_start: bool = True,
    start_step: int = 0,
    state: np.ndarray | None = None,
    spec: WseSpecs = WSE2,
    dtype=np.float32,
    simd_width: int | None = None,
    variant: KernelVariant | str = KernelVariant.PRECOMPUTED,
    reuse_buffers: bool = True,
    tol_rtr: float = 2e-10,
    rel_tol: float | None = None,
    max_iters: int = 10_000,
    fixed_iterations: int | None = None,
    jacobi: bool = False,
    preconditioner: str | None = None,
    mg_levels: int | None = None,
    mg_smoother_iters: int | None = None,
    engine: str = DEFAULT_ENGINE,
    shard_shape=None,
    shard_workers: str | None = None,
    fused_tile=None,
):
    """Backward-Euler time stepping on the fabric: one engine solve per
    step, yielded as :class:`EngineReport`\\ s.

    Every step solves ``(J + A) p^{n+1} = A p^n + b_D`` with ``A = diag(φ
    c_t V / Δt)`` staged into the engine's transient kernel — the same
    program on either engine, so per-step counters and traffic stay
    parity-exact between ``"event"`` and ``"vectorized"`` (fuzz-pinned).
    ``warm_start`` starts each step's CG from the previous step's
    pressure; otherwise every step restarts from the initial condition
    (step 1 is identical either way).  ``start_step``/``state`` resume an
    interrupted schedule: skip the first ``start_step`` entries of
    ``dts`` and carry ``state`` as the last completed step's pressure.
    """
    from repro.physics.transient import TransientStepper

    if isinstance(variant, str):
        variant = KernelVariant(variant)
    precond = resolve_preconditioner(preconditioner, jacobi)
    np_dtype = np.dtype(dtype)
    stepper = TransientStepper(
        problem,
        dts=dts,
        porosity=porosity,
        total_compressibility=total_compressibility,
        initial_condition=initial_condition,
        warm_start=warm_start,
        start_step=start_step,
        state=state,
        state_dtype=np_dtype,
    )
    for index in stepper.pending():
        acc, rhs, x0 = stepper.begin(index)
        tol = resolve_tolerance(
            problem,
            tol_rtr=tol_rtr,
            rel_tol=rel_tol,
            preconditioner=precond,
            mg_levels=mg_levels,
            mg_smoother_iters=mg_smoother_iters,
            initial_pressure=x0,
            accumulation=acc,
            rhs=rhs,
        )
        program = CgProgram(
            variant=variant,
            reuse_buffers=reuse_buffers,
            jacobi=precond == "jacobi",
            preconditioner=precond,
            mg_levels=mg_levels,
            mg_smoother_iters=(
                2 if mg_smoother_iters is None else int(mg_smoother_iters)
            ),
            tol_rtr=tol,
            max_iters=int(max_iters),
            fixed_iterations=fixed_iterations,
            accumulation=True,
        )
        step_engine = create_engine(
            engine,
            problem,
            program,
            spec=spec,
            dtype=np_dtype,
            simd_width=simd_width,
            initial_pressure=x0,
            accumulation=acc,
            rhs=rhs,
            shard_shape=shard_shape,
            shard_workers=shard_workers,
            fused_tile=fused_tile,
        )
        report = step_engine.run()
        stepper.advance(report.pressure)
        yield report


def simulate_reports_batch(
    problems: Sequence[SinglePhaseProblem],
    *,
    dts: Sequence[float],
    porosity: float = 0.2,
    total_compressibility: float = 1e-4,
    initial_condition="problem",
    warm_start: bool = True,
    start_step: int = 0,
    states: Sequence[np.ndarray] | None = None,
    spec: WseSpecs = WSE2,
    dtype=np.float32,
    simd_width: int | None = None,
    variant: KernelVariant | str = KernelVariant.PRECOMPUTED,
    reuse_buffers: bool = True,
    tol_rtr: float = 2e-10,
    rel_tol: float | None = None,
    max_iters: int = 10_000,
    fixed_iterations: int | None = None,
    jacobi: bool = False,
    preconditioner: str | None = None,
    mg_levels: int | None = None,
    mg_smoother_iters: int | None = None,
    engine: str = "vectorized",
    batch_size: int | None = None,
    fused_tile=None,
):
    """Time-step ``N`` same-shape realizations together: one batched
    program per step (one lane per realization), yielded as a list of
    per-lane :class:`EngineReport`\\ s in input order.

    Each lane carries its own accumulation diagonal, right-hand side,
    warm-start state and resolved tolerance, and stops on its own
    convergence, so every lane's per-step report is exactly what a
    serial solve of that lane on ``engine`` would have produced
    (fuzz-pinned).
    """
    from repro.physics.transient import TransientStepper

    if isinstance(variant, str):
        variant = KernelVariant(variant)
    problems = list(problems)
    if not problems:
        return
    if states is not None and len(states) != len(problems):
        raise ConfigurationError(
            f"states has {len(states)} entries for {len(problems)} problems"
        )
    np_dtype = np.dtype(dtype)
    steppers = [
        TransientStepper(
            pr,
            dts=dts,
            porosity=porosity,
            total_compressibility=total_compressibility,
            initial_condition=initial_condition,
            warm_start=warm_start,
            start_step=start_step,
            state=None if states is None else states[lane],
            state_dtype=np_dtype,
        )
        for lane, pr in enumerate(problems)
    ]
    for index in steppers[0].pending():
        pieces = [stepper.begin(index) for stepper in steppers]
        reports = solve_batch(
            problems,
            spec=spec,
            dtype=np_dtype,
            simd_width=simd_width,
            variant=variant,
            reuse_buffers=reuse_buffers,
            tol_rtr=tol_rtr,
            rel_tol=rel_tol,
            max_iters=max_iters,
            fixed_iterations=fixed_iterations,
            initial_pressure=[x0 for _, _, x0 in pieces],
            jacobi=jacobi,
            preconditioner=preconditioner,
            mg_levels=mg_levels,
            mg_smoother_iters=mg_smoother_iters,
            engine=engine,
            batch_size=batch_size,
            accumulation=[acc for acc, _, _ in pieces],
            rhs=[rhs for _, rhs, _ in pieces],
            fused_tile=fused_tile,
        )
        for stepper, report in zip(steppers, reports):
            stepper.advance(report.pressure)
        yield reports
