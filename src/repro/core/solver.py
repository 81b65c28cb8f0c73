"""Public dataflow solver: :class:`WseMatrixFreeSolver`, :func:`solve_batch`
and the transient :func:`simulate_reports` / :func:`simulate_reports_batch`.

Every entry point forwards to one private builder, :func:`_build`: it
builds the one engine-agnostic :class:`~repro.core.program.CgProgram`
from the paper's design knobs (:class:`_Knobs`, the knob list and its
defaults), builds each system's preconditioner ``M`` once (see
:func:`~repro.solvers.preconditioning.build_preconditioner`; once per
Δt in a simulation), resolves each system's tolerance from it, and
stages the engine with it — :func:`~repro.core.engines.create_engine`
for one problem (the cycle-accurate ``"event"`` oracle or a layout of
the array CG driver), :func:`~repro.core.engines.create_batched_engine`
for a batched chunk.
Engines report the solution together with the machine-level telemetry
(instruction counts, traffic, cycle makespan) the benchmarks consume.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Sequence

import numpy as np

from repro.core.engines import DEFAULT_ENGINE, create_batched_engine, create_engine
from repro.core.fv_kernel import KernelVariant
from repro.core.program import CgProgram, EngineReport
from repro.fv.operator import FlatStencil
from repro.physics.darcy import SinglePhaseProblem
from repro.solvers.cg import DEFAULT_MAX_ITERS, PAPER_TOLERANCE_RTR
from repro.solvers.preconditioning import Preconditioner
from repro.util.errors import ConfigurationError, unknown_name_error
from repro.wse.specs import WSE2, WseSpecs


def resolve_tolerance(
    problem: SinglePhaseProblem,
    precondition: Preconditioner,
    *,
    tol_rtr: float = PAPER_TOLERANCE_RTR,
    rel_tol: float | None = None,
    initial_pressure: np.ndarray | None = None,
    accumulation: np.ndarray | None = None,
    rhs: np.ndarray | None = None,
    stencil: FlatStencil | None = None,
) -> float:
    """The absolute ε on the global ``r^T z`` the device applies.

    ``rel_tol`` is scaled host-side from the initial residual of the
    system the device is about to solve (the device still applies a
    single absolute ε, as the paper does): ``r0 = b − (J + A) p0``, where
    ``b`` is ``rhs`` (zero when steady) with ``p^D`` on the Dirichlet
    rows, ``A`` the optional transient ``accumulation`` diagonal, and
    ``p0`` the guess staging starts from (``initial_pressure`` with the
    Dirichlet values applied) — both from
    :meth:`~repro.physics.darcy.SinglePhaseProblem.system_vectors`, as
    staging builds them.  A transient step needs its ``rhs``.

    The programs check ε against ``r^T z = r^T M^{-1} r``, so the scale
    is ``r0^T M^{-1} r0`` with the system's built ``precondition``
    (``z = r`` without one).  ``stencil`` is the problem's ``J``
    (:meth:`FlatStencil.from_coefficients`), bound once by a caller that
    resolves many of its systems; without one each call builds it.
    """
    tol = float(tol_rtr)
    if rel_tol is None:
        return tol
    if accumulation is not None and rhs is None:
        raise ConfigurationError("transient tolerance resolution needs the step rhs")
    p0, b = problem.system_vectors(
        np.float64, initial_pressure=initial_pressure, accumulation=accumulation,
        rhs=rhs,
    )
    if stencil is None:
        stencil = FlatStencil.from_coefficients(problem.coefficients, problem.dirichlet)
    jx = stencil.apply(p0)
    if accumulation is not None:
        jx += accumulation.astype(np.float64) * p0
    r0 = b - jx
    scale = float(np.vdot(r0, precondition(r0)).real)
    return max(tol, rel_tol**2 * scale)

#: Everything a dataflow solve produces: the solution field gathered from
#: the ``y`` buffers, the CG outcome (global ``r^T r`` totals as every PE
#: saw them), the fabric trace/counters, the simulated device time, the
#: per-PE memory statistics, the tracked PE's state sequence, and the
#: engine that produced it.  Shared verbatim with the engines.
WseSolveReport = EngineReport


@dataclass(frozen=True)
class _Knobs:
    """The fabric knobs every entry point accepts, with their defaults.

    * ``spec`` — the :class:`WseSpecs` fabric (default the full CS-2);
    * ``dtype`` — fp32 (paper) or fp64 (tight numerical cross-checks);
    * ``simd_width`` — §III-E.3 vectorization (2 = DSD SIMD, 1 = scalar);
    * ``variant`` — precomputed ``c = Υλ`` vs. in-kernel mobility fusion;
    * ``reuse_buffers`` — §III-E.1 memory-saving on/off;
    * ``tol_rtr``/``rel_tol``/``max_iters`` — the stopping rule (see
      :func:`resolve_tolerance`);
    * ``comm_only``/``fixed_iterations`` — §V-C's Table IV methodology
      (suppress FP, fixed iteration count);
    * ``preconditioner`` — ``"none"``, ``"jacobi"`` or ``"mg"``, with
      ``mg_levels``/``mg_smoother_iters`` tuning the hierarchy;
    * ``shard_shape`` — the ``"sharded"`` layout's decomposition;
    * ``fused_tile`` — the cache tile of the ``"fused"`` and
      ``"sharded"`` layouts.
    """

    spec: WseSpecs = WSE2
    dtype: Any = np.float32
    simd_width: int | None = None
    variant: KernelVariant | str = KernelVariant.PRECOMPUTED
    reuse_buffers: bool = True
    tol_rtr: float = PAPER_TOLERANCE_RTR
    rel_tol: float | None = None
    max_iters: int = DEFAULT_MAX_ITERS
    comm_only: bool = False
    fixed_iterations: int | None = None
    preconditioner: str = "none"
    mg_levels: int | None = None
    mg_smoother_iters: int | None = None
    shard_shape: Any = None
    fused_tile: Any = None

    @classmethod
    def parse(cls, options: dict) -> "_Knobs":
        """The knobs ``options`` name; an unknown name raises
        :class:`ConfigurationError` naming the closest knob."""
        valid = [f.name for f in fields(cls)]
        for key in options:
            if key not in valid:
                raise unknown_name_error("fabric knob", key, valid, "knobs")
        return cls(**options)

    def program(self, batch: int, accumulation: bool) -> CgProgram:
        """The one engine-agnostic program these knobs describe."""
        return CgProgram(
            variant=KernelVariant(self.variant),
            reuse_buffers=self.reuse_buffers,
            preconditioner=self.preconditioner,
            mg_levels=self.mg_levels,
            mg_smoother_iters=(
                2 if self.mg_smoother_iters is None else int(self.mg_smoother_iters)
            ),
            comm_only=self.comm_only,
            tol_rtr=float(self.tol_rtr),
            max_iters=int(self.max_iters),
            fixed_iterations=self.fixed_iterations,
            batch=batch,
            accumulation=accumulation,
        )


def _build(
    engine: str,
    problems: Sequence[SinglePhaseProblem],
    guesses: Sequence,
    accs: Sequence,
    rhss: Sequence,
    knobs: _Knobs,
    *,
    batched: bool,
    preconditions: Sequence[Preconditioner] | None = None,
    tols: Sequence[float] | None = None,
):
    """Check each system's ``accumulation``/``rhs`` shapes, build the
    one program, each system's ``M`` and ε (unless ``preconditions`` and
    ``tols`` bring them), and stage the engine: ``create_engine`` for one
    problem, ``create_batched_engine`` (a lane each) when ``batched``."""
    for problem, acc, rhs in zip(problems, accs, rhss):
        problem.check_system_shapes(acc, rhs)
    program = knobs.program(len(problems), any(acc is not None for acc in accs))
    if preconditions is None:
        preconditions = [
            program.preconditioner_for(problem, acc, knobs.dtype)
            for problem, acc in zip(problems, accs)
        ]
    if tols is None:
        tols = _tolerances(problems, preconditions, guesses, accs, rhss, knobs)
    # Engine construction stages the problems (and enforces the 48 KiB
    # per-PE budget), exactly as loading an oversized CSL program would
    # fail before the run.
    layout = dict(
        spec=knobs.spec,
        dtype=np.dtype(knobs.dtype),
        simd_width=knobs.simd_width,
        shard_shape=knobs.shard_shape,
        fused_tile=knobs.fused_tile,
    )
    if not batched:
        return create_engine(
            engine, problems[0], replace(program, tol_rtr=tols[0]),
            initial_pressure=guesses[0], accumulation=accs[0], rhs=rhss[0],
            precondition=preconditions[0], **layout,
        )
    return create_batched_engine(
        engine, problems, program, tol_rtrs=tols, initial_pressure=guesses,
        accumulation=accs, rhs=rhss, preconditions=preconditions, **layout,
    )


def _tolerances(problems, ms, guesses, accs, rhss, knobs, stencils=None):
    """Each system's ε (:func:`resolve_tolerance`), on its stencil if given."""
    return [
        resolve_tolerance(p, m, tol_rtr=knobs.tol_rtr, rel_tol=knobs.rel_tol,
                          initial_pressure=g, accumulation=a, rhs=r, stencil=s)
        for p, m, g, a, r, s in zip(
            problems, ms, guesses, accs, rhss, stencils or [None] * len(problems)
        )
    ]


def _chunks(count: int, batch_size: int | None) -> list[slice]:
    """The lanes of each batched program: at most ``batch_size`` each."""
    if batch_size is not None and batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    size = batch_size or count
    return [slice(start, start + size) for start in range(0, count, size)]


def _lane_reports(engine, batched: bool) -> list[EngineReport]:
    """A built engine's reports: a batched chunk's lanes, or a serial
    engine's ``run`` (so wrappers on ``create_engine``'s engines see it)."""
    return engine.run_lanes() if batched else [engine.run()]


class WseMatrixFreeSolver:
    """Matrix-free FV pressure solver on the simulated dataflow machine.

    Build one from a :class:`~repro.physics.darcy.SinglePhaseProblem`;
    then :meth:`solve`.

    ``engine`` is a layout of the array CG driver, whose analytic
    cycle/counter model reproduces the oracle's instruction counts:
    ``"fused"`` (cache-sized tiles; the default,
    :data:`~repro.core.engines.DEFAULT_ENGINE`), ``"vectorized"`` (one
    whole-grid tile) or ``"sharded"`` (a fabric decomposed into shards,
    its tiles swept shard by shard); or ``"event"``, the per-PE discrete-event oracle that the
    paper's cycle-accurate tables and fabric inspection
    (``solver.fabric``) need.  ``initial_pressure`` seeds the CG
    (Dirichlet values applied on top); ``accumulation``/``rhs`` stage
    one transient step.  Every other keyword is a fabric knob (see
    :class:`_Knobs`; an unknown one is a :class:`ConfigurationError`).
    A repeated :meth:`solve` starts again from the staging built once
    and returns an equal report.
    """

    def __init__(
        self,
        problem: SinglePhaseProblem,
        *,
        engine: str = DEFAULT_ENGINE,
        initial_pressure: np.ndarray | None = None,
        accumulation: np.ndarray | None = None,
        rhs: np.ndarray | None = None,
        **knobs,
    ):
        self.problem = problem
        self.engine = _build(
            engine, [problem], [initial_pressure], [accumulation], [rhs],
            _Knobs.parse(knobs), batched=False,
        )
        self.program = self.engine.program
        self.mapping = self.engine.mapping

    def __getattr__(self, name: str):
        # Event-engine internals stay reachable for fabric inspection and
        # the protocol-level tests, read through so they follow a
        # rebuilt fabric (the array layouts have no per-PE machinery).
        if name in ("fabric", "exchange", "allreduce", "kernel"):
            return getattr(self.__dict__.get("engine"), name, None)
        raise AttributeError(name)

    def solve(self) -> WseSolveReport:
        """Run the dataflow CG to completion and gather the results."""
        return self.engine.run()


def solve_batch(
    problems: Sequence[SinglePhaseProblem],
    *,
    engine: str = DEFAULT_ENGINE,
    batch_size: int | None = None,
    initial_pressure=None,
    accumulation=None,
    rhs=None,
    **knobs,
) -> list[WseSolveReport]:
    """Solve many independent same-shape problems as the lanes of one
    batched layout (``engine="fused"``, the default, or
    ``"vectorized"``).

    All problems must share one grid shape (heterogeneity fields and
    boundary conditions are free per problem).  ``rel_tol`` is resolved
    per problem, exactly as :class:`WseMatrixFreeSolver` would resolve
    it for a serial solve of that problem.  ``batch_size`` caps the
    lanes per program (``None`` puts everything in one);
    ``initial_pressure``/``accumulation``/``rhs`` take one shared field
    or one per problem.  Reports come back in input order, one per
    problem, and each is exactly the report a serial solve of that
    problem alone on ``engine`` would produce.
    """
    from repro.core.host import normalize_guesses

    problems = list(problems)
    if not problems:
        return []
    count, shape = len(problems), problems[0].grid.shape
    guesses, accs, rhss = (
        normalize_guesses(field, count, shape)
        for field in (initial_pressure, accumulation, rhs)
    )
    knobs = _Knobs.parse(knobs)
    return [
        report
        for chunk in _chunks(count, batch_size)
        for report in _build(
            engine, problems[chunk], guesses[chunk], accs[chunk], rhss[chunk],
            knobs, batched=True,
        ).run_lanes()
    ]


# -- transient time stepping --------------------------------------------------


def _simulate(
    problems: list[SinglePhaseProblem],
    states: Sequence,
    *,
    engine: str,
    batched: bool,
    dts: Sequence[float],
    porosity: float = 0.2,
    total_compressibility: float = 1e-4,
    initial_condition="problem",
    warm_start: bool = True,
    start_step: int = 0,
    batch_size: int | None = None,
    **knobs,
):
    """The one stepping loop: N :class:`TransientStepper`\\ s advanced
    together, yielding each step's reports in input order.  One engine
    per Δt, re-staged per step: ``begin`` returns the same accumulation
    array while Δt holds, so a Δt builds each lane's ``M`` and one engine
    per chunk of at most ``batch_size`` lanes; its other steps re-stage
    only ``y0``, ``b`` and ε, resolved on each lane's stencil of ``J``."""
    from repro.physics.transient import TransientStepper

    knobs = _Knobs.parse(knobs)
    steppers = [
        TransientStepper(
            problem,
            dts=dts,
            porosity=porosity,
            total_compressibility=total_compressibility,
            initial_condition=initial_condition,
            warm_start=warm_start,
            start_step=start_step,
            state=state,
            state_dtype=np.dtype(knobs.dtype),
        )
        for problem, state in zip(problems, states)
    ]
    program = knobs.program(len(problems), accumulation=True)
    stencils = [FlatStencil.from_coefficients(p.coefficients, p.dirichlet)
                for p in problems]
    chunks = _chunks(len(problems), batch_size)
    held: Sequence = [None] * len(problems)  # each lane's accumulation, as built
    for index in steppers[0].pending():
        accs, rhss, guesses = zip(*(stepper.begin(index) for stepper in steppers))
        if any(acc is not last for acc, last in zip(accs, held)):  # a new Δt
            held, engines = accs, {}
            ms = [program.preconditioner_for(p, a, knobs.dtype)
                  for p, a in zip(problems, accs)]
        tols = _tolerances(problems, ms, guesses, accs, rhss, knobs, stencils)
        reports: list[EngineReport] = []
        for at, chunk in enumerate(chunks):
            if at in engines:
                engines[at].restage(guesses[chunk], rhss[chunk], tols[chunk])
            else:
                engines[at] = _build(
                    engine, problems[chunk], guesses[chunk], accs[chunk],
                    rhss[chunk], knobs, batched=batched, preconditions=ms[chunk],
                    tols=tols[chunk],
                )
            reports += _lane_reports(engines[at], batched)
        for stepper, report in zip(steppers, reports):
            stepper.advance(report.pressure)
        yield reports


def simulate_reports(
    problem: SinglePhaseProblem,
    *,
    state: np.ndarray | None = None,
    engine: str = DEFAULT_ENGINE,
    **options,
):
    """Backward-Euler time stepping on the fabric: one engine solve per
    step, yielded as :class:`EngineReport`\\ s.

    Every step solves ``(J + A) p^{n+1} = A p^n + b_D`` with ``A = diag(φ
    c_t V / Δt)`` staged into the engine's transient kernel — the same
    program on every engine, so per-step counters and traffic stay
    parity-exact between ``"event"`` and the array layouts (fuzz-pinned).
    ``options`` are the schedule (``dts``, ``porosity``,
    ``total_compressibility``, ``initial_condition``) plus the fabric
    knobs.  ``warm_start`` starts each step's CG from the previous
    step's pressure; otherwise every step restarts from the initial
    condition (step 1 is identical either way).  ``start_step``/``state``
    resume an interrupted schedule: skip the first ``start_step`` entries
    of ``dts`` and carry ``state`` as the last completed step's pressure.
    """
    for reports in _simulate(
        [problem], [state], engine=engine, batched=False, **options
    ):
        yield reports[0]


def simulate_reports_batch(
    problems: Sequence[SinglePhaseProblem],
    *,
    states: Sequence[np.ndarray] | None = None,
    engine: str = DEFAULT_ENGINE,
    **options,
):
    """Time-step ``N`` same-shape realizations together: one batched
    program per step (one lane per realization, at most ``batch_size``
    per program), yielded as a list of per-lane :class:`EngineReport`\\ s
    in input order.

    Each lane carries its own accumulation diagonal, right-hand side,
    warm-start state and resolved tolerance, and stops on its own
    convergence, so every lane's per-step report is exactly what a
    serial solve of that lane on ``engine`` would have produced
    (fuzz-pinned).  ``options`` are :func:`simulate_reports`'.
    """
    problems = list(problems)
    if not problems:
        return
    if states is not None and len(states) != len(problems):
        raise ConfigurationError(
            f"states has {len(states)} entries for {len(problems)} problems"
        )
    yield from _simulate(
        problems,
        [None] * len(problems) if states is None else states,
        engine=engine,
        batched=True,
        **options,
    )
