"""Public dataflow solver: :class:`WseMatrixFreeSolver`, :func:`solve_batch`
and the transient :func:`simulate_reports` / :func:`simulate_reports_batch`.

A :class:`~repro.spec.SolveSpec` is the solver's only configuration.
Every entry point hands one to a private builder, :func:`_build`: it
reads the one engine-agnostic :class:`~repro.core.program.CgProgram`
from the spec (:func:`_program`; a knob left ``None`` keeps the
program's own default) and the engine layout from ``spec.machine``
(:func:`_layout`), builds each system's preconditioner ``M`` once (see
:func:`~repro.solvers.preconditioning.build_preconditioner`; once per
Δt in a simulation), resolves each system's tolerance from it, and
stages the engine with it — :func:`~repro.core.engines.create_engine`
for one problem (the cycle-accurate ``"event"`` oracle or a layout of
the array CG driver), :func:`~repro.core.engines.create_batched_engine`
for a batched chunk.  The wse backend passes its resolved spec straight
in; the keyword doors build theirs with
:meth:`~repro.spec.SolveSpec.from_kwargs` (:func:`_keyword_spec`).
Engines report the solution together with the machine-level telemetry
(instruction counts, traffic, cycle makespan) the benchmarks consume.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Sequence

import numpy as np

from repro.core.engines import DEFAULT_ENGINE, create_batched_engine, create_engine
from repro.core.fv_kernel import KernelVariant
from repro.core.program import CgProgram, EngineReport
from repro.fv.operator import FlatStencil
from repro.physics.darcy import SinglePhaseProblem
from repro.solvers.cg import PAPER_TOLERANCE_RTR
from repro.solvers.preconditioning import Preconditioner
from repro.spec import MACHINE_FIELDS, SolveSpec, TimeSpec
from repro.util.errors import ConfigurationError
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


#: The MachineSpec knobs the fabric honours: all but the GPU's block.
_MACHINE_FIELDS = set(MACHINE_FIELDS) - {"block_shape"}


def _keyword_spec(engine: str, knobs: dict[str, Any], *, single: bool = False) -> SolveSpec:
    """A keyword door's spec, built by :meth:`SolveSpec.from_kwargs` (one
    resolver, one "did you mean").  A door takes no time section (the
    stepping doors take their schedule as keywords), and the
    single-solve door no ``batch_size``."""
    spec = SolveSpec.from_kwargs(engine=engine, **knobs)
    if spec.time is not None:
        raise ConfigurationError(
            "the fabric solver takes no time section (n_steps=...); time-step "
            "with simulate_reports(problem, dts=...)"
        )
    if single and spec.machine.batch_size is not None:
        raise ConfigurationError(
            "WseMatrixFreeSolver solves one problem, so it takes no "
            "batch_size; use solve_batch"
        )
    return spec


def _layout(spec: SolveSpec) -> dict[str, Any]:
    """The engine layout ``spec.machine`` sets: the full CS-2
    (:data:`WSE2`) and float32 when unset.  A GPU knob (``block_shape``,
    a :class:`~repro.gpu.specs.GpuSpecs`) is a :class:`ConfigurationError`."""
    spec.require_machine_support("wse", _MACHINE_FIELDS)
    machine = spec.machine
    if machine.spec is not None and not isinstance(machine.spec, WseSpecs):
        raise ConfigurationError(
            f"backend 'wse' needs machine.spec to be a WseSpecs, got "
            f"{type(machine.spec).__name__}"
        )
    return dict(
        spec=WSE2 if machine.spec is None else machine.spec,
        dtype=spec.precision.numpy_dtype(default=np.float32),
        simd_width=machine.simd_width,
        shard_shape=machine.shard_shape,
        fused_tile=machine.fused_tile,
    )


def _program(spec: SolveSpec, batch: int, accumulation: bool) -> CgProgram:
    """The one engine-agnostic program ``spec`` describes; a knob left
    ``None`` keeps :class:`CgProgram`'s default."""
    machine, tolerance = spec.machine, spec.tolerance
    unless_unset = dict(
        variant=None if machine.variant is None else KernelVariant(machine.variant),
        reuse_buffers=machine.reuse_buffers,
        tol_rtr=tolerance.tol_rtr,
        max_iters=tolerance.max_iters,
        mg_smoother_iters=spec.mg_smoother_iters,
    )
    return CgProgram(
        comm_only=machine.comm_only,
        fixed_iterations=machine.fixed_iterations,
        preconditioner=spec.preconditioner,
        mg_levels=spec.mg_levels,
        batch=batch,
        accumulation=accumulation,
        **{name: value for name, value in unless_unset.items() if value is not None},
    )


def _build(
    spec: SolveSpec,
    problems: Sequence[SinglePhaseProblem],
    guesses: Sequence,
    accs: Sequence,
    rhss: Sequence,
    *,
    batched: bool,
    preconditions: Sequence[Preconditioner] | None = None,
    tols: Sequence[float] | None = None,
):
    """Check each system's ``accumulation``/``rhs`` shapes, build the
    one program, each system's ``M`` and ε (unless ``preconditions`` and
    ``tols`` bring them), and stage ``spec``'s engine: ``create_engine``
    for one problem, ``create_batched_engine`` (a lane each) when
    ``batched``."""
    layout = _layout(spec)
    for problem, acc, rhs in zip(problems, accs, rhss):
        problem.check_system_shapes(acc, rhs)
    program = _program(spec, len(problems), any(acc is not None for acc in accs))
    if preconditions is None:
        preconditions = [
            program.preconditioner_for(problem, acc, layout["dtype"])
            for problem, acc in zip(problems, accs)
        ]
    if tols is None:
        tols = _tolerances(spec, program, problems, preconditions, guesses, accs, rhss)
    # Engine construction stages the problems (and enforces the 48 KiB
    # per-PE budget), exactly as loading an oversized CSL program would
    # fail before the run.
    engine = spec.machine.engine or DEFAULT_ENGINE
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


def _tolerances(spec, program, problems, ms, guesses, accs, rhss, stencils=None):
    """Each system's ε (:func:`resolve_tolerance`) from the program's
    absolute floor and the spec's ``rel_tol``, on its stencil if given."""
    return [
        resolve_tolerance(p, m, tol_rtr=program.tol_rtr,
                          rel_tol=spec.tolerance.rel_tol, initial_pressure=g,
                          accumulation=a, rhs=r, stencil=s)
        for p, m, g, a, r, s in zip(
            problems, ms, guesses, accs, rhss, stencils or [None] * len(problems)
        )
    ]


def _chunks(count: int, batch_size: int | None) -> list[slice]:
    """The lanes of each batched program: at most ``batch_size`` each."""
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
    one transient step.  Every other keyword is a
    :meth:`~repro.spec.SolveSpec.from_kwargs` option (an unknown one is
    a :class:`ConfigurationError` naming the closest); ``batch_size``
    and a time section belong to :func:`solve_batch` and
    :func:`simulate_reports`.
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
            _keyword_spec(engine, knobs, single=True), [problem],
            [initial_pressure], [accumulation], [rhs], batched=False,
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
    spec = _keyword_spec(engine, {"batch_size": batch_size, **knobs})
    return _solve_batch(spec, problems, initial_pressure, accumulation, rhs)


def _solve_batch(
    spec: SolveSpec, problems, initial_pressure=None, accumulation=None, rhs=None
) -> list[WseSolveReport]:
    """:func:`solve_batch` on ``spec``: chunks of ``machine.batch_size``."""
    from repro.core.host import normalize_guesses

    problems = list(problems)
    if not problems:
        return []
    count, shape = len(problems), problems[0].grid.shape
    guesses, accs, rhss = (
        normalize_guesses(field, count, shape)
        for field in (initial_pressure, accumulation, rhs)
    )
    return [
        report
        for chunk in _chunks(count, spec.machine.batch_size)
        for report in _build(
            spec, problems[chunk], guesses[chunk], accs[chunk], rhss[chunk],
            batched=True,
        ).run_lanes()
    ]


# -- transient time stepping --------------------------------------------------


def _simulate(
    spec: SolveSpec,
    problems: list[SinglePhaseProblem],
    states: Sequence | None,
    *,
    batched: bool,
    **schedule,
):
    """The one stepping loop: N :class:`TransientStepper`\\ s advanced
    together on ``schedule`` (the stepper's keywords, as
    :meth:`TimeSpec.stepper_options` maps them, plus ``start_step``),
    yielding each step's reports in input order.  One engine per Δt,
    re-staged per step: ``begin`` returns the same accumulation array
    while Δt holds, so a Δt builds each lane's ``M`` and one engine per
    chunk of at most ``machine.batch_size`` lanes; its other steps
    re-stage only ``y0``, ``b`` and ε, resolved on each lane's stencil
    of ``J``."""
    from repro.physics.transient import TransientStepper

    if spec.machine.comm_only:
        raise ConfigurationError(
            "comm_only suppresses arithmetic, so a time step has no state "
            "to advance; drop comm_only or the time schedule"
        )
    if states is None:
        states = [None] * len(problems)
    elif len(states) != len(problems):
        raise ConfigurationError(
            f"states has {len(states)} entries for {len(problems)} problems"
        )
    dtype = _layout(spec)["dtype"]
    steppers = [
        TransientStepper(problem, **schedule, state=state, state_dtype=dtype)
        for problem, state in zip(problems, states)
    ]
    program = _program(spec, len(problems), accumulation=True)
    stencils = [FlatStencil.from_coefficients(p.coefficients, p.dirichlet)
                for p in problems]
    chunks = _chunks(len(problems), spec.machine.batch_size)
    held: Sequence = [None] * len(problems)  # each lane's accumulation, as built
    for index in steppers[0].pending():
        accs, rhss, guesses = zip(*(stepper.begin(index) for stepper in steppers))
        if any(acc is not last for acc, last in zip(accs, held)):  # a new Δt
            held, engines = accs, {}
            ms = [program.preconditioner_for(p, a, dtype)
                  for p, a in zip(problems, accs)]
        tols = _tolerances(spec, program, problems, ms, guesses, accs, rhss, stencils)
        reports: list[EngineReport] = []
        for at, chunk in enumerate(chunks):
            if at in engines:
                engines[at].restage(guesses[chunk], rhss[chunk], tols[chunk])
            else:
                engines[at] = _build(
                    spec, problems[chunk], guesses[chunk], accs[chunk],
                    rhss[chunk], batched=batched, preconditions=ms[chunk],
                    tols=tols[chunk],
                )
            reports += _lane_reports(engines[at], batched)
        for stepper, report in zip(steppers, reports):
            stepper.advance(report.pressure)
        yield reports


def _keyword_steps(problems, states, engine, options, *, batched: bool):
    """A stepping keyword door's loop: its schedule keywords (the names
    :meth:`TimeSpec.stepper_options` maps, and ``start_step``) drive
    :func:`_simulate`, and every other keyword is a spec option."""
    names = {*TimeSpec().stepper_options(), "start_step"}
    schedule = {key: value for key, value in options.items() if key in names}
    knobs = {key: value for key, value in options.items() if key not in names}
    return _simulate(
        _keyword_spec(engine, knobs), problems, states, batched=batched,
        **schedule,
    )


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
    ``total_compressibility``, ``initial_condition``, ``warm_start``)
    plus :class:`WseMatrixFreeSolver`'s spec options and
    ``batch_size``.  ``warm_start`` starts each step's CG from the
    previous step's pressure; otherwise every step restarts from the
    initial condition (step 1 is identical either way).
    ``start_step``/``state`` resume an interrupted schedule: skip the
    first ``start_step`` entries of ``dts`` and carry ``state`` as the
    last completed step's pressure.
    """
    for reports in _keyword_steps([problem], [state], engine, options, batched=False):
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
    yield from _keyword_steps(problems, states, engine, options, batched=True)
