"""Top-level entry points: ``repro.solve`` and ``repro.solve_many`` for
steady solves, ``repro.simulate``, ``repro.simulate_steps`` and
``repro.simulate_many`` for transient ones.

One signature for every machine and every workload::

    spec = repro.SolveSpec.from_kwargs(dtype="float64", rel_tol=1e-9)
    result = repro.solve("quarter_five_spot", backend="wse", spec=spec)
    results = repro.solve_many(scenarios.weak_scaling_family(),
                               backend="gpu", spec=spec, n_workers=4)

``solve`` accepts a built :class:`SinglePhaseProblem`, a bound
:class:`Scenario`, or a registered scenario name.  Configuration travels
as a typed :class:`~repro.spec.SolveSpec`, or as flat keyword options
(``repro.solve(..., dtype=..., rel_tol=...)``) validated through
:meth:`SolveSpec.from_kwargs` (typos raise ``ConfigurationError``) —
every front door resolves both forms through
:func:`repro.spec.resolve_spec`.

``solve_many`` routes through a :class:`~repro.session.Session` plan, so
one raising entry no longer loses the rest of the batch: every entry
finishes, then the first error (in input order) is raised.  For plans,
stores and process fan-out, use :class:`repro.Session` directly.

The transient doors take the same arguments, with the Δt schedule in
the spec's ``time`` section: ``simulate`` returns a whole
:class:`~repro.backends.SimulationResult`, ``simulate_steps`` yields
each step as it completes, and ``simulate_many`` runs a family.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.backends import (
    SimulationResult,
    SolveResult,
    StepResult,
    get_backend,
    get_transient_backend,
)
from repro.physics.darcy import SinglePhaseProblem
from repro.session import Session, resolve_target, simulation_steps
from repro.spec import resolve_spec
from repro.util.errors import ConfigurationError, SolveErrorGroup


def _resolve_problem(target: Any) -> SinglePhaseProblem:
    scenario, problem = resolve_target(target)
    return scenario.build() if problem is None else problem


def solve(
    target: Any,
    *,
    backend: str = "reference",
    spec: Any = None,
    **options: Any,
) -> SolveResult:
    """Solve a problem/scenario on a named backend.

    Parameters
    ----------
    target:
        A :class:`SinglePhaseProblem`, a bound :class:`Scenario`, or the
        name of a registered scenario (solved with its default
        parameters).
    backend:
        Registry name — ``"reference"``, ``"wse"``, ``"gpu"``, or anything
        registered via :func:`repro.backends.register_backend`.
    spec:
        A :class:`~repro.spec.SolveSpec` (or its ``to_dict()`` form).
    options:
        Flat keyword configuration (``tol_rtr``, ``rel_tol``,
        ``max_iters``, ``dtype``, machine knobs …) instead of ``spec``;
        validated through :meth:`SolveSpec.from_kwargs`.
    """
    solve_spec = resolve_spec(spec, options)
    return get_backend(backend).solve(_resolve_problem(target), solve_spec)


def solve_many(
    targets: Iterable[Any],
    *,
    backend: str = "reference",
    n_workers: int | None = None,
    batch: bool = False,
    spec: Any = None,
    **options: Any,
) -> list[SolveResult]:
    """Solve a batch of problems/scenarios, fanned out over threads.

    Results come back in input order.  ``n_workers`` defaults to
    ``min(len(targets), os.cpu_count())``; ``n_workers=1`` runs serially
    in-process (no pool), which keeps tracebacks simple.

    ``batch=True`` runs the lanes of :func:`repro.session.plan_lanes` —
    entries sharing backend, spec and grid shape on a backend that can
    batch them (the dataflow fabric with ``engine="fused"``, which an
    unset engine resolves to, or ``"vectorized"``) — as one batched
    program each instead of fanning out one Python solve per entry;
    ``machine.batch_size`` caps the lanes per program.  Entries that
    cannot batch (``engine="event"`` or ``"sharded"``), and lanes of
    one, fall back to serial execution.  Each result's
    ``telemetry["engine"]`` says which path produced it
    (``"batched_fused"`` vs ``"fused"``, ``"batched"`` vs
    ``"vectorized"``).

    Execution routes through an :class:`~repro.session.ExecutionPlan`, so
    errors are captured per entry: every entry runs to completion, then a
    single failure is raised as-is and multiple failures are raised
    together as a :class:`~repro.util.errors.SolveErrorGroup` carrying
    every per-entry error (in input order) — callers that triage failures
    (e.g. :func:`repro.util.errors.classify_failure`) see all of them,
    not just whichever entry failed first.
    """
    solve_spec = resolve_spec(spec, options)
    items: Sequence[Any] = list(targets)
    if not items:
        return []
    if n_workers is not None and n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    if batch:
        if n_workers is not None and n_workers != 1:
            # Batched execution is single-process by design (one batched
            # program per group); silently dropping a requested pool
            # width would be a lie.
            raise ConfigurationError(
                "batch=True and n_workers are mutually exclusive: batched "
                "execution runs entries as the lanes of one program "
                "instead of fanning out workers"
            )
        executor = "batched"
    elif n_workers == 1:
        executor = "serial"
    else:
        executor = "thread"
    plan = Session().plan(items, solve_spec, backend=backend)
    entry_results = plan.run(executor=executor, n_workers=n_workers)
    failures = [
        (er.entry.index, er.error)
        for er in entry_results
        if er.error is not None
    ]
    if len(failures) == 1:
        raise failures[0][1]
    if failures:
        raise SolveErrorGroup(
            f"{len(failures)} of {len(entry_results)} solve_many entries "
            f"failed (entries {', '.join(str(i) for i, _ in failures)})",
            [error for _, error in failures],
        )
    return [er.result for er in entry_results]  # type: ignore[misc]


# -- transient simulation ----------------------------------------------------


def simulate_steps(
    target: Any,
    *,
    backend: str = "reference",
    spec: Any = None,
    **options: Any,
) -> Iterator[StepResult]:
    """Stream a transient solve step by step (no persistence).

    The lazy sibling of :func:`simulate`: yields each
    :class:`~repro.backends.StepResult` as its backward-Euler step
    completes, so monitors can watch the pressure front move without
    holding the whole stack.  The problem is built, and a failing
    build raises, on the first ``next``.
    """
    return simulation_steps(target, resolve_spec(spec, options), backend)


def simulate(
    target: Any,
    *,
    backend: str = "reference",
    spec: Any = None,
    store: Any = None,
    resume: bool = True,
    on_step: Callable[[StepResult], None] | None = None,
    **options: Any,
) -> SimulationResult:
    """Run a transient (time-stepping) study on a named backend.

    One signature across every machine, mirroring :func:`solve`: pick a
    target, a backend, and a :class:`~repro.spec.SolveSpec` whose
    ``time`` section (a :class:`~repro.spec.TimeSpec`) carries the Δt
    schedule; get a :class:`~repro.backends.SimulationResult` (ordered
    :class:`~repro.backends.StepResult` stack + aggregates) back.  Flat
    keywords are accepted as sugar: ``repro.simulate("transient_injection",
    n_steps=12, dt=2.0, backend="wse")``.

    ``store`` (a :class:`~repro.session.ResultStore` or path) persists
    every completed step under the entry's content fingerprint; with
    ``resume=True`` (default) an interrupted schedule restarts at the
    first missing step, warm-starting from the stored pressure — re-runs
    of a completed simulation rehydrate entirely from disk.  ``on_step``
    is invoked as each step completes (stored steps included).
    """
    solve_spec = resolve_spec(spec, options)
    steps: list[StepResult] = []
    for step in simulation_steps(
        target, solve_spec, backend, store=store, resume=resume
    ):
        steps.append(step)
        if on_step is not None:
            on_step(step)
    return SimulationResult.collect(steps, solve_spec)


def simulate_many(
    targets: Iterable[Any],
    *,
    backend: str = "wse",
    spec: Any = None,
    batch: bool = False,
    **options: Any,
) -> list[SimulationResult]:
    """Simulate a family of targets; results in input order.

    ``batch=True`` time-steps every realization *together* — one
    batched program per step, one lane per realization, each lane
    stopping on its own convergence (``machine.batch_size`` caps lanes
    per program) — and requires a backend with ``simulate_batch`` (the
    dataflow fabric).
    ``batch=False`` simulates each target serially.
    """
    solve_spec = resolve_spec(spec, options)
    solve_spec.require_time()
    backend_obj = get_transient_backend(backend)
    items = list(targets)
    if not items:
        return []
    problems = [_resolve_problem(t) for t in items]
    if batch:
        if not hasattr(backend_obj, "simulate_batch"):
            raise ConfigurationError(
                f"backend {backend!r} cannot batch simulations (no "
                f"simulate_batch)"
            )
        return backend_obj.simulate_batch(problems, solve_spec)
    return [
        SimulationResult.collect(backend_obj.simulate(problem, solve_spec), solve_spec)
        for problem in problems
    ]
