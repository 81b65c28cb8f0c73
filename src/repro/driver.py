"""Top-level solve entry points: ``repro.solve`` and ``repro.solve_many``.

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
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.backends import (
    SimulationResult,
    SolveResult,
    StepResult,
    get_backend,
)
from repro.physics.darcy import SinglePhaseProblem
from repro.scenarios.base import Scenario, scenario as _bind_scenario
from repro.spec import SolveSpec, resolve_spec
from repro.util.errors import ConfigurationError, SolveErrorGroup


def _resolve_problem(target: Any) -> SinglePhaseProblem:
    if isinstance(target, SinglePhaseProblem):
        return target
    if isinstance(target, Scenario):
        return target.build()
    if isinstance(target, str):
        return _bind_scenario(target).build()
    raise ConfigurationError(
        f"cannot solve {target!r}: expected a SinglePhaseProblem, a "
        f"Scenario, or a registered scenario name"
    )


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
    batch them (the dataflow fabric with ``engine="vectorized"`` or
    ``"fused"``; an unset engine is the event oracle) — as one batched
    program each instead of fanning out one Python solve per entry;
    ``machine.batch_size`` caps the lanes per program.  Entries that
    cannot batch, and lanes of one, fall back to serial execution.  Each
    result's ``telemetry["engine"]`` says which path produced it
    (``"batched"`` vs ``"vectorized"``/``"event"``).

    Execution routes through an :class:`~repro.session.ExecutionPlan`, so
    errors are captured per entry: every entry runs to completion, then a
    single failure is raised as-is and multiple failures are raised
    together as a :class:`~repro.util.errors.SolveErrorGroup` carrying
    every per-entry error (in input order) — callers that triage failures
    (e.g. the serving tier's retry taxonomy) see all of them, not just
    whichever entry failed first.
    """
    from repro.session import Session

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


def _simulation_spec(spec: Any, options: dict[str, Any]) -> SolveSpec:
    """:func:`resolve_spec`, and the result must carry a time schedule."""
    solve_spec = resolve_spec(spec, options)
    if solve_spec.time is None:
        raise ConfigurationError(
            "simulate needs a time schedule: set spec.time to a TimeSpec "
            "(or pass n_steps=/dt=/... keywords)"
        )
    return solve_spec


def _transient_backend(backend: str):
    backend_obj = get_backend(backend)
    if not getattr(backend_obj, "supports_transient", False):
        raise ConfigurationError(
            f"backend {backend!r} does not support transient simulation "
            f"(no supports_transient declaration)"
        )
    return backend_obj


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
    holding the whole stack.
    """
    solve_spec = _simulation_spec(spec, options)
    backend_obj = _transient_backend(backend)
    return backend_obj.simulate(_resolve_problem(target), solve_spec)


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
    from repro.session import ResultStore, entry_fingerprint

    solve_spec = _simulation_spec(spec, options)
    backend_obj = _transient_backend(backend)
    problem = _resolve_problem(target)
    tspec = solve_spec.time
    assert tspec is not None

    steps: list[StepResult] = []
    fingerprint = None
    if store is not None:
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        fingerprint = entry_fingerprint(target, solve_spec, backend)
        if resume:
            completed = min(
                store.simulation_steps_completed(fingerprint), tspec.n_steps
            )
            if completed:
                steps = store.load_simulation_steps(fingerprint)[:completed]
                for step in steps:
                    if on_step is not None:
                        on_step(step)
        else:
            store.clear_simulation(fingerprint)

    start_step = len(steps)
    if start_step < tspec.n_steps:
        state = steps[-1].pressure if steps else None
        for step in backend_obj.simulate(
            problem, solve_spec, start_step=start_step, state=state
        ):
            if store is not None:
                store.save_simulation_step(
                    fingerprint,
                    step,
                    meta={
                        "backend": backend,
                        "spec": solve_spec.to_dict(),
                        "n_steps": tspec.n_steps,
                    },
                )
            steps.append(step)
            if on_step is not None:
                on_step(step)

    telemetry = {
        "preconditioner": solve_spec.preconditioner,
        "warm_start": tspec.warm_start,
    }
    if steps:
        telemetry["time_kind"] = steps[-1].telemetry.get("time_kind")
        engine = steps[-1].telemetry.get("engine")
        if engine is not None:
            telemetry["engine"] = engine
    return SimulationResult(steps=steps, backend=backend_obj.name, telemetry=telemetry)


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
    solve_spec = _simulation_spec(spec, options)
    backend_obj = _transient_backend(backend)
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
        SimulationResult.collect(
            backend_obj.simulate(problem, solve_spec),
            backend=backend_obj.name,
            telemetry={
                "preconditioner": solve_spec.preconditioner,
                "warm_start": solve_spec.time.warm_start,
            },
        )
        for problem in problems
    ]
