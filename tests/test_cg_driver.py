"""The CG driver's own contract, pinned on every layout.

Every non-event engine is a layout of one :class:`CgDriver`, so the
driver owns what used to be re-implemented per engine: a repeated
``solve()`` re-stages and reports exactly what the first did (each run
builds its own charge models and histories), and a lane that starts at
its converged solution stops at ``ITER_CHECK`` after INIT while its
siblings keep iterating.  A simulation builds one engine per run of
equal Δt and re-stages it (``restage``, shared with the event oracle)
on the other steps; every step reports exactly what a freshly built
solver of that step's system does.
"""

import numpy as np
import pytest

from helpers import converged_guess, make_problem
from repro.core import solver
from repro.core.engines import create_batched_engine
from repro.core.program import CgProgram
from repro.core.solver import (
    WseMatrixFreeSolver,
    simulate_reports,
    simulate_reports_batch,
    solve_batch,
)
from repro.physics.transient import TransientStepper
from repro.solvers.state_machine import CGState
from repro.wse.specs import WSE2

SPEC = WSE2.with_fabric(8, 8)
F64 = dict(spec=SPEC, dtype=np.float64)

LAYOUTS = [
    ("event", {}),
    ("vectorized", {}),
    ("fused", {}),
    ("fused", {"fused_tile": (2, 3)}),
    ("sharded", {"shard_shape": (2, 2)}),
    ("sharded", {"shard_shape": (2, 1)}),
]


def _same_report(a, b):
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    np.testing.assert_array_equal(a.pressure, b.pressure)
    assert a.residual_history == b.residual_history
    assert a.state_visits == b.state_visits
    assert a.counters.to_dict() == b.counters.to_dict()
    assert a.trace.to_dict() == b.trace.to_dict()
    assert a.memory == b.memory
    assert a.shard == b.shard and a.fused == b.fused


@pytest.mark.parametrize(
    "engine, knobs", LAYOUTS, ids=[f"{e}-{k}" for e, k in LAYOUTS]
)
def test_repeated_solve_returns_an_equal_report(engine, knobs):
    """A second ``solve()`` on one solver re-stages the problem: it
    iterates again from the initial guess, and neither report folds in
    or rewrites the other's telemetry."""
    solver = WseMatrixFreeSolver(
        make_problem(4, 4, 3, seed=1), engine=engine, rel_tol=1e-8,
        **F64, **knobs,
    )
    first = solver.solve()
    flops = first.counters.flops
    history = list(first.residual_history)
    second = solver.solve()
    assert first.iterations > 0
    _same_report(first, second)
    # The first report owns its data: the second run left it alone.
    assert first.counters.flops == flops
    assert first.residual_history == history
    assert first.counters is not second.counters


@pytest.mark.parametrize("engine", ["vectorized", "fused"])
def test_repeated_batched_run_returns_equal_reports(engine):
    problems = [make_problem(4, 4, 3, seed=s) for s in (1, 2)]
    program = CgProgram(tol_rtr=1e-12, batch=2)
    driver = create_batched_engine(
        engine, problems, program, spec=SPEC, dtype=np.float64
    )
    for first, second in zip(driver.run_lanes(), driver.run_lanes()):
        assert first.iterations > 0
        _same_report(first, second)


@pytest.mark.parametrize("engine", ["vectorized", "fused"])
def test_lane_starting_converged_stops_after_init(engine):
    """A lane seeded with its converged solution runs zero iterations
    and stops at ITER_CHECK beside an iterating sibling; both lanes are
    exactly their serial solves, and the converged lane matches the
    event oracle's counters and state sequence."""
    done, busy = make_problem(4, 4, 3, seed=1), make_problem(4, 4, 3, seed=2)
    guess = converged_guess(done)
    lanes = solve_batch(
        [done, busy], engine=engine, initial_pressure=[guess, None], **F64
    )
    serial = [
        WseMatrixFreeSolver(done, engine=engine, initial_pressure=guess, **F64).solve(),
        WseMatrixFreeSolver(busy, engine=engine, **F64).solve(),
    ]
    for lane, alone in zip(lanes, serial):
        np.testing.assert_array_equal(lane.pressure, alone.pressure)
        assert lane.residual_history == alone.residual_history
        assert lane.counters.to_dict() == alone.counters.to_dict()
        assert lane.state_visits == alone.state_visits

    stopped = lanes[0]
    assert stopped.iterations == 0 and stopped.converged
    assert len(stopped.residual_history) == 1
    assert stopped.state_visits == [
        CGState.INIT, CGState.EXCHANGE, CGState.COMPUTE_JX,
        CGState.DOT_RR, CGState.ITER_CHECK, CGState.CONVERGED,
    ]
    assert lanes[1].iterations > 0

    oracle = WseMatrixFreeSolver(
        done, engine="event", initial_pressure=guess, **F64
    ).solve()
    assert oracle.iterations == 0
    assert oracle.state_visits == stopped.state_visits
    assert oracle.counters.flops == stopped.counters.flops
    assert dict(oracle.counters.op_counts) == dict(stopped.counters.op_counts)
    assert oracle.memory == stopped.memory
    np.testing.assert_allclose(stopped.pressure, oracle.pressure, atol=1e-12)


# -- one engine per Δt, re-staged per step ------------------------------------

#: A Δt repeated, then changed: steps 1 and 4 run on a freshly built
#: engine, steps 2, 3 and 5 on a re-staged one.  The large
#: compressibility keeps every step iterating.
STEPPED = dict(dts=[0.5, 0.5, 0.5, 2.0, 2.0], total_compressibility=100.0)
STEPPED_CASES = [(engine, knobs, None) for engine, knobs in LAYOUTS] + [
    (engine, {}, size) for engine in ("vectorized", "fused") for size in (1, 2)
]


def _stepped_id(case):
    engine, knobs, size = case
    return f"{engine}-{knobs}" if size is None else f"batched-{engine}-size{size}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("preconditioner", ["none", "jacobi", "mg"])
@pytest.mark.parametrize(
    "engine, knobs, batch_size", STEPPED_CASES,
    ids=[_stepped_id(case) for case in STEPPED_CASES],
)
def test_restaged_engine_reports_what_a_fresh_one_does(
    engine, knobs, batch_size, preconditioner, dtype
):
    """Every step of a simulation equals a freshly built serial solver
    (or ``solve_batch`` call) fed the same ``(acc, rhs, x0)``, walked by
    a :class:`TransientStepper` from the simulation's own pressures:
    report, pressure bytes and preconditioner telemetry."""
    solve = dict(
        spec=SPEC, dtype=dtype, rel_tol=1e-6, preconditioner=preconditioner, **knobs
    )
    if batch_size is None:
        problems = [make_problem(3, 3, 3, seed=1)]
        steps = [[report] for report in simulate_reports(
            problems[0], engine=engine, **STEPPED, **solve
        )]
    else:
        problems = [make_problem(3, 3, 3, seed=s) for s in (1, 2)]
        steps = list(simulate_reports_batch(
            problems, engine=engine, batch_size=batch_size, **STEPPED, **solve
        ))
    steppers = [TransientStepper(p, state_dtype=dtype, **STEPPED) for p in problems]
    assert len(steps) == len(STEPPED["dts"])
    for index, step in zip(steppers[0].pending(), steps):
        accs, rhss, guesses = zip(*(stepper.begin(index) for stepper in steppers))
        if batch_size is None:
            fresh = [WseMatrixFreeSolver(
                problems[0], engine=engine, initial_pressure=guesses[0],
                accumulation=accs[0], rhs=rhss[0], **solve,
            ).solve()]
        else:
            fresh = solve_batch(
                problems, engine=engine, batch_size=batch_size,
                initial_pressure=list(guesses), accumulation=list(accs),
                rhs=list(rhss), **solve,
            )
        for restaged, alone in zip(step, fresh, strict=True):
            assert restaged.iterations > 0
            _same_report(restaged, alone)
            assert restaged.pressure.tobytes() == alone.pressure.tobytes()
            assert restaged.preconditioner == alone.preconditioner
            assert restaged.engine == alone.engine
        for stepper, report in zip(steppers, step):
            stepper.advance(report.pressure)


@pytest.mark.parametrize("batch_size", [None, 1], ids=["serial", "batched-size1"])
def test_simulation_builds_one_engine_per_dt_run(monkeypatch, batch_size):
    """Δt runs 0.5, 2.0, 0.5: three engine builds per chunk, however
    many steps each run has; a serial engine still solves through the
    ``run`` of what ``create_engine`` returned, once per step."""
    builds, runs = [], []

    def counting(original):
        def counted(*args, **kwargs):
            engine = original(*args, **kwargs)
            builds.append(args[0])
            run = engine.run
            engine.run = lambda: runs.append(1) or run()
            return engine

        return counted

    for name in ("create_engine", "create_batched_engine"):
        monkeypatch.setattr(solver, name, counting(getattr(solver, name)))
    dts = [0.5, 0.5, 2.0, 2.0, 2.0, 0.5]
    if batch_size is None:
        steps = list(simulate_reports(
            make_problem(4, 4, 3, seed=1), engine="fused", dts=dts, **F64
        ))
        assert len(builds) == 3 and len(runs) == len(dts)
    else:
        problems = [make_problem(4, 4, 3, seed=s) for s in (1, 2)]
        steps = list(simulate_reports_batch(
            problems, engine="fused", batch_size=batch_size, dts=dts, **F64
        ))
        assert len(builds) == 3 * len(problems)
    assert len(steps) == len(dts)
