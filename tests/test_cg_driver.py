"""The CG driver's own contract, pinned on every layout.

Every non-event engine is a layout of one :class:`CgDriver`, so the
driver owns what used to be re-implemented per engine: a repeated
``solve()`` re-stages and reports exactly what the first did (each run
builds its own charge models and histories), and a lane that starts at
its converged solution stops at ``ITER_CHECK`` after INIT while its
siblings keep iterating.
"""

import numpy as np
import pytest

from helpers import make_problem
from repro.core.engines import create_batched_engine
from repro.core.program import CgProgram
from repro.core.solver import WseMatrixFreeSolver, solve_batch
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


def _converged_guess(problem):
    return WseMatrixFreeSolver(
        problem, engine="vectorized", tol_rtr=1e-24, max_iters=500, **F64
    ).solve().pressure


@pytest.mark.parametrize("engine", ["vectorized", "fused"])
def test_lane_starting_converged_stops_after_init(engine):
    """A lane seeded with its converged solution runs zero iterations
    and stops at ITER_CHECK beside an iterating sibling; both lanes are
    exactly their serial solves, and the converged lane matches the
    event oracle's counters and state sequence."""
    done, busy = make_problem(4, 4, 3, seed=1), make_problem(4, 4, 3, seed=2)
    guess = _converged_guess(done)
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
