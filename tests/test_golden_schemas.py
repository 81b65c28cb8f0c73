"""Golden-file regression tests for the telemetry schemas.

``EngineReport``, ``FabricTrace.to_dict()`` and ``PerfCounters.to_dict()``
are the vocabulary every telemetry consumer reads — bench JSON,
``ResultStore`` manifests, the diff tool, downstream notebooks.  These
tests pin the *serialized* form of a canonical, fully deterministic
solve (fixed problem seed, fixed iteration count, fp32, analytic integer
counters) against JSON fixtures committed under ``tests/golden/``, so a
refactor cannot silently rename a key, change a unit, or drift a counter.

Re-blessing (after an *intentional* schema/counter change)::

    REPRO_BLESS_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_golden_schemas.py

then review the fixture diff like any other code change.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from helpers import make_problem
import repro
from repro.core.program import EngineReport
from repro.core.solver import WseMatrixFreeSolver, solve_batch
from repro.wse.specs import WSE2

GOLDEN_DIR = Path(__file__).parent / "golden"
BLESS = bool(os.environ.get("REPRO_BLESS_GOLDENS"))
SPEC = WSE2.with_fabric(8, 8)

#: The canonical case: deterministic across platforms (seeded lognormal
#: permeability, fp32 arithmetic, pinned iteration count).
CASE = dict(nx=4, ny=4, nz=3, seed=1)
SOLVE = dict(spec=SPEC, dtype=np.float32, rel_tol=None, fixed_iterations=3)


def _canonical_report(engine: str):
    problem = make_problem(**CASE)
    if engine == "batched":
        return solve_batch([problem], engine="vectorized", **SOLVE)[0]
    if engine == "fused":
        return WseMatrixFreeSolver(
            problem, engine="fused", fused_tile=2, **SOLVE
        ).solve()
    if engine == "sharded":
        return WseMatrixFreeSolver(
            problem, engine="sharded", shard_shape=(2, 2), **SOLVE
        ).solve()
    return WseMatrixFreeSolver(problem, engine=engine, **SOLVE).solve()


def _report_payload(report) -> dict:
    """The stable serialized face of an EngineReport (everything except
    the float arrays, which carry no schema)."""
    payload = {
        "engine": report.engine,
        "iterations": int(report.iterations),
        "converged": bool(report.converged),
        "residual_history_len": len(report.residual_history),
        "state_visits": [state.name for state in report.state_visits],
        "trace": report.trace.to_dict(),
        "counters": report.counters.to_dict(),
        "memory": report.memory,
    }
    if report.fused is not None:
        payload["fused"] = dict(report.fused)
    if report.shard is not None:
        payload["shard"] = dict(report.shard)
    return payload


def _check_against_golden(name: str, payload: dict):
    path = GOLDEN_DIR / f"{name}.json"
    if BLESS:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"blessed {path}")
    assert path.exists(), (
        f"missing golden fixture {path}; generate it with "
        f"REPRO_BLESS_GOLDENS=1 and commit the file"
    )
    golden = json.loads(path.read_text())
    assert payload == golden, (
        f"telemetry payload drifted from {path}; if the change is "
        f"intentional, re-bless with REPRO_BLESS_GOLDENS=1 and review "
        f"the fixture diff"
    )


@pytest.mark.parametrize(
    "engine", ["event", "vectorized", "batched", "fused", "sharded"]
)
def test_engine_report_schema_pinned(engine):
    report = _canonical_report(engine)
    _check_against_golden(f"engine_report_{engine}", _report_payload(report))


def test_backend_telemetry_schema_pinned():
    """The SolveResult.telemetry mapping the wse backend publishes —
    what ResultStore manifests and bench JSON actually serialize."""
    problem = make_problem(**CASE)
    spec = repro.SolveSpec.from_kwargs(
        spec=SPEC, dtype="float32", engine="event", fixed_iterations=3
    )
    result = repro.solve(problem, backend="wse", spec=spec)
    payload = {
        "telemetry_keys": sorted(result.telemetry),
        "time_kind": result.telemetry["time_kind"],
        "engine": result.telemetry["engine"],
        "trace": result.telemetry["trace"],
        "counters": result.telemetry["counters"],
        "memory": result.telemetry["memory"],
    }
    _check_against_golden("backend_telemetry_wse", payload)


def test_simulation_result_schema_pinned():
    """The serialized face of a transient run — ``StepResult`` telemetry
    and ``SimulationResult.to_dict()`` — pinned like the solve schemas
    (deterministic: fixed iteration count per step, fp32, simulated
    device time is pure arithmetic)."""
    from repro.backends import SimulationResult, StepResult

    problem = make_problem(**CASE)
    spec = repro.SolveSpec.from_kwargs(
        spec=SPEC, dtype="float32", engine="vectorized", fixed_iterations=3,
        n_steps=2, dt=2.0, total_compressibility=1e-2,
    )
    sim = repro.simulate(problem, backend="wse", spec=spec)
    step = sim.steps[0]
    payload = {
        "step_fields": sorted(StepResult.__dataclass_fields__),
        "simulation_fields": sorted(SimulationResult.__dataclass_fields__),
        "simulation": sim.to_dict(),
        "step1": {
            "step": step.step,
            "time": step.time,
            "dt": step.dt,
            "iterations": int(step.iterations),
            "converged": bool(step.converged),
            "residual_history_len": len(step.residual_history),
            "telemetry_keys": sorted(step.telemetry),
            "trace": step.telemetry["trace"],
            "counters": step.telemetry["counters"],
            "memory": step.telemetry["memory"],
        },
        # What a transient entry writes through solve()/ResultStore.
        "solve_result_transient": repro.solve(
            problem, backend="wse", spec=spec
        ).telemetry["transient"],
    }
    _check_against_golden("simulation_result", payload)


def test_engine_report_field_vocabulary():
    """The dataclass field names are API; renaming one breaks every
    telemetry consumer even before serialization."""
    fields = sorted(EngineReport.__dataclass_fields__)
    assert fields == [
        "converged", "counters", "elapsed_seconds", "engine", "fused",
        "iterations", "memory", "preconditioner", "pressure",
        "residual_history", "shard", "state_visits", "trace",
    ]


def test_goldens_are_committed_and_loadable():
    """Every expected fixture exists and is valid JSON (guards against a
    bless that never got committed)."""
    expected = [
        "engine_report_event", "engine_report_vectorized",
        "engine_report_batched", "engine_report_fused",
        "engine_report_sharded", "backend_telemetry_wse", "simulation_result",
    ]
    if BLESS:
        pytest.skip("blessing run")
    for name in expected:
        path = GOLDEN_DIR / f"{name}.json"
        assert path.exists(), f"missing golden fixture {path}"
        json.loads(path.read_text())
