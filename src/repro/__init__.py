"""repro — Matrix-Free Finite Volume Kernels on a Dataflow Architecture.

A full reproduction of Sai, Hamon, Mellor-Crummey & Araya-Polo (SC 2024):
a matrix-free TPFA finite-volume conjugate-gradient solver for single-phase
Darcy flow, mapped onto a simulated wafer-scale dataflow architecture
(`repro.wse` + `repro.core`), with a CUDA-like GPU reference model
(`repro.gpu`) and performance/roofline models regenerating every table and
figure of the paper's evaluation (`repro.perf`, `benchmarks/`).

The front door is one signature across every machine: pick a scenario (or
build a problem), pick a backend, describe the configuration with a typed
:class:`SolveSpec`, call :func:`solve` and get a canonical
:class:`SolveResult` back.  Batches go through a :class:`Session`: build
an inspectable :class:`~repro.session.ExecutionPlan`, fan it out over
threads or processes, and persist/resume results with a
:class:`~repro.session.ResultStore`.

Quickstart
----------
>>> import repro
>>> result = repro.solve("quarter_five_spot", backend="reference")
>>> result.pressure.shape
(16, 16, 8)
>>> spec = repro.SolveSpec.from_kwargs(dtype="float64", rel_tol=1e-9)
>>> plan = repro.Session().plan(
...     repro.scenarios.weak_scaling_family(), spec, backend="reference")
>>> results = plan.run(executor="process", n_workers=4)

See README.md for the architecture overview, the backend/scenario
registries, specs & sessions, and the experiment index.
"""

__version__ = "1.3.0"

from repro import api, backends, scenarios, spec, session
from repro.backends import (
    SimulationResult,
    SolveResult,
    SolverBackend,
    StepResult,
    available_backends,
    get_backend,
    register_backend,
)
from repro.driver import simulate, simulate_many, simulate_steps, solve, solve_many
from repro.scenarios import Scenario, available_scenarios, scenario
from repro.session import (
    ExecutionPlan,
    PlanEntry,
    PlanEntryResult,
    ResultStore,
    Session,
)
from repro.spec import (
    MachineSpec,
    PrecisionSpec,
    SolveSpec,
    TimeSpec,
    ToleranceSpec,
)

__all__ = [
    "ExecutionPlan",
    "MachineSpec",
    "PlanEntry",
    "PlanEntryResult",
    "PrecisionSpec",
    "ResultStore",
    "Scenario",
    "Session",
    "SimulationResult",
    "SolveResult",
    "SolveSpec",
    "SolverBackend",
    "StepResult",
    "TimeSpec",
    "ToleranceSpec",
    "__version__",
    "api",
    "available_backends",
    "available_scenarios",
    "backends",
    "get_backend",
    "register_backend",
    "scenario",
    "scenarios",
    "session",
    "simulate",
    "simulate_many",
    "simulate_steps",
    "solve",
    "solve_many",
    "spec",
]
