"""Engine-agnostic description of the dataflow CG program.

The paper's program is the same on every PE — a fixed cycle of four
phases (§III-B..III-D):

1. **halo exchange** — obtain the four lateral neighbour columns;
2. **FV apply** — the matrix-free column kernel ``Jx``;
3. **axpy/dot** — the PE-local CG vector updates and partial dot
   products;
4. **all-reduce** — combine the partials into the global scalars that
   gate the next state transition.

:class:`CgProgram` captures that cycle plus every knob that changes what
the phases compute (kernel variant, buffer reuse, preconditioner,
suppressed arithmetic, tolerances), *without* saying how the phases are
executed.  Two executions consume it:

* the event-driven engine (``repro.core.event_engine``) instantiates one
  :class:`~repro.wse.pe.ProcessingElement` per PE and plays the program
  as discrete wavelet events — the cycle-accurate oracle;
* the CG driver (``repro.core.cg_driver``) runs each phase as tiled
  array passes over ``(nx, ny, nz)`` fields — the paper-scale path
  (Kronbichler & Kormann's observation that a matrix-free operator is
  just structured array sweeps, applied to the fabric itself); every
  other engine name is a layout of it.

Engines return an :class:`EngineReport`, the shared result vocabulary
(solution + machine telemetry) that ``repro.core.solver`` republishes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.core.fv_kernel import KernelVariant
from repro.solvers.preconditioning import Preconditioner, build_preconditioner
from repro.solvers.state_machine import CGState
from repro.spec import MG_MAX_LEVELS, MG_MAX_SMOOTHER_ITERS, PRECONDITIONERS
from repro.util.errors import ConfigurationError
from repro.wse.trace import FabricTrace, PerfCounters


class Phase(enum.Enum):
    """The four phases of the per-PE dataflow program."""

    HALO_EXCHANGE = "halo_exchange"
    FV_APPLY = "fv_apply"
    AXPY_DOT = "axpy_dot"
    ALLREDUCE = "allreduce"


#: One CG iteration in phase order (the exchange gates the apply, the
#: all-reduce gates the next iteration — §III-D's state transitions).
CG_PHASES: tuple[Phase, ...] = (
    Phase.HALO_EXCHANGE,
    Phase.FV_APPLY,
    Phase.AXPY_DOT,
    Phase.ALLREDUCE,
)


@dataclass(frozen=True)
class CgProgram:
    """Everything an engine needs to run the distributed CG.

    ``tol_rtr`` is the *resolved* absolute tolerance on the global
    ``r^T r`` (any ``rel_tol`` scaling happens host-side before the
    program is built, as on the real machine).  ``fixed_iterations``
    selects the Table IV methodology (run exactly N steps, convergence
    check disabled); ``comm_only`` additionally suppresses arithmetic.

    ``batch`` is the number of independent same-shape problems the
    program runs: 1 is the classic single-problem program; a larger
    batch runs one lane per problem, each stopping on its own
    convergence.  Only the vectorized and fused layouts honour
    ``batch > 1`` (the event-driven oracle plays one wavelet at a time
    and rejects it).

    ``accumulation`` marks the transient program: the FV apply gains one
    fused multiply-add against the per-PE accumulation column
    (``(Jx)_K += a_K x_K``, the backward-Euler diagonal ``φ c_t V / Δt``)
    and the engine stages that column plus a per-step right-hand side.
    The instruction plan, charge model and memory rehearsal all key off
    this flag so both engines stay counter-exact.
    """

    variant: KernelVariant = KernelVariant.PRECOMPUTED
    reuse_buffers: bool = True
    comm_only: bool = False
    tol_rtr: float = 2e-10
    max_iters: int = 10_000
    fixed_iterations: int | None = None
    batch: int = 1
    accumulation: bool = False
    #: Which preconditioner the recurrence applies: ``"none"``,
    #: ``"jacobi"`` (PE-local diagonal scaling), or ``"mg"`` (host-assisted
    #: geometric multigrid V-cycle; per-level work charged analytically
    #: through ``repro.mg.charges`` so every engine stays oracle-pinned).
    preconditioner: str = "none"
    #: Multigrid hierarchy depth cap (``None`` = coarsen until the
    #: lateral grid is trivial) and pre/post smoothing sweeps per level.
    mg_levels: int | None = None
    mg_smoother_iters: int = 2

    def __post_init__(self) -> None:
        if self.preconditioner not in PRECONDITIONERS:
            raise ConfigurationError(
                f"unknown preconditioner {self.preconditioner!r}; choose "
                f"one of {', '.join(map(repr, PRECONDITIONERS))}"
            )
        if self.fixed_iterations is not None and self.fixed_iterations < 1:
            raise ConfigurationError("fixed_iterations must be >= 1")
        if self.batch < 1:
            raise ConfigurationError("batch must be >= 1")
        if self.comm_only and self.fixed_iterations is None:
            raise ConfigurationError(
                "comm_only runs never converge; set fixed_iterations "
                "(the paper used the converged run's 225 steps)"
            )
        if self.comm_only and self.preconditioner == "mg":
            raise ConfigurationError(
                "comm_only suppresses the arithmetic the mg V-cycle is "
                "made of; use preconditioner='none' or 'jacobi'"
            )
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1")
        if self.mg_levels is not None and not 1 <= self.mg_levels <= MG_MAX_LEVELS:
            raise ConfigurationError(
                f"mg_levels must be in [1, {MG_MAX_LEVELS}], got {self.mg_levels}"
            )
        if not 1 <= self.mg_smoother_iters <= MG_MAX_SMOOTHER_ITERS:
            raise ConfigurationError(
                f"mg_smoother_iters must be in [1, {MG_MAX_SMOOTHER_ITERS}], "
                f"got {self.mg_smoother_iters}"
            )

    @property
    def jacobi(self) -> bool:
        """True when the program preconditions with the PE-local inverse
        diagonal."""
        return self.preconditioner == "jacobi"

    @property
    def mg(self) -> bool:
        """True when the program preconditions with multigrid."""
        return self.preconditioner == "mg"

    @property
    def uses_z(self) -> bool:
        """True when the recurrence carries a preconditioned residual
        column ``z`` (any preconditioner except ``"none"``)."""
        return self.preconditioner != "none"

    def preconditioner_for(
        self, problem, accumulation: np.ndarray | None = None, dtype=np.float64
    ) -> Preconditioner:
        """This program's ``M`` for one system, its V-cycle in ``dtype``:
        the solver builds it once per system and hands it to every
        consumer, and staging calls this for a caller that passed none."""
        return build_preconditioner(
            problem,
            self.preconditioner,
            accumulation=accumulation,
            mg_levels=self.mg_levels,
            mg_smoother_iters=self.mg_smoother_iters,
            dtype=dtype,
        )

    @property
    def check_convergence(self) -> bool:
        return self.fixed_iterations is None

    @property
    def iteration_limit(self) -> int:
        return (
            self.fixed_iterations
            if self.fixed_iterations is not None
            else self.max_iters
        )

    @property
    def phases(self) -> tuple[Phase, ...]:
        return CG_PHASES

    def describe(self) -> list[str]:
        """Phase names in execution order (introspection/docs)."""
        return [phase.value for phase in self.phases]


@dataclass
class EngineReport:
    """What any fabric engine produces for one solve.

    The field vocabulary matches the event-driven oracle's native report
    (``WseSolveReport`` republishes it unchanged): solution, CG outcome,
    and the machine-level telemetry the benchmarks consume.  For the
    driver's layouts, ``trace``/``counters``/``memory`` come from the
    analytic model over the same ISA cost tables.
    """

    pressure: np.ndarray
    iterations: int
    converged: bool
    residual_history: list[float]
    trace: FabricTrace
    counters: PerfCounters
    elapsed_seconds: float
    memory: dict[str, float]
    state_visits: list[CGState] = field(default_factory=list)
    engine: str = "event"
    #: Sharded-layout extras (layout, inter-shard link counters, tile,
    #: and with mg the modeled V-cycle host traffic) — ``None`` for the
    #: other engines.  JSON-able.
    shard: dict | None = None
    #: Fused hot-loop extras (tile shape, tiles per iteration) —
    #: ``None`` for the other engines.  JSON-able.
    fused: dict | None = None
    #: Preconditioner telemetry for structured preconditioners (the mg
    #: hierarchy's per-level grids, smoothing sweeps, V-cycle count) —
    #: ``None`` for ``"none"``/``"jacobi"``.  JSON-able.
    preconditioner: dict | None = None


__all__ = ["CG_PHASES", "CgProgram", "EngineReport", "Phase"]
