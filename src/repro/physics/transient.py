"""Transient slightly-compressible single-phase flow — the time-stepping
layer the paper's GPU section alludes to ("for each time iteration of the
simulation ...") and the natural first extension beyond the steady
incompressible solve.

Physics: adding slight fluid/rock compressibility ``c_t`` to the mass
balance gives, after backward-Euler discretization,

    (φ c_t V / Δt) (p^{n+1}_K - p^n_K) + Σ_L Υ λ (p^{n+1}_K - p^{n+1}_L) = 0,

i.e. at every time step a linear system with the same TPFA stencil plus an
accumulation term on the diagonal:

    (J + A) p^{n+1} = A p^n + b_D,   A = diag(φ c_t V / Δt).

The accumulation term *improves* conditioning (diagonal dominance), so CG
iteration counts drop as Δt shrinks — a property the tests pin down.  As
Δt → ∞ the scheme recovers the steady incompressible solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fv.operator import FlatStencil
from repro.physics.darcy import SinglePhaseProblem
from repro.solvers.cg import CGResult, conjugate_gradient
from repro.util.errors import ConfigurationError
from repro.util.validation import check_positive


@dataclass
class TransientOperator:
    """The per-step SPD operator ``x -> (J + A) x``."""

    problem: SinglePhaseProblem
    accumulation: np.ndarray  # diag(φ c_t V / Δt), zero on Dirichlet rows
    _stencil: FlatStencil = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._stencil = FlatStencil.from_coefficients(
            self.problem.coefficients, self.problem.dirichlet
        )

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = self._stencil.apply(x, out)
        # Dirichlet rows stay identity: the accumulation array is zeroed
        # there at construction.
        out += self.accumulation * x
        return out


@dataclass
class TransientReport:
    """Time-stepping outcome.

    Attributes
    ----------
    pressures:
        Snapshots [p^0, p^1, ..., p^N].
    linear_results:
        CG result per step.
    times:
        Physical time after each step.
    """

    pressures: list[np.ndarray] = field(default_factory=list)
    linear_results: list[CGResult] = field(default_factory=list)
    times: list[float] = field(default_factory=list)

    @property
    def final_pressure(self) -> np.ndarray:
        return self.pressures[-1]

    @property
    def total_linear_iterations(self) -> int:
        return sum(r.iterations for r in self.linear_results)


def build_accumulation(
    problem: SinglePhaseProblem,
    *,
    porosity: float | np.ndarray = 0.2,
    total_compressibility: float = 1e-4,
    dt: float = 1.0,
    dtype=np.float64,
) -> np.ndarray:
    """The accumulation diagonal ``φ c_t V / Δt`` (zero on T_D rows)."""
    check_positive("total_compressibility", total_compressibility)
    check_positive("dt", dt)
    grid = problem.grid
    if np.isscalar(porosity):
        phi = np.full(grid.shape, float(porosity), dtype=dtype)  # type: ignore[arg-type]
    else:
        phi = np.asarray(porosity, dtype=dtype)
        if phi.shape != grid.shape:
            raise ConfigurationError(
                f"porosity shape {phi.shape} != grid {grid.shape}"
            )
    if np.any(phi <= 0):
        raise ConfigurationError("porosity must be strictly positive")
    acc = phi * total_compressibility * grid.cell_volume() / dt
    acc = acc.astype(dtype)
    acc[problem.dirichlet.mask] = 0.0
    return acc


def initial_state(problem: SinglePhaseProblem, initial_condition, dtype) -> np.ndarray:
    """The initial pressure under a :class:`~repro.spec.TimeSpec` policy:
    ``"problem"`` (Dirichlet-consistent zero fill) or a uniform fill
    value (Dirichlet values applied on top)."""
    if isinstance(initial_condition, str):
        if initial_condition != "problem":
            raise ConfigurationError(
                f"unknown initial_condition {initial_condition!r}"
            )
        return problem.initial_pressure(dtype=dtype)
    return problem.initial_pressure(fill=float(initial_condition), dtype=dtype)


class TransientStepper:
    """Shared backward-Euler stepping state for every backend's loop.

    One instance owns everything the step recurrence needs — the Δt
    schedule, the accumulation rebuild-on-dt-change cache, the Dirichlet
    right-hand side, the warm/cold-start policy, and resume
    (``start_step``/``state``) — so the reference, GPU and fabric
    drivers all step identically and a semantics fix lands once::

        stepper = TransientStepper(problem, dts=..., ...)
        for idx in stepper.pending():
            acc, rhs, x0 = stepper.begin(idx)
            ...solve (J + diag(acc)) p = rhs from x0...
            stepper.advance(p)

    ``state_dtype`` is the dtype the carried pressure (and ``x0``) lives
    in — the backend's working precision; ``acc_dtype``/``rhs_dtype``
    control the accumulation/rhs arithmetic (float64 for the device
    paths, the working dtype for the all-in-one-precision reference).
    """

    def __init__(
        self,
        problem: SinglePhaseProblem,
        *,
        dts,
        porosity: float | np.ndarray = 0.2,
        total_compressibility: float = 1e-4,
        initial_condition="problem",
        warm_start: bool = True,
        start_step: int = 0,
        state: np.ndarray | None = None,
        state_dtype=np.float64,
        acc_dtype=np.float64,
        rhs_dtype=np.float64,
    ):
        self.problem = problem
        self.dts = [float(dt) for dt in dts]
        if not self.dts:
            raise ConfigurationError(
                "transient schedule needs at least one step"
            )
        if not 0 <= start_step <= len(self.dts):
            raise ConfigurationError(
                f"start_step {start_step} outside the "
                f"{len(self.dts)}-step schedule"
            )
        self.start_step = int(start_step)
        self.porosity = porosity
        self.total_compressibility = total_compressibility
        self.warm_start = bool(warm_start)
        self._state_dtype = np.dtype(state_dtype)
        self._acc_dtype = np.dtype(acc_dtype)
        self._rhs_dtype = np.dtype(rhs_dtype)
        self.p0 = initial_state(problem, initial_condition, self._state_dtype)
        if state is not None:
            self.p = np.array(state, dtype=self._state_dtype, copy=True)
            problem.dirichlet.apply_to(self.p)
        else:
            self.p = self.p0
        self._b_dir = np.zeros(problem.grid.shape, dtype=self._rhs_dtype)
        mask = problem.dirichlet.mask
        self._b_dir[mask] = problem.dirichlet.values[mask]
        self._acc: np.ndarray | None = None
        self._last_dt: float | None = None

    def pending(self) -> range:
        """0-based indices of the steps still to run."""
        return range(self.start_step, len(self.dts))

    def begin(self, index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Step ``index``'s system pieces from the current state:
        ``(accumulation, rhs, x0)`` for ``(J + diag(acc)) p = rhs``."""
        dt = self.dts[index]
        if dt != self._last_dt:
            self._acc = build_accumulation(
                self.problem,
                porosity=self.porosity,
                total_compressibility=self.total_compressibility,
                dt=dt,
                dtype=self._acc_dtype,
            )
            self._last_dt = dt
        rhs = self._acc * self.p.astype(self._rhs_dtype) + self._b_dir
        x0 = self.p if self.warm_start else self.p0
        return self._acc, rhs, x0

    def advance(self, pressure: np.ndarray) -> None:
        """Record a completed step's pressure as the new state."""
        self.p = np.asarray(pressure)


def simulate_transient(
    problem: SinglePhaseProblem,
    *,
    num_steps: int = 10,
    dt: float = 1.0,
    porosity: float | np.ndarray = 0.2,
    total_compressibility: float = 1e-4,
    initial_pressure: np.ndarray | None = None,
    rel_tol: float = 1e-10,
    max_iters: int = 10_000,
    store_every: int = 1,
) -> TransientReport:
    """Backward-Euler time stepping of the slightly-compressible system.

    Each step solves ``(J + A) p^{n+1} = A p^n + b_D`` with CG; snapshots
    are stored every ``store_every`` steps (plus the initial and final
    states).
    """
    if num_steps < 1:
        raise ConfigurationError("num_steps must be >= 1")
    acc = build_accumulation(
        problem,
        porosity=porosity,
        total_compressibility=total_compressibility,
        dt=dt,
    )
    operator = TransientOperator(problem, acc)

    p, b_dirichlet = problem.system_vectors(
        np.float64, initial_pressure=initial_pressure
    )

    report = TransientReport()
    report.pressures.append(p.copy())
    report.times.append(0.0)

    rhs = np.empty_like(p)
    for step in range(1, num_steps + 1):
        np.multiply(acc, p, out=rhs)
        rhs += b_dirichlet
        r0 = rhs - operator(p)
        rtr0 = float(np.vdot(r0, r0).real)
        result = conjugate_gradient(
            operator,
            rhs,
            x0=p,
            tol_rtr=max(rel_tol * rel_tol * rtr0, 1e-300),
            max_iters=max_iters,
        )
        p = result.x
        problem.dirichlet.apply_to(p)
        report.linear_results.append(result)
        if step % store_every == 0 or step == num_steps:
            report.pressures.append(p.copy())
            report.times.append(step * dt)
    return report
