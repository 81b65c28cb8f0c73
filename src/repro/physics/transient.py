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

This module holds the pieces of a step (the accumulation diagonal, the
operator ``J + A`` and the :class:`TransientStepper` recurrence); the
loop over steps is ``repro.simulate`` on any backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fv.operator import FlatStencil
from repro.physics.darcy import SinglePhaseProblem
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
