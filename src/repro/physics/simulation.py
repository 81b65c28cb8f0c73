"""Newton / pressure-solve drivers.

The single-phase incompressible problem is linear, so one Newton step
solves it exactly — but the paper frames the linear solve inside a Newton
update (Eq. 5), "a key preliminary step towards ... nonlinear multiphase
flow".  We keep that structure: :func:`newton_solve` iterates Newton steps
(converging in one for this physics, tested), each step solving
``J δp = -r`` with the reference CG, optionally preconditioned.

Tolerances
----------
The paper's CG check is *absolute* on ``r^T r`` (ε = 2e-10) in fp32, which
only makes sense for its normalized problem scaling.  The reference driver
here is scale-robust: Newton convergence is declared at
``r^T r <= max(newton_tol, newton_rtol² · r0^T r0)`` with the verification
residual evaluated in float64, and the inner linear solve is requested two
orders (in ``r^T r``) tighter than that threshold.  Paper-fidelity fp32
runs can pass ``dtype=np.float32`` and the paper's absolute ``tol_rtr``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.fv.residual import compute_residual
from repro.physics.darcy import SinglePhaseProblem
from repro.solvers.cg import (
    DEFAULT_MAX_ITERS,
    PAPER_TOLERANCE_RTR,
    CGResult,
    conjugate_gradient,
)
from repro.util.errors import ConvergenceError


@dataclass
class NewtonReport:
    """Outcome of a Newton solve.

    Attributes
    ----------
    pressure:
        Converged pressure field.
    newton_iterations:
        Newton steps taken (1 for the linear single-phase problem).
    linear_results:
        Per-step CG results (iteration counts feed the benchmarks).
    residual_norms:
        Float64-evaluated ``r^T r`` before each Newton step and after the
        last.
    """

    pressure: np.ndarray
    newton_iterations: int
    linear_results: list[CGResult] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)

    @property
    def total_linear_iterations(self) -> int:
        return sum(r.iterations for r in self.linear_results)


def newton_solve(
    problem: SinglePhaseProblem,
    *,
    tol_rtr: float = PAPER_TOLERANCE_RTR,
    max_iters: int = DEFAULT_MAX_ITERS,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
    max_newton: int = 10,
    newton_tol: float = 0.0,
    newton_rtol: float | None = None,
    initial_pressure: np.ndarray | None = None,
    dtype=np.float64,
) -> NewtonReport:
    """Newton iteration on ``r(p) = 0`` (Eq. 2).

    Parameters
    ----------
    problem:
        The Darcy problem.
    tol_rtr, max_iters:
        Baseline absolute tolerance / iteration cap for the inner linear
        solver (the effective inner tolerance also adapts to the Newton
        threshold, see module docstring).
    precondition:
        Optional ``r -> M^{-1} r`` the inner :func:`conjugate_gradient`
        applies (see
        :func:`~repro.solvers.preconditioning.build_preconditioner`);
        ``None`` runs plain CG.
    max_newton:
        Newton step cap.
    newton_tol:
        Optional *absolute* threshold on the nonlinear ``r^T r``.
    newton_rtol:
        Relative threshold on the residual *norm* versus the canonical
        problem scale (the residual of the zero-fill initial guess):
        converge when ``r^T r <= newton_rtol² · scale``.  Defaults to 1e-6
        in float64 and 1e-4 in float32 (the fp32 attainable floor).
    initial_pressure:
        Starting field; defaults to zeros with Dirichlet values applied.
    dtype:
        Working precision for pressure/rhs vectors (float64 default for the
        reference; pass float32 for paper-fidelity runs).
    """
    operator = problem.operator()
    if initial_pressure is None:
        p = problem.initial_pressure(dtype=dtype)
    else:
        p = np.array(initial_pressure, dtype=dtype, copy=True)
        problem.dirichlet.apply_to(p)

    if newton_rtol is None:
        newton_rtol = 1e-4 if np.dtype(dtype) == np.float32 else 1e-6

    # Problem-scale reference: the residual of the canonical zero-fill
    # start.  Using a fixed scale (rather than this call's initial residual)
    # keeps the threshold meaningful when the caller passes an already
    # (nearly) converged initial_pressure.
    p_scale = problem.initial_pressure(dtype=np.float64)
    r_scale = compute_residual(problem.coefficients, problem.dirichlet, p_scale)
    scale_rtr = float(np.vdot(r_scale, r_scale).real)

    report = NewtonReport(pressure=p, newton_iterations=0)
    # The Newton threshold can never be tighter than what the inner linear
    # solver is asked to achieve — floor it at a small multiple of the CG
    # tolerance so ill-conditioned fields don't spin on an unreachable
    # target.
    threshold = max(float(newton_tol), 10.0 * float(tol_rtr))
    for _ in range(max_newton):
        r64, rtr = _true_residual(problem, p, report)
        if report.newton_iterations == 0:
            threshold = max(
                threshold, newton_rtol * newton_rtol * max(scale_rtr, rtr)
            )
        if rtr <= threshold:
            report.pressure = p
            return report
        # A float64 p already has its residual; a float32 one gets its
        # right-hand side in the working precision.
        r = (
            r64 if p.dtype == np.float64
            else compute_residual(problem.coefficients, problem.dirichlet, p)
        )
        rhs = (-r).astype(dtype)
        inner_tol = max(tol_rtr, 1e-2 * threshold)
        result = conjugate_gradient(
            operator, rhs, tol_rtr=inner_tol, max_iters=max_iters,
            precondition=precondition,
        )
        report.linear_results.append(result)
        p += result.x.astype(dtype)
        # Newton preserves Dirichlet values exactly (δp = 0 there), but
        # roundoff can creep in; re-impose to keep the invariant sharp.
        problem.dirichlet.apply_to(p)
        report.newton_iterations += 1

    _, rtr = _true_residual(problem, p, report)
    if rtr > threshold:
        raise ConvergenceError(
            f"Newton did not converge in {max_newton} steps (r^T r = {rtr:.3e})",
            iterations=report.newton_iterations,
            residual_norm=rtr,
        )
    report.pressure = p
    return report


def _true_residual(
    problem: SinglePhaseProblem, p: np.ndarray, report: NewtonReport
) -> tuple[np.ndarray, float]:
    """The float64-evaluated nonlinear residual and its ``r^T r`` (the
    norm is appended to the report)."""
    r64 = compute_residual(
        problem.coefficients, problem.dirichlet, p.astype(np.float64)
    )
    rtr = float(np.vdot(r64, r64).real)
    report.residual_norms.append(rtr)
    return r64, rtr
