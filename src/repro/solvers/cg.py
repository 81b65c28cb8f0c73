"""Reference conjugate gradient — Algorithm 1 of the paper.

The paper's pseudo-code (in its notation: ``x`` is the *search direction*,
``y`` the solution iterate) is standard CG with the convergence check
``r^T r < ε`` — an absolute tolerance on the *squared* residual norm; the
evaluation uses ``ε = 2e-10``.  We keep that convention (exposed as
``tol_rtr``) and also offer a relative variant for convenience.  An
optional ``precondition`` callable (``r -> M^{-1} r``) turns the same
loop into preconditioned CG; convergence is still checked on the
unpreconditioned ``r^T r``.

All vector math is done in NumPy with in-place updates (no per-iteration
allocations), following the HPC guide idioms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.util.errors import ConvergenceError, ValidationError

#: The paper's convergence tolerance on ``r^T r`` (§V-C).
PAPER_TOLERANCE_RTR = 2e-10

#: CG iterations to convergence reported by the paper (Table III).
PAPER_ITERATIONS = 225


@dataclass
class CGResult:
    """Outcome of a CG solve.

    Attributes
    ----------
    x:
        Solution array (same shape as the input rhs).
    iterations:
        Number of iterations performed (operator applications minus one).
    converged:
        True if ``r^T r`` dropped below the tolerance within max_iters.
    residual_history:
        ``r^T r`` after each iteration, accumulated in the fields' dtype
        (a float32 solve's dots are float32) and widened to Python
        floats, starting with the initial residual.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    residual_history: list[float] = field(default_factory=list)

    @property
    def final_rtr(self) -> float:
        return self.residual_history[-1] if self.residual_history else float("nan")


def conjugate_gradient(
    operator: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    tol_rtr: float = PAPER_TOLERANCE_RTR,
    rel_tol: float | None = None,
    max_iters: int = 10_000,
    callback: Callable[[int, float], None] | None = None,
    raise_on_fail: bool = False,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> CGResult:
    """Solve ``A x = b`` for SPD ``A`` given as a callable.

    Parameters
    ----------
    operator:
        Callable computing ``A @ v`` for an array ``v`` (any shape; the
        solver treats arrays as flat vectors for dot products).
    b:
        Right-hand side.
    x0:
        Initial guess (default zero).  For the FV system, pass a guess that
        already satisfies the Dirichlet rows so the residual vanishes on
        ``T_D`` (the invariant §III relies on).
    tol_rtr:
        Absolute tolerance on ``r^T r`` (paper semantics).
    rel_tol:
        If given, converge when ``r^T r <= rel_tol**2 * (r0^T r0)`` instead.
    max_iters:
        Iteration cap (line 4 of Algorithm 1).
    callback:
        Called as ``callback(k, rtr)`` after each iteration.
    raise_on_fail:
        Raise :class:`ConvergenceError` instead of returning a
        non-converged result.
    precondition:
        Optional ``r -> M^{-1} r`` for SPD ``M`` (e.g. a
        :class:`~repro.solvers.preconditioning.Preconditioner`); its
        result is cast to ``b``'s dtype.  ``None`` runs plain CG.
    """
    b = np.asarray(b)
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.array(x0, dtype=b.dtype, copy=True)
        if x.shape != b.shape:
            raise ValidationError(f"x0 shape {x.shape} != b shape {b.shape}")
        r = b - operator(x)

    # Dot products accumulate in the fields' dtype: ``np.vdot`` of two
    # float32 arrays is a float32 BLAS ``sdot``, widened to a Python float
    # only afterwards.
    rtr = float(np.vdot(r, r).real)
    history = [rtr]
    threshold = rtr * rel_tol * rel_tol if rel_tol is not None else tol_rtr

    if rtr < threshold:
        return CGResult(x, 0, True, history)

    # z = M^{-1} r; without a preconditioner z is r itself and r^T z is
    # r^T r, so plain CG pays no extra copy or dot.
    if precondition is None:
        z, rz = r, rtr
    else:
        z = precondition(r).astype(b.dtype)
        rz = float(np.vdot(r, z).real)
    p = z.copy()  # search direction (the paper's "x")
    Ap = np.empty_like(b)
    k = 0
    converged = False
    while k < max_iters:
        Ap[...] = operator(p)
        pap = float(np.vdot(p, Ap).real)
        if pap <= 0:
            # Operator is not positive definite along p: fail loudly rather
            # than silently diverging.
            raise ConvergenceError(
                f"CG breakdown: p^T A p = {pap:.3e} <= 0 at iteration {k}",
                iterations=k,
                residual_norm=rtr,
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * Ap
        rtr = float(np.vdot(r, r).real)
        history.append(rtr)
        k += 1
        if callback is not None:
            callback(k, rtr)
        if rtr < threshold:
            converged = True
            break
        if precondition is None:
            rz_new = rtr
        else:
            z[...] = precondition(r)
            rz_new = float(np.vdot(r, z).real)
        beta = rz_new / rz
        p *= beta
        p += z
        rz = rz_new

    if not converged and raise_on_fail:
        raise ConvergenceError(
            f"CG did not converge in {max_iters} iterations (r^T r = {history[-1]:.3e})",
            iterations=k,
            residual_norm=history[-1],
        )
    return CGResult(x, k, converged, history)
