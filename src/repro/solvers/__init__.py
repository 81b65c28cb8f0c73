"""Krylov solvers.

* :func:`conjugate_gradient` — the reference implementation of the paper's
  Algorithm 1 (``r^T r < ε`` convergence check, fp32-friendly), plain or
  preconditioned through ``precondition=M``.
* :func:`build_preconditioner` — the one builder of a linear system's
  ``M`` (``"none"``, Jacobi diagonal scaling — the documented extension —
  or the multigrid V-cycle), shared by the host and the fabric engines.
* :class:`CGState` — the 14 states of §III-D's event-driven machine;
  :mod:`repro.solvers.state_machine` holds the graph every fabric engine
  walks.
* :func:`scipy_cg_baseline` — independent cross-check via scipy.
"""

from repro.solvers.cg import CGResult, conjugate_gradient
from repro.solvers.state_machine import CGState, CG_NUM_STATES
from repro.solvers.baseline import scipy_cg_baseline, dense_direct_solve
from repro.solvers.preconditioning import Preconditioner, build_preconditioner

__all__ = [
    "CGResult",
    "conjugate_gradient",
    "CGState",
    "CG_NUM_STATES",
    "scipy_cg_baseline",
    "dense_direct_solve",
    "Preconditioner",
    "build_preconditioner",
]
