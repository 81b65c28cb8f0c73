"""Independent solver baselines for cross-validation.

``scipy_cg_baseline`` runs scipy's CG on the same operator; the dense direct
solve gives exact (to fp) ground truth on tiny grids.  Tests assert all
solver paths (reference CG, dataflow CG, GPU CG, scipy, direct) agree.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.solvers.cg import DEFAULT_MAX_ITERS, PAPER_TOLERANCE_RTR, CGResult
from repro.util.errors import ConvergenceError


def scipy_cg_baseline(
    matrix_or_operator,
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    tol_rtr: float = PAPER_TOLERANCE_RTR,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> CGResult:
    """Solve with :func:`scipy.sparse.linalg.cg`, paper-style tolerance.

    scipy's ``rtol``/``atol`` compare ``||r||`` (not ``r^T r``), so we pass
    ``atol = sqrt(tol_rtr)`` and ``rtol=0`` for an absolute check equivalent
    to the paper's ``r^T r < ε``.
    """
    # Imported here, not at module level: no solve path runs SciPy's
    # iterative solvers, so ``import repro`` does not load them.
    import scipy.sparse.linalg as spla

    b_flat = np.asarray(b).reshape(-1)
    x0_flat = None if x0 is None else np.asarray(x0).reshape(-1)
    residuals: list[float] = []

    def _callback(xk: np.ndarray) -> None:
        # scipy's callback gives the iterate, not the residual; recompute.
        r = b_flat - matrix_or_operator @ xk
        residuals.append(float(np.vdot(r, r).real))

    x, info = spla.cg(
        matrix_or_operator,
        b_flat,
        x0=x0_flat,
        rtol=0.0,
        atol=float(np.sqrt(tol_rtr)),
        maxiter=max_iters,
        callback=_callback,
    )
    converged = info == 0
    return CGResult(
        x.reshape(np.asarray(b).shape),
        iterations=len(residuals),
        converged=converged,
        residual_history=residuals,
    )


def dense_direct_solve(J, b: np.ndarray) -> np.ndarray:
    """Exact solve via dense LU — only for tiny validation grids."""
    b_flat = np.asarray(b, dtype=np.float64).reshape(-1)
    if sp.issparse(J):
        dense = J.toarray().astype(np.float64)
    else:
        dense = np.asarray(J, dtype=np.float64)
    n = dense.shape[0]
    if n > 20_000:
        raise ConvergenceError(
            f"dense_direct_solve limited to 20k unknowns, got {n}",
            iterations=0,
            residual_norm=float("nan"),
        )
    x = np.linalg.solve(dense, b_flat)
    return x.reshape(np.asarray(b).shape)
