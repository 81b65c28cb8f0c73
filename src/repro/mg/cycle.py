"""The multigrid V-cycle: ``z = M⁻¹ r`` for the preconditioned CG.

One call = one V-cycle from a zero initial guess — the standard
symmetric-preconditioner form (equal pre/post damped-Jacobi sweeps
around a variational coarse-grid correction, exact solve on the coarsest
level), so ``M⁻¹`` is symmetric positive definite and the PCG recurrence
stays a genuine CG.

The arithmetic runs in the hierarchy's dtype, the solve's working
precision: every engine calls this exact function with the exact same
hierarchy on the same residual, so the resulting ``z`` column is
bitwise identical across engines — which is what keeps the
event/vectorized/sharded/fused iterates in lockstep.

A cycle runs the schedule :func:`repro.mg.build_hierarchy` bound, one
compiled kernel call per piece of work on operands each
:class:`~repro.mg.hierarchy.MgLevel` laid out at build, and allocates
nothing beyond the ``z`` it returns without ``out``.  Per level, with
``c = ωD⁻¹·rhs`` formed once and ``S = I − ωD⁻¹A``:

* a damped-Jacobi sweep ``z ← c + S z`` is a copy of ``c`` plus one
  ``dia_matvec`` of ``S``; the first sweep from ``z = 0`` is ``z = c``;
* the residual ``rhs − A z`` is a copy of ``rhs`` plus one
  ``dia_matvec`` of ``−A``;
* the restriction is one ``csr_matvec`` of the aggregate sum into a
  zeroed coarse ``rhs``, the prolongation ``z += P zc`` one
  ``csc_matvec`` of the same arrays, its transpose;
* the coarsest level is one dense mat-vec (or fixed sweeps when it is
  too large for a dense inverse).

Masked (Dirichlet) cells are kept exactly zero throughout: the input
residual is zero there (the engine invariant), ``S``, ``−A`` and the
restriction have zero rows on masked cells, and ``c`` is zero wherever
``rhs`` is.  So a coarse level ends its cycle holding exactly +0.0 on
its masked cells, and the prolongation adds nothing to a fine cell whose
aggregate is masked.
"""

from __future__ import annotations

import numpy as np

from repro.mg.hierarchy import MgHierarchy
from repro.util.errors import ValidationError


def mg_apply(
    hier: MgHierarchy, r: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """One V-cycle applied to a grid-shaped ``r``, in the hierarchy's
    dtype; ``z`` is cast into ``out`` if given, else returned new.

    The result belongs to the caller.  The cycle itself runs in the
    hierarchy's scratch, so two calls on one hierarchy must not overlap.
    """
    fine = hier.levels[0]
    if np.shape(r) != fine.shape:
        raise ValidationError(f"r shape {np.shape(r)} != grid {fine.shape}")
    if out is not None and np.shape(out) != fine.shape:
        raise ValidationError(f"out shape {np.shape(out)} != grid {fine.shape}")
    np.copyto(fine.rhs, r, casting="same_kind")
    for kernel, operands in hier.schedule:
        kernel(*operands)
    if out is None:
        return fine.z.copy()
    np.copyto(out, fine.z, casting="same_kind")
    return out


__all__ = ["mg_apply"]
