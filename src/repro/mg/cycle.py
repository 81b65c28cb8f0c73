"""The multigrid V-cycle: ``z = M⁻¹ r`` for the preconditioned CG.

One call = one V-cycle from a zero initial guess — the standard
symmetric-preconditioner form (equal pre/post weighted-Jacobi sweeps
around a variational coarse-grid correction, exact solve on the coarsest
level), so ``M⁻¹`` is symmetric positive definite and the PCG recurrence
stays a genuine CG.

The arithmetic runs in the hierarchy's dtype, the solve's working
precision: every engine calls this exact function with the exact same
hierarchy on the same residual, so the resulting ``z`` column is
bitwise identical across engines — which is what keeps the
event/vectorized/sharded/fused iterates in lockstep.

A cycle issues its ufunc calls and one compiled sweep per stencil
apply (:class:`repro.fv.operator.FlatStencil`, its DIA rows laid out
with the level), on the views each :class:`~repro.mg.hierarchy.MgLevel`
bound at build, and allocates at most the ``z`` it returns.  The first
pre-smoothing sweep starts from ``z = 0`` and is evaluated as
``z = (r·D⁻¹)·ω``, which is what
``z += ((r − A·0)·D⁻¹)·ω`` computes, without applying ``A``.

Masked (Dirichlet) cells are kept exactly zero throughout: the input
residual is zero there (the engine invariant), restriction zeroes coarse
masked cells, and the smoother update is zero wherever ``r`` and ``z``
both are.  So a coarse level ends its cycle holding exactly +0.0 on its
masked cells, which is what prolongation adds to a masked fine cell.
"""

from __future__ import annotations

import numpy as np

from repro.fv.operator import FlatStencil
from repro.mg.hierarchy import COARSE_FALLBACK_SWEEPS, MgHierarchy, MgLevel
from repro.util.errors import ValidationError


def _relax(level: MgLevel, omega: float, sweeps: int, from_zero: bool = False) -> None:
    """``sweeps`` damped-Jacobi updates ``z += ω D⁻¹ (rhs − A z)`` of
    ``level.z``; ``from_zero`` starts from ``z = 0``, where the first
    sweep needs no ``A·z``."""
    rhs, z, az, inv_diag = level.flat
    if from_zero:
        np.multiply(rhs, inv_diag, out=z)
        np.multiply(z, omega, out=z)
        sweeps -= 1
    for _ in range(sweeps):
        FlatStencil.run(level.apply_z)
        np.subtract(rhs, az, out=az)
        np.multiply(az, inv_diag, out=az)
        np.multiply(az, omega, out=az)
        np.add(z, az, out=z)


def _restrict(level: MgLevel, coarse: MgLevel) -> None:
    """``coarse.rhs = R·level.az``, zero on masked coarse cells."""
    for a, b, out in level.restriction:
        if b is None:
            np.copyto(out, a)
        else:
            np.add(a, b, out=out)
    rhs = coarse.flat[0]
    rhs[coarse.rows] = 0.0


def _prolong(level: MgLevel) -> None:
    """``level.z += P zc``, ``zc`` the next coarser level's ``z``."""
    for z, zc in level.prolongation:
        np.add(z, zc, out=z)


def _v_cycle(hier: MgHierarchy) -> None:
    """Solve ``levels[0]`` approximately: ``rhs`` in, ``z`` out."""
    levels, omega, sweeps = hier.levels, hier.omega, hier.smoother_iters
    for level, coarse in zip(levels, levels[1:]):
        _relax(level, omega, sweeps, from_zero=True)
        rhs, _, az, _ = level.flat
        FlatStencil.run(level.apply_z)
        np.subtract(rhs, az, out=az)
        _restrict(level, coarse)
    coarsest = levels[-1]
    if coarsest.dense_inv is not None:
        rhs, z, _, _ = coarsest.flat
        np.matmul(coarsest.dense_inv, rhs, out=z)
        z[coarsest.rows] = 0.0  # keep zero-on-mask exact
    else:
        _relax(coarsest, omega, COARSE_FALLBACK_SWEEPS, from_zero=True)
    for level in reversed(levels[:-1]):
        _prolong(level)
        _relax(level, omega, sweeps)


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
    _v_cycle(hier)
    if out is None:
        return fine.z.copy()
    np.copyto(out, fine.z, casting="same_kind")
    return out


__all__ = ["mg_apply"]
