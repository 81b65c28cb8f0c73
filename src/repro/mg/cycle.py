"""The multigrid V-cycle: ``z = M⁻¹ r`` for the preconditioned CG.

One call = one V-cycle from a zero initial guess — the standard
symmetric-preconditioner form (equal pre/post weighted-Jacobi sweeps
around a variational coarse-grid correction, exact solve on the coarsest
level), so ``M⁻¹`` is symmetric positive definite and the PCG recurrence
stays a genuine CG.

All arithmetic is float64, independent of the engine's working
precision: every engine calls this exact function with the exact same
hierarchy, so the resulting ``z`` column is bitwise identical across
engines before the single cast into the working dtype — which is what
keeps the event/vectorized/sharded/fused iterates in lockstep.

Every level applies its operator through the one host stencil
(:class:`repro.fv.operator.FlatStencil`) and works in the scratch its
:class:`~repro.mg.hierarchy.MgLevel` allocated at build time, so a cycle
allocates only the ``z`` it returns.  The first pre-smoothing sweep
starts from ``z = 0`` and is evaluated as ``z = (r·D⁻¹)·ω``, which is
what ``z += ((r − A·0)·D⁻¹)·ω`` computes, without applying ``A``.

Masked (Dirichlet) cells are kept exactly zero throughout: the input
residual is zero there (the engine invariant), restriction zeroes coarse
masked cells, prolongation zeroes fine ones, and the smoother update is
zero wherever ``r`` and ``z`` both are.
"""

from __future__ import annotations

import numpy as np

from repro.mg.hierarchy import (
    COARSE_FALLBACK_SWEEPS,
    MgHierarchy,
    MgLevel,
    prolong,
    restrict,
)


def _smooth(level: MgLevel, omega: float, sweeps: int) -> None:
    """``sweeps`` damped-Jacobi updates ``z += ω D⁻¹ (rhs − A z)`` of
    ``level.z``."""
    z, az = level.z, level.az
    for _ in range(sweeps):
        level.op.apply(z, out=az)
        np.subtract(level.rhs, az, out=az)
        az *= level.inv_diag
        az *= omega
        z += az


def _smooth_from_zero(level: MgLevel, omega: float, sweeps: int) -> None:
    """:func:`_smooth` from ``z = 0``; the first sweep needs no ``A·z``."""
    np.multiply(level.rhs, level.inv_diag, out=level.z)
    level.z *= omega
    _smooth(level, omega, sweeps - 1)


def _v_cycle(hier: MgHierarchy, index: int) -> None:
    """Solve ``levels[index]`` approximately: ``rhs`` in, ``z`` out."""
    level = hier.levels[index]
    if index == len(hier.levels) - 1:
        if level.dense_inv is not None:
            np.matmul(level.dense_inv, level.rhs.reshape(-1), out=level.z.reshape(-1))
            np.copyto(level.z, 0.0, where=level.mask)  # keep zero-on-mask exact
        else:
            _smooth_from_zero(level, hier.omega, COARSE_FALLBACK_SWEEPS)
        return
    _smooth_from_zero(level, hier.omega, hier.smoother_iters)
    resid = level.op.apply(level.z, out=level.az)
    np.subtract(level.rhs, resid, out=resid)
    coarse = hier.levels[index + 1]
    restrict(level, coarse, resid, out=coarse.rhs)
    _v_cycle(hier, index + 1)
    level.z += prolong(level, coarse.z, out=level.az)
    _smooth(level, hier.omega, hier.smoother_iters)


def mg_apply(hier: MgHierarchy, r: np.ndarray) -> np.ndarray:
    """One V-cycle applied to ``r``; float64 in, float64 out.

    The returned array belongs to the caller.  The cycle itself runs in
    the hierarchy's scratch, so two calls on one hierarchy must not
    overlap.
    """
    fine = hier.levels[0]
    np.copyto(fine.rhs, r)
    _v_cycle(hier, 0)
    return fine.z.copy()


__all__ = ["mg_apply"]
