"""Reference implementations the flat host stencil is pinned against.

These are the 3-D slice forms of the FV apply and of the multigrid
V-cycle, kept as plain loops over whole-array slices: ``apply_jx`` as a
per-axis ``lo``/``hi`` slice loop, and a self-contained hierarchy whose
level operator, smoother, transfers and V-cycle allocate fresh arrays
at every step, plus the diagonal as a slice loop.
``tests/test_flat_stencil.py`` requires the library's ``FlatStencil``
apply, ``diagonal_from_faces`` and ``repro.mg.mg_apply`` to equal them
element for element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mg import hierarchy as mg_hierarchy
from repro.mg.hierarchy import (
    COARSE_FALLBACK_SWEEPS,
    DEFAULT_OMEGA,
    DEFAULT_SMOOTHER_ITERS,
    planned_level_shapes,
)


def _lo_hi(axis):
    lo = [slice(None)] * 3
    hi = [slice(None)] * 3
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return tuple(lo), tuple(hi)


def internal_faces(faces):
    """Per-cell face arrays (each cell's face to its upper neighbour) as
    the internal faces, shaped ``(nx−1, ny, nz)``, ``(nx, ny−1, nz)``,
    ``(nx, ny, nz−1)``."""
    cx, cy, cz = faces
    return cx[:-1], cy[:, :-1], cz[:, :, :-1]


def diagonal_slices(faces, shape):
    """The float64 row sums of three internal-face arrays, per axis
    added to the lower cells' slice, then to the upper cells' slice."""
    diagonal = np.zeros(shape, dtype=np.float64)
    for axis, c in enumerate(faces):
        lo, hi = _lo_hi(axis)
        diagonal[lo] += c
        diagonal[hi] += c
    return diagonal


def apply_jx_slices(coeffs, dirichlet, x, out=None):
    """``J x`` as the 3-D slice loop: ``diag·x``, then per axis the
    upper and the lower neighbour couplings, then identity rows."""
    x = np.asarray(x)
    if out is None:
        out = np.empty_like(x)
    np.multiply(coeffs.diagonal, x, out=out)
    for axis in range(3):
        c = coeffs.axis(axis)
        lo, hi = _lo_hi(axis)
        out[lo] -= c * x[hi]
        out[hi] -= c * x[lo]
    if dirichlet is not None and not dirichlet.is_empty:
        np.copyto(out, x, where=dirichlet.mask)
    return out


@dataclass
class RefLevel:
    shape: tuple
    fx: np.ndarray
    fy: np.ndarray
    fz: np.ndarray
    acc: np.ndarray
    mask: np.ndarray
    diag: np.ndarray
    inv_diag: np.ndarray
    dense_inv: np.ndarray | None = None

    @property
    def cells(self):
        nx, ny, nz = self.shape
        return nx * ny * nz


@dataclass
class RefHierarchy:
    levels: tuple
    smoother_iters: int = DEFAULT_SMOOTHER_ITERS
    omega: float = DEFAULT_OMEGA


def _pair_sum(a, axis):
    n = a.shape[axis]
    even = [slice(None)] * a.ndim
    even[axis] = slice(0, None, 2)
    out = a[tuple(even)].copy()
    if n > 1:
        odd = [slice(None)] * a.ndim
        odd[axis] = slice(1, None, 2)
        head = [slice(None)] * a.ndim
        head[axis] = slice(0, n // 2)
        out[tuple(head)] += a[tuple(odd)]
    return out


def _pair_any(mask, axis):
    n = mask.shape[axis]
    even = [slice(None)] * mask.ndim
    even[axis] = slice(0, None, 2)
    out = mask[tuple(even)].copy()
    if n > 1:
        odd = [slice(None)] * mask.ndim
        odd[axis] = slice(1, None, 2)
        head = [slice(None)] * mask.ndim
        head[axis] = slice(0, n // 2)
        out[tuple(head)] |= mask[tuple(odd)]
    return out


def level_apply(level, z, out=None):
    """A level's operator as the 3-D slice loop (identity masked rows)."""
    if out is None:
        out = np.empty_like(z)
    np.multiply(level.diag, z, out=out)
    for axis, f in ((0, level.fx), (1, level.fy), (2, level.fz)):
        if f.size == 0:
            continue
        lo, hi = _lo_hi(axis)
        out[lo] -= f * z[hi]
        out[hi] -= f * z[lo]
    np.copyto(out, z, where=level.mask)
    return out


def restrict(fine_level, coarse_level, r):
    rc = _pair_sum(_pair_sum(r, 0), 1)
    rc[coarse_level.mask] = 0.0
    return rc


def prolong(fine_level, zc):
    nx, ny, _ = fine_level.shape
    zf = np.repeat(np.repeat(zc, 2, axis=0)[:nx], 2, axis=1)[:, :ny]
    zf = np.ascontiguousarray(zf)
    zf[fine_level.mask] = 0.0
    return zf


def _level_from_parts(fx, fy, fz, acc, mask, shape):
    diag = np.zeros(shape, dtype=np.float64)
    for axis, f in ((0, fx), (1, fy), (2, fz)):
        if f.size == 0:
            continue
        lo, hi = _lo_hi(axis)
        diag[lo] += f
        diag[hi] += f
    diag += acc
    diag[mask] = 1.0
    return RefLevel(shape, fx, fy, fz, acc, mask, diag, 1.0 / diag)


def _coarsen(fine):
    nxf, nyf, nzf = fine.shape
    nxc, nyc = -(-nxf // 2), -(-nyf // 2)
    fxc = _pair_sum(fine.fx[1::2], 1)
    fyc = _pair_sum(fine.fy[:, 1::2], 0)
    fzc = _pair_sum(_pair_sum(fine.fz, 0), 1)
    acc = _pair_sum(_pair_sum(fine.acc, 0), 1)
    mask = _pair_any(_pair_any(fine.mask, 0), 1)
    return _level_from_parts(fxc, fyc, fzc, acc, mask, (nxc, nyc, nzf))


def _dense_matrix(level):
    n = level.cells
    idx = np.arange(n).reshape(level.shape)
    a = np.zeros((n, n), dtype=np.float64)
    a[idx.ravel(), idx.ravel()] = level.diag.ravel()
    for axis, f in ((0, level.fx), (1, level.fy), (2, level.fz)):
        if f.size == 0:
            continue
        lo, hi = _lo_hi(axis)
        rows = idx[lo].ravel()
        cols = idx[hi].ravel()
        vals = f.ravel()
        a[rows, cols] -= vals
        a[cols, rows] -= vals
    m = level.mask.ravel()
    a[m, :] = 0.0
    a[:, m] = 0.0
    where = np.flatnonzero(m)
    a[where, where] = 1.0
    return a


def build_hierarchy(coefficients, dirichlet_mask, *, accumulation=None,
                    levels=None, smoother_iters=None):
    shape = tuple(int(v) for v in dirichlet_mask.shape)
    mask = np.asarray(dirichlet_mask, dtype=bool)
    acc = (
        np.zeros(shape, dtype=np.float64)
        if accumulation is None
        else np.asarray(accumulation, dtype=np.float64).reshape(shape).copy()
    )
    built = [_level_from_parts(
        coefficients.cx.astype(np.float64),
        coefficients.cy.astype(np.float64),
        coefficients.cz.astype(np.float64),
        acc, mask, shape,
    )]
    for _ in planned_level_shapes(shape, levels)[1:]:
        built.append(_coarsen(built[-1]))
    if built[-1].cells <= mg_hierarchy.DENSE_SOLVE_MAX_CELLS:
        built[-1].dense_inv = np.linalg.inv(_dense_matrix(built[-1]))
    iters = DEFAULT_SMOOTHER_ITERS if smoother_iters is None else smoother_iters
    return RefHierarchy(tuple(built), smoother_iters=iters)


def _smooth(level, z, r, omega, sweeps):
    """``sweeps`` damped-Jacobi updates ``z += ω D⁻¹ (r − A z)``."""
    for _ in range(sweeps):
        az = level_apply(level, z)
        np.subtract(r, az, out=az)
        az *= level.inv_diag
        az *= omega
        z += az
    return z


def _coarse_solve(hier, level, r):
    if level.dense_inv is not None:
        z = (level.dense_inv @ r.reshape(-1)).reshape(level.shape)
        z[level.mask] = 0.0
        return z
    z = np.zeros_like(r)
    return _smooth(level, z, r, hier.omega, COARSE_FALLBACK_SWEEPS)


def _v_cycle(hier, index, r):
    level = hier.levels[index]
    if index == len(hier.levels) - 1:
        return _coarse_solve(hier, level, r)
    z = np.zeros_like(r)
    _smooth(level, z, r, hier.omega, hier.smoother_iters)
    resid = r - level_apply(level, z)
    coarse = hier.levels[index + 1]
    rc = restrict(level, coarse, resid)
    zc = _v_cycle(hier, index + 1, rc)
    z += prolong(level, zc)
    _smooth(level, z, r, hier.omega, hier.smoother_iters)
    return z


def mg_apply(hier, r):
    """One reference V-cycle; float64 in, float64 out."""
    return _v_cycle(hier, 0, np.asarray(r, dtype=np.float64))
