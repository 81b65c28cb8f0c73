"""Reference implementations the library's stencils are pinned against.

These are the 3-D slice forms of the FV apply and of the multigrid
V-cycle, kept as plain loops over whole-array slices: ``apply_jx`` as a
per-axis ``lo``/``hi`` slice loop, and a self-contained hierarchy whose
level operator, smoother, residual, transfers and V-cycle allocate fresh
arrays at every step, plus the diagonal as a slice loop.  The V-cycle
pieces add their terms in the order of the library's compiled sweeps:
a sweep is ``c + S z`` and the residual ``rhs + (−A) z``, each row's
terms added in the DIA row order (the diagonal, then per axis the upper
and the lower neighbour) with the library's coefficients; the
restriction sums each aggregate from +0.0 in ascending flat order, and
the prolongation adds each aggregate's correction to its fine cells.
``tests/test_flat_stencil.py`` requires the library's ``FlatStencil``
apply, ``diagonal_from_faces``, the V-cycle's transfers and
``repro.mg.mg_apply`` to equal them element for element.

:class:`TiledApply` is the fabric kernel's tiled apply in its
per-direction form: one shifted window per lateral port, flattened z
sweeps that save and restore a boundary plane, and a boolean-mask
Dirichlet copy.  ``tests/test_tiled_apply.py`` requires
``repro.fused.kernels.TiledApply`` to equal it element for element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fv_kernel import HALO_ORDER, KernelVariant
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


def weight(level, omega):
    """``ωD⁻¹``, zero on masked rows: the library's ``c = weight·rhs``
    and the per-row scale of ``S``'s couplings."""
    return np.where(level.mask, 0.0, omega / level.diag)


def _add_rows(level, diag, scale, z, out):
    """``out += diag·z + scale ⊙ C z``, ``C`` the level's couplings: per
    row the diagonal term, then per axis the upper and the lower
    neighbour, each coefficient ``scale·f`` of the row."""
    out += diag * z
    for axis, f in ((0, level.fx), (1, level.fy), (2, level.fz)):
        if f.size == 0:
            continue
        lo, hi = _lo_hi(axis)
        out[lo] += (scale[lo] * f) * z[hi]
        out[hi] += (scale[hi] * f) * z[lo]
    return out


def sweep(level, omega, c, z):
    """One damped-Jacobi sweep ``c + S z``, ``S = I − ωD⁻¹A`` with zero
    masked rows."""
    diag = np.where(level.mask, 0.0, 1.0 - omega)
    return _add_rows(level, diag, weight(level, omega), z, c.copy())


def residual(level, r, z):
    """``r + (−A) z``, ``−A`` with zero masked rows."""
    keep = np.where(level.mask, 0.0, 1.0)
    return _add_rows(level, np.where(level.mask, 0.0, -level.diag), keep, z, r.copy())


def restrict(coarse_level, r):
    """``R r``: per coarse cell +0.0 plus its fine cells in ascending flat
    order (x parity outer, y parity inner), +0.0 on masked coarse cells."""
    rc = np.zeros(coarse_level.shape, dtype=r.dtype)
    for i in (0, 1):
        for j in (0, 1):
            part = r[i::2, j::2]
            rc[: part.shape[0], : part.shape[1]] += part
    rc[coarse_level.mask] = 0.0
    return rc


def prolong(coarse_level, z, zc):
    """``z + P zc``: each fine cell adds its aggregate's ``zc``, but for
    the cells of a masked aggregate (an empty row of ``P``)."""
    z = z.copy()
    live = ~coarse_level.mask
    for i in (0, 1):
        for j in (0, 1):
            view = z[i::2, j::2]
            n0, n1 = view.shape[:2]
            np.add(view, zc[:n0, :n1], out=view, where=live[:n0, :n1])
    return z


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
    return RefLevel(shape, fx, fy, fz, acc, mask, diag)


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


def _smooth(level, omega, r, z, sweeps):
    """``sweeps`` damped-Jacobi sweeps towards ``A z = r`` from ``z``
    (``None``: from zero, where the first sweep is ``z = c``)."""
    c = weight(level, omega) * r
    if z is None:
        z, sweeps = c, sweeps - 1
    for _ in range(sweeps):
        z = sweep(level, omega, c, z)
    return z


def _coarse_solve(hier, level, r):
    if level.dense_inv is not None:
        z = (level.dense_inv @ r.reshape(-1)).reshape(level.shape)
        z[level.mask] = 0.0
        return z
    return _smooth(level, hier.omega, r, None, COARSE_FALLBACK_SWEEPS)


def _v_cycle(hier, index, r):
    level = hier.levels[index]
    if index == len(hier.levels) - 1:
        return _coarse_solve(hier, level, r)
    z = _smooth(level, hier.omega, r, None, hier.smoother_iters)
    coarse = hier.levels[index + 1]
    rc = restrict(coarse, residual(level, r, z))
    z = prolong(coarse, z, _v_cycle(hier, index + 1, rc))
    return _smooth(level, hier.omega, r, z, hier.smoother_iters)


def mg_apply(hier, r):
    """One reference V-cycle; float64 in, float64 out."""
    return _v_cycle(hier, 0, np.asarray(r, dtype=np.float64))


# -- the fabric kernel's tiled apply, per direction ---------------------------


def _face_coefficients(st, variant, tile, dtype):
    """One tile's effective face coefficients as contiguous arrays: the
    four lateral faces in ``HALO_ORDER``, then the up and down faces
    flattened for the z sweeps (``up[k]`` couples flat cell ``k`` to
    ``k + 1``, ``down[k]`` cell ``k + 1`` to ``k``)."""
    if variant is KernelVariant.PRECOMPUTED:
        lateral = tuple(tile(st.coeff[port]) for port in HALO_ORDER)
        up, down = tile(st.coeff_up), tile(st.coeff_down)
    else:
        lam = tile(st.lam)

        def mobility_face(lam_a, lam_b, ups):
            c = np.empty(lam_a.shape, dtype=dtype)
            np.add(lam_a, lam_b, out=c)
            np.multiply(c, 0.5, out=c, casting="unsafe")
            np.multiply(c, ups, out=c, casting="unsafe")
            return c

        lateral = tuple(
            mobility_face(lam, tile(st.lam_nbr[port]), tile(st.ups[port]))
            for port in HALO_ORDER
        )
        lo, hi = (Ellipsis, slice(0, -1)), (Ellipsis, slice(1, None))
        up = np.zeros(lam.shape, dtype=dtype)
        down = np.zeros(lam.shape, dtype=dtype)
        up[lo] = mobility_face(lam[lo], lam[hi], tile(st.ups_up)[lo])
        down[hi] = mobility_face(lam[hi], lam[lo], tile(st.ups_down)[hi])
    return (
        lateral,
        np.ascontiguousarray(up.reshape(-1)[:-1]),
        np.ascontiguousarray(down.reshape(-1)[1:]),
    )


class TiledApply:
    """The tiled FV apply, one port at a time: ``x_ext`` is the padded
    stencil input, ``out`` the output, ``boxes`` the tile boxes.  A
    full-width slab is swept in place; any other tile is copied into
    contiguous scratch, applied there and copied out."""

    def __init__(self, st, *, x_ext, out, boxes, variant, dtype):
        self.boxes = list(boxes)
        self.has_full = bool(st.full_cols.any())
        self.has_partial = st.has_partial
        self.has_acc = st.acc is not None
        dtype = np.dtype(dtype)
        ny, nz = out.shape[1], out.shape[2]
        self.nz = nz
        shapes = [(x1 - x0, y1 - y0, nz) for x0, x1, y0, y1 in self.boxes]
        staged = [(y0, y1) != (0, ny) for _, _, y0, y1 in self.boxes]
        max_cells = max(tx * ty * nz for tx, ty, _ in shapes)
        max_staged = max(
            (tx * ty * nz for (tx, ty, _), s in zip(shapes, staged) if s),
            default=0,
        )
        diff = np.empty(max_cells, dtype=dtype)
        tmp = np.empty(max_cells, dtype=dtype)
        vd = np.empty(max_cells - 1, dtype=dtype)
        vt = np.empty(max_cells - 1, dtype=dtype)
        plane = np.empty(max_cells // nz, dtype=dtype)
        xs = np.empty(max_staged, dtype=dtype)
        os_ = np.empty(max_staged, dtype=dtype)

        self._t = []
        for box, shape, is_staged in zip(self.boxes, shapes, staged):
            x0, x1, y0, y1 = box
            cells = shape[0] * shape[1] * nz

            def tile(arr):
                return None if arr is None else np.ascontiguousarray(arr[x0:x1, y0:y1])

            lateral, up, down = _face_coefficients(st, variant, tile, dtype)
            view = out[x0:x1, y0:y1]
            self._t.append({
                "shift": tuple(
                    x_ext[
                        x0 + 1 + port.offset[0]:x1 + 1 + port.offset[0],
                        y0 + 1 + port.offset[1]:y1 + 1 + port.offset[1],
                        :,
                    ]
                    for port in HALO_ORDER
                ),
                "ceff": lateral, "cup": up, "cdn": down,
                "acc": tile(st.acc),
                "full_cols": tile(st.full_cols),
                "blend": tile(st.blend_mask),
                "out": view,
                "xs": xs[:cells].reshape(shape) if is_staged else None,
                "work": os_[:cells].reshape(shape) if is_staged else view,
                "diff": diff[:cells].reshape(shape),
                "tmp": tmp[:cells].reshape(shape),
                "vd": vd[:cells - 1], "vt": vt[:cells - 1],
                "plane": plane[:cells // nz].reshape(shape[:2]),
            })

    def apply(self, t, x):
        """FV apply over tile ``t`` of the field whose tile view is
        ``x`` (the field ``x_ext`` holds), into the output's tile view."""
        tv = self._t[t]
        if tv["xs"] is not None:
            np.copyto(tv["xs"], x)
            x = tv["xs"]
        out, diff, tmp, ceff = tv["work"], tv["diff"], tv["tmp"], tv["ceff"]
        for i in range(4):
            np.subtract(x, tv["shift"][i], out=diff)
            if i == 0:
                np.multiply(ceff[i], diff, out=out)
            else:
                np.multiply(ceff[i], diff, out=tmp)
                out += tmp
        if self.nz >= 2:
            # Flattened z sweeps: elements that cross a column boundary
            # write into the boundary plane, which is saved and restored.
            xf, outf = x.reshape(-1), out.reshape(-1)
            vd, vt, plane = tv["vd"], tv["vt"], tv["plane"]
            for keep, src, nbr, coeff, dst in (
                (out[:, :, -1], xf[:-1], xf[1:], tv["cup"], outf[:-1]),
                (out[:, :, 0], xf[1:], xf[:-1], tv["cdn"], outf[1:]),
            ):
                np.copyto(plane, keep)
                np.subtract(src, nbr, out=vd)
                np.multiply(coeff, vd, out=vt)
                dst += vt
                np.copyto(keep, plane)
        if self.has_acc:
            np.multiply(tv["acc"], x, out=diff)
            out += diff
        if self.has_full:
            fc = tv["full_cols"]
            out[fc] = x[fc]
        if self.has_partial:
            np.subtract(x, out, out=diff)
            np.multiply(tv["blend"], diff, out=diff)
            out += diff
        if tv["xs"] is not None:
            np.copyto(tv["out"], out)
