"""Tiled FV-apply kernel and the fused CG passes.

:class:`TiledApply` is the cache-blocked matrix-free operator: it
computes the FV apply over one lateral tile at a time, reading the
stencil neighbours through a zero-padded ``(nx+2, ny+2, nz)`` buffer
(pure shifted *slices* — no ``_shifted`` copies, no per-sweep
allocation).  Every tile runs one apply body on contiguous buffers:
construction-time effective face coefficients, and vertical sweeps over
the flattened tile (strided z-slice views run ~8x slower than the same
arithmetic on contiguous buffers).  A full-width row slab — what
:func:`~repro.fused.tiling.auto_tile` picks — is contiguous already and
is swept in place; any other tile is *staged*: its source is copied into
contiguous scratch, the apply writes contiguous scratch, and the result
is copied into the output's tile view.  The arithmetic mirrors
:class:`~repro.core.fv_kernel.FvColumnKernel` operand for operand, so
the tiled result is **bitwise** equal per element to the oracle's column
sweep: tiling is a pure loop reorder over elementwise/stencil-local
operations.

:class:`FusedNumpyBackend` is the kernel every non-event fabric engine
runs (:class:`~repro.core.cg_driver.CgDriver` drives it; the engines
differ only in the tile shape and in who owns the grid): it executes one
CG solve's numerics as tiled *passes* (init / body / update /
direction, plus the multigrid split points).  Per tile it fuses the FV
apply, the axpy updates and a float64 dot partial; the driver sums the
per-tile partials sequentially in row-major tile order, so repeated runs
are bit-identical.  A whole-grid tile is the vectorized engine; the
sharded engine runs one backend per shard, with neighbour planes written
into the pad ring of its ``x_ext``.
"""

from __future__ import annotations

import numpy as np

from repro.core.fv_kernel import HALO_ORDER, KernelVariant
from repro.fused.tiling import tile_boxes


# -- the cache-blocked FV apply -----------------------------------------------


def _face_coefficients(st, variant: KernelVariant, tile, dtype: np.dtype):
    """One tile's effective face coefficients as contiguous arrays: the
    four lateral faces in :data:`HALO_ORDER`, then the up and down faces
    flattened for the z sweeps (``up[k]`` couples flat cell ``k`` to
    ``k + 1``, ``down[k]`` cell ``k + 1`` to ``k``).

    The effective coefficient of a face is iteration-invariant; for
    ``FUSED_MOBILITY`` it is computed here once with the exact reference
    op sequence, so downstream arithmetic sees bitwise what a per-apply
    recomputation would feed it.  Flat entries that cross a column
    boundary are never consumed (see :meth:`TiledApply.apply`)."""
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
    """The matrix-free FV operator, one lateral tile at a time.

    Construction takes a staging (:class:`~repro.wse.vector_engine._Staging`
    — a whole grid or one shard of it; only its coefficient arrays and
    Dirichlet masks are read), the zero-padded stencil input ``x_ext``
    of shape ``(NX+2, NY+2, nz)``, the output array, and the tile boxes;
    it prebuilds every tile's contiguous coefficients and operand views
    and the max-tile scratch so :meth:`apply` allocates nothing.  The
    pad ring of ``x_ext`` reproduces ``_shifted``'s zero halos (edge
    planes are never written).
    """

    def __init__(
        self,
        st,
        *,
        x_ext: np.ndarray,
        out: np.ndarray,
        boxes,
        variant: KernelVariant,
        dtype: np.dtype,
    ):
        self.boxes = list(boxes)
        self.has_full = st.has_full
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

        # Flat max-tile scratch, reshaped per tile so every tile's view is
        # contiguous.  `diff`/`tmp` are the lateral scratch (`diff` doubles
        # as the passes' axpy scratch, only live inside a single tile's
        # step), `vd`/`vt` the flattened z sweeps', `plane` the boundary
        # plane a z sweep saves and restores, `xs`/`os` a staged tile's
        # source and output.
        diff = np.empty(max_cells, dtype=dtype)
        tmp = np.empty(max_cells, dtype=dtype)
        vd = np.empty(max_cells - 1, dtype=dtype)
        vt = np.empty(max_cells - 1, dtype=dtype)
        plane = np.empty(max_cells // nz, dtype=dtype)
        xs = np.empty(max_staged, dtype=dtype)
        os_ = np.empty(max_staged, dtype=dtype)

        self._t: list[dict] = []
        for box, shape, is_staged in zip(self.boxes, shapes, staged):
            x0, x1, y0, y1 = box
            cells = shape[0] * shape[1] * nz

            def tile(arr):
                return None if arr is None else np.ascontiguousarray(arr[x0:x1, y0:y1])

            lateral, up, down = _face_coefficients(st, variant, tile, dtype)
            view = out[x0:x1, y0:y1]
            self._t.append({
                # The four shifted stencil windows of x_ext (each reads the
                # pad ring or a neighbouring tile's cells — the same global
                # field state).
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

    def diff_view(self, t: int) -> np.ndarray:
        """The tile's scratch buffer (free outside :meth:`apply`)."""
        return self._t[t]["diff"]

    def apply(self, t: int, x: np.ndarray) -> None:
        """FV apply over tile ``t`` of the source field whose tile view
        is ``x`` (the field ``x_ext`` holds), written into the output's
        tile view.

        Mirrors :class:`~repro.core.fv_kernel.FvColumnKernel` operand
        for operand, so results are bitwise equal to an untiled sweep.
        """
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
            # Flattened z sweeps over the whole tile.  Elements that cross
            # a column boundary compute garbage into the boundary planes;
            # saving the plane a sweep must not touch and restoring it
            # afterwards leaves exactly the per-column sweep's state.
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


# -- the fused pass backend ---------------------------------------------------


class FusedNumpyBackend:
    """Pure-NumPy tiled execution of the fused CG passes.

    Owns one problem's work arrays (the staging's ``y``/``b``/``r``/
    ``z``/``p`` plus a padded stencil buffer refreshed from the pass's
    source field before each apply sweep) and executes each CG phase as
    one pass over the tiles, returning per-tile float64 dot partials in
    row-major tile order.  The pad ring of ``x_ext`` is never written
    here: it stays zero at fabric edges (reproducing ``_shifted``) and a
    shard worker writes its neighbours' boundary planes into it.

    A kernel is a context manager so the driver can bracket a solve the
    same way for every layout.  Entering re-stages the initial guess:
    ``y`` is the only staged field a solve writes (every other work
    array is rewritten by the init pass), so a repeated run starts from
    exactly the state the first one did.
    """

    def __init__(self, st, program, *, tile: tuple[int, int], dtype: np.dtype):
        self.jacobi = program.jacobi
        self.uses_z = program.uses_z
        dtype = np.dtype(dtype)
        nx, ny, nz = st.y.shape
        self.y, self.b, self.r, self.p = st.y, st.b, st.r, st.p
        self.z, self.inv_diag = st.z, st.inv_diag
        self._y0 = st.y.copy()
        # The padded stencil buffer: filled from the pass's source field
        # (y at init, p in the body) so stencil reads are pure slices.
        self.x_ext = np.zeros((nx + 2, ny + 2, nz), dtype=dtype)
        self._inner = self.x_ext[1:-1, 1:-1, :]
        self.jx = np.empty((nx, ny, nz), dtype=dtype)
        self.boxes = tile_boxes(nx, ny, tile)
        self.tiled = TiledApply(
            st, x_ext=self.x_ext, out=self.jx, boxes=self.boxes,
            variant=program.variant, dtype=dtype,
        )
        # Per-tile work views + float64 dot scratch (flat, so np.dot
        # sees contiguous buffers; the shaped views alias them for
        # allocation-free strided copies — same conversion, same BLAS
        # reduction as `astype(float64)` would produce).
        max_cells = max((x1 - x0) * (y1 - y0) * nz for x0, x1, y0, y1 in self.boxes)
        self._d64a = np.empty(max_cells, dtype=np.float64)
        self._d64b = np.empty(max_cells, dtype=np.float64)
        self._views = []
        for box in self.boxes:
            x0, x1, y0, y1 = box
            sl = (slice(x0, x1), slice(y0, y1))
            cells = (x1 - x0) * (y1 - y0) * nz
            shape3 = (x1 - x0, y1 - y0, nz)
            self._views.append({
                "y": self.y[sl], "b": self.b[sl], "r": self.r[sl],
                "z": None if self.z is None else self.z[sl],
                "inv_diag": None if self.inv_diag is None else self.inv_diag[sl],
                "p": self.p[sl], "jx": self.jx[sl],
                "d64a": self._d64a[:cells].reshape(shape3),
                "d64b": self._d64b[:cells].reshape(shape3),
                "cells": cells,
            })
        self._partials = np.zeros(len(self.boxes), dtype=np.float64)

    def __enter__(self) -> "FusedNumpyBackend":
        np.copyto(self.y, self._y0)
        return self

    def __exit__(self, *exc) -> None:
        return None

    # -- per-tile dot (float64, deterministic row-major element order) --------

    def _dot(self, tv, a: np.ndarray, b: np.ndarray) -> float:
        np.copyto(tv["d64a"], a)
        np.copyto(tv["d64b"], b)
        n = tv["cells"]
        return float(np.dot(self._d64a[:n], self._d64b[:n]))

    # -- the four passes ------------------------------------------------------

    def init_pass(self) -> np.ndarray:
        """INIT: load y into the stencil buffer, then per tile compute
        ``jx = A y``, ``r = b - jx``, the (optional) Jacobi ``z``, the
        direction seed ``p = z|r`` and the init dot partial."""
        jacobi = self.jacobi
        np.copyto(self._inner, self.y)
        partials = self._partials
        for t, tv in enumerate(self._views):
            self.tiled.apply(t, tv["y"])
            np.subtract(tv["b"], tv["jx"], out=tv["r"], casting="unsafe")
            if jacobi:
                np.multiply(tv["r"], tv["inv_diag"], out=tv["z"], casting="unsafe")
                np.copyto(tv["p"], tv["z"])
                partials[t] = self._dot(tv, tv["r"], tv["z"])
            else:
                np.copyto(tv["p"], tv["r"])
                partials[t] = self._dot(tv, tv["r"], tv["r"])
        return partials

    def body_pass(self) -> np.ndarray:
        """Per tile: ``jx = A p`` fused with the ``p·jx`` partial."""
        np.copyto(self._inner, self.p)
        partials = self._partials
        for t, tv in enumerate(self._views):
            self.tiled.apply(t, tv["p"])
            partials[t] = self._dot(tv, tv["p"], tv["jx"])
        return partials

    def update_pass(self, alpha: float) -> np.ndarray:
        """Per tile: ``y += α p``, ``r -= α jx``, Jacobi ``z`` and the
        ``r·(z|r)`` partial — one cache-resident visit per tile."""
        jacobi = self.jacobi
        partials = self._partials
        for t, tv in enumerate(self._views):
            d = self.tiled.diff_view(t)
            np.multiply(tv["p"], alpha, out=d, casting="unsafe")
            tv["y"] += d
            np.multiply(tv["jx"], -alpha, out=d, casting="unsafe")
            tv["r"] += d
            if jacobi:
                np.multiply(tv["r"], tv["inv_diag"], out=tv["z"], casting="unsafe")
                partials[t] = self._dot(tv, tv["r"], tv["z"])
            else:
                partials[t] = self._dot(tv, tv["r"], tv["r"])
        return partials

    def direction_pass(self, beta: float) -> None:
        """Per tile: ``p = β p + (z|r)``, in place."""
        uses_z = self.uses_z
        for tv in self._views:
            pt = tv["p"]
            np.multiply(pt, beta, out=pt, casting="unsafe")
            pt += tv["z"] if uses_z else tv["r"]

    # -- the multigrid split points -------------------------------------------
    #
    # The V-cycle is a *global* construct (coarse grids couple every
    # tile), so the mg-preconditioned program splits the init and update
    # passes at the two z-points: a tiled half-pass up to the residual,
    # the engine's global ``mg_apply`` into ``z``, then a tiled
    # half-pass for the seeds/dots.  The jacobi/none passes above are
    # untouched — their iterates stay bitwise what they were.

    def init_residual_pass(self) -> None:
        """INIT, first half: per tile ``jx = A y``, ``r = b - jx``."""
        np.copyto(self._inner, self.y)
        for t, tv in enumerate(self._views):
            self.tiled.apply(t, tv["y"])
            np.subtract(tv["b"], tv["jx"], out=tv["r"], casting="unsafe")

    def mg_seed_pass(self) -> np.ndarray:
        """INIT, second half (after the engine's V-cycle filled ``z``):
        per tile ``p = z`` and the ``r·z`` init partial."""
        partials = self._partials
        for t, tv in enumerate(self._views):
            np.copyto(tv["p"], tv["z"])
            partials[t] = self._dot(tv, tv["r"], tv["z"])
        return partials

    def update_axpy_pass(self, alpha: float) -> None:
        """UPDATE, first half: per tile ``y += α p``, ``r -= α jx``."""
        for t, tv in enumerate(self._views):
            d = self.tiled.diff_view(t)
            np.multiply(tv["p"], alpha, out=d, casting="unsafe")
            tv["y"] += d
            np.multiply(tv["jx"], -alpha, out=d, casting="unsafe")
            tv["r"] += d

    def mg_dot_pass(self) -> np.ndarray:
        """UPDATE, second half: per tile the ``r·z`` partial."""
        partials = self._partials
        for t, tv in enumerate(self._views):
            partials[t] = self._dot(tv, tv["r"], tv["z"])
        return partials


__all__ = ["FusedNumpyBackend", "TiledApply"]
