"""Tiled FV-apply kernel and the fused CG passes.

:class:`TiledApply` is the cache-blocked matrix-free operator: it
computes the FV apply over one lateral tile at a time, reading the
stencil input through a zero-padded ``(nx+2, ny+2, nz)`` buffer (pure
shifted *slices* — no ``_shifted`` copies, no per-sweep allocation) and
writing straight into the output array's tile view.  Every tile's
arithmetic mirrors :class:`~repro.core.fv_kernel.FvColumnKernel`
operand for operand, so the tiled result is **bitwise** equal per
element to the oracle's column sweep: tiling is a pure loop reorder over
elementwise/stencil-local operations.

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

Full-width tiles (``tile_y == ny``, what
:func:`~repro.fused.tiling.auto_tile` picks) take a *slab fast path*:
every work array's tile view is then a contiguous row slab, so the
apply runs with construction-time precomputed effective coefficients
and a flattened-column vertical sweep (strided z-slice views run ~8x
slower than the same arithmetic on contiguous buffers).  The fast
path's boundary planes are save/restored around the flattened sweeps,
keeping it bitwise equal to the strided :meth:`TiledApply.apply_tile`
that narrow tiles run — the fuzz suite exercises both.
"""

from __future__ import annotations

import numpy as np

from repro.core.fv_kernel import HALO_ORDER, KernelVariant
from repro.fused.tiling import tile_boxes


# -- the cache-blocked FV apply -----------------------------------------------


class TiledApply:
    """The matrix-free FV operator, one lateral tile at a time.

    Construction takes a staging (:class:`~repro.wse.vector_engine._Staging`
    — a whole grid or one shard of it; only its coefficient arrays and
    Dirichlet masks are read), the zero-padded stencil input ``x_ext``
    of shape ``(NX+2, NY+2, nz)``, the output array, and the tile boxes;
    it prebuilds every per-tile operand view and the max-tile-shaped
    scratch so :meth:`apply_tile` allocates nothing.  The pad ring of
    ``x_ext`` reproduces ``_shifted``'s zero halos (edge planes are
    never written).
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
        self.variant = variant
        self.boxes = list(boxes)
        self.has_full = st.has_full
        self.has_partial = st.has_partial
        self.has_acc = st.acc is not None
        dtype = np.dtype(dtype)
        nz = x_ext.shape[2]
        self.nz = nz
        max_tx = max(x1 - x0 for x0, x1, _, _ in self.boxes)
        max_ty = max(y1 - y0 for _, _, y0, y1 in self.boxes)
        self.max_tile = (max_tx, max_ty)

        # Max-tile scratch, sliced per tile below.  `diff`/`tmp` are the
        # lateral scratch, `vd`/`vt`/`vl` the vertical scratch; `diff`
        # doubles as the passes' axpy scratch (only live inside a single
        # tile's step).
        shape = (max_tx, max_ty, nz)
        self._diff_full = np.empty(shape, dtype=dtype)
        self._tmp_full = np.empty(shape, dtype=dtype)
        if nz >= 2:
            vshape = (max_tx, max_ty, nz - 1)
            self._vd_full = np.empty(vshape, dtype=dtype)
            self._vt_full = np.empty(vshape, dtype=dtype)
            self._vl_full = np.empty(vshape, dtype=dtype) if st.lam is not None else None

        lo = (Ellipsis, slice(0, nz - 1))
        hi = (Ellipsis, slice(1, nz))

        def tview(arr, box):
            x0, x1, y0, y1 = box
            return None if arr is None else arr[x0:x1, y0:y1]

        self._t: list[dict] = []
        for box in self.boxes:
            x0, x1, y0, y1 = box
            tnx, tny = x1 - x0, y1 - y0
            t: dict = {}
            # Stencil input: the tile's owned window of x_ext, plus the
            # four shifted windows (each reads into the pad ring or a
            # neighbouring tile's owned cells — same global field state).
            t["x"] = x_ext[x0 + 1:x1 + 1, y0 + 1:y1 + 1, :]
            t["shift"] = tuple(
                x_ext[
                    x0 + 1 + port.offset[0]:x1 + 1 + port.offset[0],
                    y0 + 1 + port.offset[1]:y1 + 1 + port.offset[1],
                    :,
                ]
                for port in HALO_ORDER
            )
            t["out"] = out[x0:x1, y0:y1]
            if variant is KernelVariant.PRECOMPUTED:
                t["coeff"] = tuple(tview(st.coeff[port], box) for port in HALO_ORDER)
                t["coeff_down"] = tview(st.coeff_down, box)
                t["coeff_up"] = tview(st.coeff_up, box)
            else:
                t["ups"] = tuple(tview(st.ups[port], box) for port in HALO_ORDER)
                t["ups_down"] = tview(st.ups_down, box)
                t["ups_up"] = tview(st.ups_up, box)
                t["lam"] = tview(st.lam, box)
                t["lam_nbr"] = tuple(
                    tview(st.lam_nbr[port], box) for port in HALO_ORDER
                )
            t["acc"] = tview(st.acc, box)
            t["full_cols"] = tview(st.full_cols, box)
            t["blend"] = tview(st.blend_mask, box)
            t["diff"] = self._diff_full[:tnx, :tny]
            t["tmp"] = self._tmp_full[:tnx, :tny]
            if nz >= 2:
                t["vd"] = self._vd_full[:tnx, :tny]
                t["vt"] = self._vt_full[:tnx, :tny]
                t["vl"] = (
                    None if self._vl_full is None else self._vl_full[:tnx, :tny]
                )
                t["x_lo"], t["x_hi"] = t["x"][lo], t["x"][hi]
                t["out_lo"], t["out_hi"] = t["out"][lo], t["out"][hi]
                if variant is KernelVariant.PRECOMPUTED:
                    t["cup_lo"] = t["coeff_up"][lo]
                    t["cdn_hi"] = t["coeff_down"][hi]
                else:
                    t["ups_up_lo"] = t["ups_up"][lo]
                    t["ups_dn_hi"] = t["ups_down"][hi]
                    t["lam_lo"], t["lam_hi"] = t["lam"][lo], t["lam"][hi]
            self._t.append(t)

    def diff_view(self, t: int) -> np.ndarray:
        """The tile's scratch buffer (free outside :meth:`apply_tile`)."""
        return self._t[t]["diff"]

    def apply_tile(self, t: int) -> np.ndarray:
        """FV apply over tile ``t``, written into the output tile view.

        Mirrors :class:`~repro.core.fv_kernel.FvColumnKernel` operand
        for operand, so results are bitwise equal to an untiled sweep.
        """
        tv = self._t[t]
        x, out, diff, tmp = tv["x"], tv["out"], tv["diff"], tv["tmp"]
        if self.variant is KernelVariant.PRECOMPUTED:
            for i in range(4):
                np.subtract(x, tv["shift"][i], out=diff)
                if i == 0:
                    np.multiply(tv["coeff"][i], diff, out=out)
                else:
                    np.multiply(tv["coeff"][i], diff, out=tmp)
                    out += tmp
        else:
            c = tmp
            for i in range(4):
                np.add(tv["lam"], tv["lam_nbr"][i], out=c)
                np.multiply(c, 0.5, out=c, casting="unsafe")
                np.multiply(c, tv["ups"][i], out=c, casting="unsafe")
                np.subtract(x, tv["shift"][i], out=diff)
                np.multiply(diff, c, out=diff, casting="unsafe")
                if i == 0:
                    out[...] = diff
                else:
                    out += diff
        if self.nz >= 2:
            vd, vt = tv["vd"], tv["vt"]
            if self.variant is KernelVariant.PRECOMPUTED:
                np.subtract(tv["x_lo"], tv["x_hi"], out=vd)
                np.multiply(tv["cup_lo"], vd, out=vt)
                tv["out_lo"] += vt
                np.subtract(tv["x_hi"], tv["x_lo"], out=vd)
                np.multiply(tv["cdn_hi"], vd, out=vt)
                tv["out_hi"] += vt
            else:
                vl = tv["vl"]
                for rng, other, ups in (
                    ("lo", "hi", tv["ups_up_lo"]),
                    ("hi", "lo", tv["ups_dn_hi"]),
                ):
                    np.subtract(tv[f"x_{rng}"], tv[f"x_{other}"], out=vd)
                    np.add(tv[f"lam_{rng}"], tv[f"lam_{other}"], out=vl)
                    np.multiply(vl, 0.5, out=vl, casting="unsafe")
                    np.multiply(vl, ups, out=vl, casting="unsafe")
                    np.multiply(vl, vd, out=vt)
                    tv[f"out_{rng}"] += vt
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
        return out


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
        # Full-width tiles get the contiguous slab fast path.
        self._use_slab = all(y0 == 0 and y1 == ny for _, _, y0, y1 in self.boxes)
        if self._use_slab:
            self._build_slab_path(program.variant, dtype, nx, ny, nz)

    # -- the contiguous slab fast path ----------------------------------------

    def _build_slab_path(self, variant, dtype, nx, ny, nz) -> None:
        """Precompute per-slab effective coefficients and flattened
        vertical-coefficient buffers.

        The effective coefficient of a face is iteration-invariant (for
        ``FUSED_MOBILITY`` it is computed here once with the exact
        reference op sequence, so downstream arithmetic sees bitwise
        what a per-apply recomputation would feed it); the vertical
        coefficients are laid out flat so the z sweeps run on contiguous
        buffers.  Entries of the flat buffers that cross a column
        boundary are never consumed: the boundary planes are
        save/restored around the flattened sweeps."""
        max_tx = self.tiled.max_tile[0]
        self._plane_a = np.empty((max_tx, ny), dtype=dtype)
        self._plane_b = np.empty((max_tx, ny), dtype=dtype)
        if nz >= 2:
            max_cells = max_tx * ny * nz
            self._vdf = np.empty(max_cells - 1, dtype=dtype)
            self._vtf = np.empty(max_cells - 1, dtype=dtype)
        self._slabs = []
        for ti, (box, t) in enumerate(zip(self.boxes, self.tiled._t)):
            x0, x1 = box[0], box[1]
            sl = (slice(x0, x1),)
            tnx = x1 - x0
            cells = tnx * ny * nz
            s: dict = {
                "src": {"y": self.y[sl], "p": self.p[sl]},
                "out": self.jx[sl],
                "outf": self.jx[sl].reshape(-1),
                "cells": cells,
                "diff": self.tiled._diff_full[:tnx],
                "tmp": self.tiled._tmp_full[:tnx],
                "plane_a": self._plane_a[:tnx],
                "plane_b": self._plane_b[:tnx],
                "shift": t["shift"],
                "acc": t["acc"],
                "full_cols": t["full_cols"],
                "blend": t["blend"],
            }
            if variant is KernelVariant.PRECOMPUTED:
                s["ceff"] = tuple(np.ascontiguousarray(c) for c in t["coeff"])
                cup = np.ascontiguousarray(t["coeff_up"])
                cdn = np.ascontiguousarray(t["coeff_down"])
            else:
                ceff = []
                for i in range(4):
                    c = np.empty((tnx, ny, nz), dtype=dtype)
                    np.add(t["lam"], t["lam_nbr"][i], out=c)
                    np.multiply(c, 0.5, out=c, casting="unsafe")
                    np.multiply(c, t["ups"][i], out=c, casting="unsafe")
                    ceff.append(c)
                s["ceff"] = tuple(ceff)
                cup = np.zeros((tnx, ny, nz), dtype=dtype)
                cdn = np.zeros((tnx, ny, nz), dtype=dtype)
                if nz >= 2:
                    lo = (Ellipsis, slice(0, nz - 1))
                    hi = (Ellipsis, slice(1, nz))
                    vl = np.empty((tnx, ny, nz - 1), dtype=dtype)
                    np.add(t["lam"][lo], t["lam"][hi], out=vl)
                    np.multiply(vl, 0.5, out=vl, casting="unsafe")
                    np.multiply(vl, t["ups_up"][lo], out=vl, casting="unsafe")
                    cup[lo] = vl
                    np.add(t["lam"][hi], t["lam"][lo], out=vl)
                    np.multiply(vl, 0.5, out=vl, casting="unsafe")
                    np.multiply(vl, t["ups_down"][hi], out=vl, casting="unsafe")
                    cdn[hi] = vl
            if nz >= 2:
                s["cupf"] = np.ascontiguousarray(cup.reshape(-1)[: cells - 1])
                s["cdnf"] = np.ascontiguousarray(cdn.reshape(-1)[1:])
            self._slabs.append(s)

    def _apply_slab(self, t: int, src: str) -> None:
        """The contiguous-slab FV apply: identical arithmetic to
        :meth:`TiledApply.apply_tile`, reordered onto contiguous
        buffers — bitwise-equal results, pinned by the fuzz suite."""
        s = self._slabs[t]
        x, out, diff, tmp = s["src"][src], s["out"], s["diff"], s["tmp"]
        ceff = s["ceff"]
        for i in range(4):
            np.subtract(x, s["shift"][i], out=diff)
            if i == 0:
                np.multiply(ceff[i], diff, out=out)
            else:
                np.multiply(ceff[i], diff, out=tmp)
                out += tmp
        nz = self.tiled.nz
        if nz >= 2:
            # Flattened z sweeps over the whole slab.  Elements that
            # cross a column boundary compute garbage into the boundary
            # planes; saving the plane a sweep must not touch and
            # restoring it afterwards leaves the state exactly where the
            # strided lo/hi reference sweeps put it.
            xf = x.reshape(-1)
            outf = s["outf"]
            n1 = s["cells"] - 1
            vd, vt = self._vdf[:n1], self._vtf[:n1]
            plane = s["plane_a"]
            np.copyto(plane, out[:, :, nz - 1])
            np.subtract(xf[:-1], xf[1:], out=vd)
            np.multiply(s["cupf"], vd, out=vt)
            outf[:n1] += vt
            np.copyto(out[:, :, nz - 1], plane)
            plane = s["plane_b"]
            np.copyto(plane, out[:, :, 0])
            np.subtract(xf[1:], xf[:-1], out=vd)
            np.multiply(s["cdnf"], vd, out=vt)
            outf[1:] += vt
            np.copyto(out[:, :, 0], plane)
        if self.tiled.has_acc:
            np.multiply(s["acc"], x, out=diff)
            out += diff
        if self.tiled.has_full:
            fc = s["full_cols"]
            out[fc] = x[fc]
        if self.tiled.has_partial:
            np.subtract(x, out, out=diff)
            np.multiply(s["blend"], diff, out=diff)
            out += diff

    def _apply(self, t: int, src: str) -> None:
        if self._use_slab:
            self._apply_slab(t, src)
        else:
            self.tiled.apply_tile(t)

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
            self._apply(t, "y")
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
            self._apply(t, "p")
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
            self._apply(t, "y")
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
