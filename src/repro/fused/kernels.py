"""Tiled FV-apply kernel and the fused CG passes.

:class:`TiledApply` is the cache-blocked matrix-free operator.  Like the
paper's PE kernel (Alg. 2), it evaluates ``Σ c·(x − x_nbr)`` in a few
wide vector operations, one lateral tile at a time.  Each tile reads one
flat, contiguous window of the zero-padded ``(nx+2, ny+2, nz)`` stencil
buffer ``x_ext``: a full-width row slab (what
:func:`~repro.fused.tiling.auto_tile` picks) in place, any other tile
through a copy of its padded window.  Over the tile's padded rows, each
axis's two coupling differences are one subtraction of a strided window
pair into a ``(k, n)`` scratch.  The scratch is multiplied in place by a
coefficient stack built at construction, and one ordered
``np.add.reduce(axis=0)`` sums its rows; the sums' interior is copied
into the output tile.  An axis-0 reduction adds rows one after another
(NumPy sums pairwise only along the fast axis), so every element sees
the operations of :class:`~repro.core.fv_kernel.FvColumnKernel` in the
oracle's order.  The zero faces at a column's ends add a signed zero
there, which can change only the sign of an exactly-zero sum.  Tiling
is a pure loop reorder: the tiled result equals the oracle's column
sweep element for element.

:class:`FusedNumpyBackend` is the kernel every non-event fabric engine
runs (:class:`~repro.core.cg_driver.CgDriver` drives it; the engines
differ only in the tile shape and in who owns the grid): it executes one
CG solve's numerics as tiled *passes* (init / body / update /
direction, plus the multigrid split points).  Per tile it fuses the FV
apply, the two axpys as one block update ``[y; r] += [α; −α]·[p; jx]``
and a float64 dot partial; the driver sums the per-tile partials
sequentially in tile order, so repeated runs are bit-identical.  A
whole-grid tile is the vectorized engine, row-major cache tiles the
fused engine, and shard-major tiles (each shard's own tiles, shard by
shard) the sharded engine.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.core.fv_kernel import HALO_ORDER, KernelVariant


# -- the cache-blocked FV apply -----------------------------------------------


def _face_coefficients(st, variant: KernelVariant, tile, dtype: np.dtype):
    """One tile's effective face coefficients per cell: the four lateral
    faces in :data:`HALO_ORDER`, then the up and the down face.  A
    column's top cell has a zero up face and its bottom cell a zero down
    face, so a flat z shift that crosses a column boundary couples
    nothing.

    The effective coefficient of a face is iteration-invariant; for
    ``FUSED_MOBILITY`` it is computed here once with the exact reference
    op sequence, so downstream arithmetic sees bitwise what a per-apply
    recomputation would feed it."""
    if variant is KernelVariant.PRECOMPUTED:
        lateral = tuple(tile(st.coeff[port]) for port in HALO_ORDER)
        return lateral + (tile(st.coeff_up), tile(st.coeff_down))
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
    return lateral + (up, down)


class TiledApply:
    """The matrix-free FV operator, one lateral tile at a time.

    Construction takes a staging (:class:`~repro.core.host._Staging`,
    the one every engine reads; only its coefficient arrays and
    Dirichlet masks are read), the zero-padded stencil input ``x_ext``
    of shape ``(NX+2, NY+2, nz)``, the output array, and the tile
    boxes.  It builds every tile's coefficient stack, window views and
    Dirichlet indices once, so :meth:`apply` only does arithmetic and
    copies.  A tile's padded window reads its neighbours' boundary
    planes straight from ``x_ext`` (the pad ring at fabric edges, kept
    zero by :class:`FusedNumpyBackend` to reproduce
    :func:`~repro.core.host._shifted`); the window's
    corners reach only pad positions of the result, whose coefficients
    are zero and which are discarded.
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
        self.has_partial = st.has_partial
        self.has_acc = st.acc is not None
        dtype = np.dtype(dtype)
        ny, nz = out.shape[1], out.shape[2]
        # Difference rows: W, E, N, S, then up and down (a one-cell
        # column has neither), then a copy of x for the transient term.
        n_faces = 4 if nz == 1 else 6
        k = n_faces + self.has_acc
        staged = [(y0, y1) != (0, ny) for _, _, y0, y1 in self.boxes]
        # Flat max-tile scratch, reshaped per tile: `diff` holds the
        # difference stack over a tile's padded rows (and the partial
        # blend's scratch once the stack is summed), `sums` the tile's
        # result in padded rows, `xs` a staged tile's copy of its padded
        # window.
        max_rows = max((x1 - x0) * (y1 - y0 + 2) * nz for x0, x1, y0, y1 in self.boxes)
        diff = np.empty(k * max_rows, dtype=dtype)
        sums = np.empty(max_rows, dtype=dtype)
        xs = np.empty(max(
            (x1 - x0 + 2) * (y1 - y0 + 2) * nz if s else 0
            for s, (x0, x1, y0, y1) in zip(staged, self.boxes)
        ), dtype=dtype)

        self._t: list[dict] = []
        for (x0, x1, y0, y1), is_staged in zip(self.boxes, staged):
            tx, ty = x1 - x0, y1 - y0
            row = (ty + 2) * nz  # one padded x-row of the window
            n = tx * row  # the tile's own padded rows

            def tile(arr):
                return arr[x0:x1, y0:y1]

            def padded(fields):
                """Tile fields in the padded-row layout, zero in the pads."""
                stack = np.zeros((len(fields), tx, ty + 2, nz), dtype=dtype)
                for plane, field in zip(stack, fields):
                    plane[:, 1:-1] = field
                return stack.reshape(len(fields), n)

            window = x_ext[x0:x1 + 2, y0:y1 + 2]
            src = xs[:window.size] if is_staged else window.reshape(-1)
            x = src[row:row + n]

            def pair(shift):
                """x − shift and x + shift: one (2, n) view of the window."""
                item = src.itemsize
                return as_strided(
                    src[row - shift:], (2, n), (2 * shift * item, item),
                    writeable=False,
                )

            d = diff[:k * n].reshape(k, n)
            nbrs = (pair(row), pair(nz), pair(1)[::-1])[: n_faces // 2]
            coeffs = _face_coefficients(st, variant, tile, dtype)[:n_faces]
            if self.has_acc:
                coeffs += (tile(st.acc),)
            # Full Dirichlet columns, as flat indices into the padded rows.
            i, j = np.nonzero(tile(st.full_cols))
            full = ((i * (ty + 2) + j + 1)[:, None] * nz + np.arange(nz)).reshape(-1)
            self._t.append({
                "stage": (src.reshape(window.shape), window) if is_staged else None,
                "x": x,
                "d": d,
                "pairs": [(d[2 * a:2 * a + 2], nbr) for a, nbr in enumerate(nbrs)],
                "c": padded(coeffs),
                "sums": sums[:n],
                "full": full if full.size else None,
                "blend": padded([tile(st.blend_mask)])[0] if self.has_partial else None,
                "out": (out[x0:x1, y0:y1], sums[:n].reshape(tx, ty + 2, nz)[:, 1:-1]),
            })

    def apply(self, t: int) -> None:
        """FV apply over tile ``t`` of the field ``x_ext`` holds,
        written into the output's tile view."""
        tv = self._t[t]
        if tv["stage"] is not None:
            np.copyto(*tv["stage"])
        x, d = tv["x"], tv["d"]
        for rows, nbrs in tv["pairs"]:
            np.subtract(x, nbrs, out=rows)
        if self.has_acc:
            np.copyto(d[-1], x)
        d *= tv["c"]
        # -0.0 is the identity that keeps a leading -0.0 term, so this is
        # exactly ``out = t0; out += t1; …``.
        sums = tv["sums"]
        np.add.reduce(d, axis=0, out=sums, initial=-0.0)
        full = tv["full"]
        if full is not None:
            sums[full] = x[full]
        if self.has_partial:
            diff = d[0]
            np.subtract(x, sums, out=diff)
            np.multiply(tv["blend"], diff, out=diff)
            sums += diff
        np.copyto(*tv["out"])


# -- the fused pass backend ---------------------------------------------------


class FusedNumpyBackend:
    """Pure-NumPy tiled execution of the fused CG passes.

    Owns one problem's work arrays and executes each CG phase as one
    pass over the tiles, returning per-tile float64 dot partials in tile
    order.  ``y`` and ``r`` are the two rows of one block, ``p`` and
    ``jx`` of another, so the update's two axpys are one multiply and
    one add per tile; ``b``, ``z`` and ``inv_diag`` are the staging's.  The padded stencil buffer ``x_ext`` is refreshed
    from the pass's source field before each apply sweep; its pad ring
    is never written, so it stays zero (reproducing ``_shifted``).

    ``boxes`` are the ``(x0, x1, y0, y1)`` tiles, in the order their dot
    partials are returned; each layout lays them out (see
    :mod:`repro.core.engines`).  ``y`` is seeded from the staging at
    construction and by the driver at the start of every run, so a run
    starts from the staging's guess; ``b`` is the staging's, re-staged
    in place.  Every other work array is rewritten by the init pass.
    """

    def __init__(self, st, program, *, boxes, dtype: np.dtype):
        self.jacobi = program.jacobi
        self.uses_z = program.uses_z
        dtype = np.dtype(dtype)
        nx, ny, nz = st.y.shape
        self._yr = np.zeros((2, nx, ny, nz), dtype=dtype)
        self._pj = np.zeros((2, nx, ny, nz), dtype=dtype)
        self.y, self.r = self._yr
        self.p, self.jx = self._pj
        np.copyto(self.y, st.y)
        self.b, self.z, self.inv_diag = st.b, st.z, st.inv_diag
        # (α, −α) for the update's [y; r] += [α; −α]·[p; jx], in the work
        # dtype: the same α NumPy's casting gives a Python float.
        self._step = np.empty((2, 1, 1, 1), dtype=dtype)
        # The padded stencil buffer: filled from the pass's source field
        # (y at init, p in the body) so stencil reads are pure slices.
        self.x_ext = np.zeros((nx + 2, ny + 2, nz), dtype=dtype)
        self._inner = self.x_ext[1:-1, 1:-1, :]
        self.boxes = list(boxes)
        self.tiled = TiledApply(
            st, x_ext=self.x_ext, out=self.jx, boxes=self.boxes,
            variant=program.variant, dtype=dtype,
        )
        # Per-tile work views, the update's scratch and the float64 dot
        # scratch (flat, so np.dot sees contiguous buffers; the shaped
        # views alias them for allocation-free strided copies — same
        # conversion, same BLAS reduction as `astype(float64)` would
        # produce).
        max_cells = max((x1 - x0) * (y1 - y0) * nz for x0, x1, y0, y1 in self.boxes)
        self._d64a = np.empty(max_cells, dtype=np.float64)
        self._d64b = np.empty(max_cells, dtype=np.float64)
        axpy = np.empty(2 * max_cells, dtype=dtype)
        self._views = []
        for box in self.boxes:
            x0, x1, y0, y1 = box
            sl = (slice(x0, x1), slice(y0, y1))
            cells = (x1 - x0) * (y1 - y0) * nz
            shape3 = (x1 - x0, y1 - y0, nz)
            self._views.append({
                "b": self.b[sl], "r": self.r[sl],
                "z": None if self.z is None else self.z[sl],
                "inv_diag": None if self.inv_diag is None else self.inv_diag[sl],
                "p": self.p[sl], "jx": self.jx[sl],
                "yr": self._yr[(slice(None),) + sl],
                "pj": self._pj[(slice(None),) + sl],
                "axpy": axpy[:2 * cells].reshape((2,) + shape3),
                "d64a": self._d64a[:cells].reshape(shape3),
                "d64b": self._d64b[:cells].reshape(shape3),
                "cells": cells,
            })
        self._partials = np.zeros(len(self.boxes), dtype=np.float64)

    # -- per-tile dot (float64, deterministic row-major element order) --------

    def _dot(self, tv, a: np.ndarray, b: np.ndarray | None = None) -> float:
        """``a·b`` in float64; ``a·a`` when ``b`` is None, converting
        the field once."""
        n = tv["cells"]
        np.copyto(tv["d64a"], a)
        if b is None:
            return float(np.dot(self._d64a[:n], self._d64a[:n]))
        np.copyto(tv["d64b"], b)
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
            self.tiled.apply(t)
            np.subtract(tv["b"], tv["jx"], out=tv["r"], casting="unsafe")
            if jacobi:
                np.multiply(tv["r"], tv["inv_diag"], out=tv["z"], casting="unsafe")
                np.copyto(tv["p"], tv["z"])
                partials[t] = self._dot(tv, tv["r"], tv["z"])
            else:
                np.copyto(tv["p"], tv["r"])
                partials[t] = self._dot(tv, tv["r"])
        return partials

    def body_pass(self) -> np.ndarray:
        """Per tile: ``jx = A p`` fused with the ``p·jx`` partial."""
        np.copyto(self._inner, self.p)
        partials = self._partials
        for t, tv in enumerate(self._views):
            self.tiled.apply(t)
            partials[t] = self._dot(tv, tv["p"], tv["jx"])
        return partials

    def update_pass(self, alpha: float) -> np.ndarray:
        """Per tile: ``y += α p``, ``r -= α jx``, Jacobi ``z`` and the
        ``r·(z|r)`` partial — one cache-resident visit per tile."""
        jacobi = self.jacobi
        partials, step = self._partials, self._step
        step[:, 0, 0, 0] = (alpha, -alpha)
        for t, tv in enumerate(self._views):
            np.multiply(tv["pj"], step, out=tv["axpy"])
            tv["yr"] += tv["axpy"]
            if jacobi:
                np.multiply(tv["r"], tv["inv_diag"], out=tv["z"], casting="unsafe")
                partials[t] = self._dot(tv, tv["r"], tv["z"])
            else:
                partials[t] = self._dot(tv, tv["r"])
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
            self.tiled.apply(t)
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
        step = self._step
        step[:, 0, 0, 0] = (alpha, -alpha)
        for tv in self._views:
            np.multiply(tv["pj"], step, out=tv["axpy"])
            tv["yr"] += tv["axpy"]

    def mg_dot_pass(self) -> np.ndarray:
        """UPDATE, second half: per tile the ``r·z`` partial."""
        partials = self._partials
        for t, tv in enumerate(self._views):
            partials[t] = self._dot(tv, tv["r"], tv["z"])
        return partials


__all__ = ["FusedNumpyBackend", "TiledApply"]
