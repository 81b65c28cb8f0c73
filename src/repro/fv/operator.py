"""The matrix-free operator ``x -> Jx`` (Eq. 6) — the one host FV apply.

This is the numerical ground truth the dataflow and GPU implementations are
validated against.  With the outflow-positive sign convention,

    (Jx)_K = Σ_{L ∈ adj(K)} c_KL (x_K - x_L)   if K ∉ T_D,
    (Jx)_K = x_K                               otherwise,

where ``c_KL = Υ_KL λ_KL``.  J is SPD on the subspace of vectors vanishing
on ``T_D`` (the Krylov subspace CG explores when the initial guess honours
the Dirichlet values — a tested invariant).

:class:`FlatStencil` is the only host-side evaluation of this stencil.
:func:`apply_jx` builds one per call, and through it run
``compute_residual`` and the tolerance resolution
(``repro.core.solver.resolve_tolerance``); :class:`MatrixFreeOperator`
and ``TransientOperator`` keep one built stencil each.  Its DIA row
layout, :func:`dia_operands`, is also the one a multigrid level lays its
smoother and residual operators out in (``repro.mg.hierarchy``).  The
fabric kernel's tiled apply is the only other evaluation.
"""

from __future__ import annotations

import numpy as np
# Private: ``dia_array @ x`` runs the same kernel on a new +0.0-filled result.
from scipy.sparse import _sparsetools

from repro.fv.coefficients import FluxCoefficients, cell_faces
from repro.mesh.boundary import DirichletSet
from repro.util.errors import ValidationError


def dia_operands(faces, diagonal: np.ndarray, scale, dtype) -> tuple:
    """``dia_matvec``'s operands ahead of ``x`` and ``y``, ``(n, n,
    len(offsets), n, offsets, data)``, for ``diag(diagonal) + diag(scale)·C``
    in ``dtype``: ``C`` couples each cell to its neighbours through the
    per-cell ``faces``, and ``scale`` (a scalar or one value per row)
    weights each row's couplings.

    On the flattened field an axis of stride ``s`` (``ny·nz``, ``nz``,
    ``1``) couples cells ``i`` and ``i + s`` through the first ``n − s``
    flat faces, zero where the shift wraps (``j = ny−1``, ``k = nz−1``).
    The rows are ``[diag, x-up, x-low, y-up, y-low, z-up, z-low]`` (none
    for an axis of extent 1) at offsets ``(0, +s, −s, …)``; DIA holds row
    ``i``'s entry in column ``j`` at ``data[k, j]``.  Each product is
    formed in the operands' dtype and rounded into ``dtype`` once.
    """
    shape = diagonal.shape
    n = stride = diagonal.size
    scale = np.broadcast_to(scale, shape).reshape(-1)
    data = np.zeros((1 + 2 * sum(e > 1 for e in shape), n), dtype)
    data[0] = diagonal.reshape(-1)
    offsets = [0]
    for extent, f in zip(shape, faces):
        stride //= extent
        if extent > 1:
            k = len(offsets)
            f = f.reshape(-1)[: n - stride]
            np.multiply(scale[: n - stride], f, out=data[k, stride:])  # row i to i + s
            np.multiply(scale[stride:], f, out=data[k + 1, : n - stride])  # row i + s to i
            offsets += [stride, -stride]
    return n, n, len(offsets), n, np.array(offsets, np.int32), data


class FlatStencil:
    """``out = diag·x − Σ couplings`` over the C-order flattened field,
    as one sweep of SciPy's compiled DIA mat-vec.

    Built once from three grid-shaped face arrays, one per axis, in the
    per-cell layout of :func:`repro.fv.coefficients.cell_faces` (each
    cell's face to its upper neighbour, zero on the last plane where
    there is none — the layout a PE stores), a diagonal and an optional
    identity-row ``mask``.  Per product dtype the stencil is laid out
    once as the DIA rows of :func:`dia_operands`, couplings negated.
    The kernel adds one row at a time into ``out`` filled with −0.0, so
    each row sees the 3-D slice form's operations in its order, then
    masked rows take ``x``.  As ``a + (−f)·x`` is bitwise ``a − f·x``
    and ``−0.0 + t`` is ``t``, the results are bitwise that form's,
    except that the zero coupling across a wrap, which the slice form
    skips, turns a running −0.0 into +0.0 where the wrapped-to ``x`` is
    negative or −0.0.

    Products are formed in ``P = np.result_type(faces, diagonal, x,
    out)``.  When ``x`` and ``out`` are of dtype ``P`` the sweep reads
    ``x`` and writes ``out`` in place; otherwise it runs in ``P`` on a
    widened copy of ``x`` and rounds into ``out`` once.  Applies share no
    scratch, so threads may apply one instance at once.
    """

    def __init__(self, faces, diagonal: np.ndarray, mask: np.ndarray | None = None):
        self.diagonal = np.ascontiguousarray(diagonal)
        self.shape = self.diagonal.shape
        self.faces = tuple(np.ascontiguousarray(f) for f in faces)
        self.dtype = np.result_type(*self.faces, self.diagonal)
        for axis, f in enumerate(self.faces):
            if f.shape != self.shape:
                raise ValidationError(f"axis-{axis} faces {f.shape} != grid {self.shape}")
        self._rows = (
            np.flatnonzero(mask) if mask is not None and mask.any() else None
        )
        self._sweeps: dict = {}  # product dtype -> dia_matvec's leading operands

    def _sweep(self, dtype: np.dtype) -> tuple:
        """:func:`dia_operands` of the stencil in ``dtype``, laid out once."""
        sweep = self._sweeps.get(dtype)
        if sweep is None:
            sweep = dia_operands(self.faces, self.diagonal, np.asarray(-1.0, dtype), dtype)
            self._sweeps[dtype] = sweep
        return sweep

    @classmethod
    def from_coefficients(
        cls, coeffs: FluxCoefficients, dirichlet: DirichletSet | None
    ) -> "FlatStencil":
        """The stencil of ``J`` with the identity rows of ``T_D``."""
        return cls(
            cell_faces((coeffs.cx, coeffs.cy, coeffs.cz), coeffs.grid.shape),
            coeffs.diagonal, None if dirichlet is None else dirichlet.mask,
        )

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The stencil applied to ``x`` (grid-shaped), into ``out``: one
        DIA sweep from −0.0, then the identity rows.

        ``out`` defaults to a new array of ``x``'s dtype and must be
        C-contiguous; with one dtype throughout, nothing else is
        allocated once the rows are laid out.
        """
        x = np.asarray(x)
        if x.shape != self.shape:
            raise ValidationError(f"x shape {x.shape} != grid {self.shape}")
        if out is None:
            out = np.empty(self.shape, dtype=x.dtype)
        if out.shape != x.shape:
            raise ValidationError(f"out shape {out.shape} != x shape {x.shape}")
        if not out.flags.c_contiguous:
            raise ValidationError("out must be C-contiguous")
        xf, of = x.reshape(-1), out.reshape(-1)
        dtype = np.result_type(self.dtype, x.dtype, out.dtype)
        y = of if x.dtype == out.dtype == dtype else np.empty(x.size, dtype)
        y.fill(-0.0)  # -0.0 + t is t; a +0.0 start would turn a lone -0.0 into +0.0
        _sparsetools.dia_matvec(*self._sweep(dtype), xf.astype(dtype, copy=False), y)
        if y is not of:
            np.copyto(of, y, casting="same_kind")
        if self._rows is not None:
            of[self._rows] = xf[self._rows]
        return out


def apply_jx(
    coeffs: FluxCoefficients,
    dirichlet: DirichletSet | None,
    x: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Matrix-free application of J to a field ``x`` of shape ``grid.shape``.

    Parameters
    ----------
    coeffs:
        Precomputed flux coefficients (includes the diagonal).
    dirichlet:
        The set ``T_D``; identity rows.  ``None`` means no Dirichlet cells
        (pure Neumann operator — singular, useful in tests).
    x:
        Input field, shape ``grid.shape``.
    out:
        Optional output array (same shape).  Each call builds the
        stencil; a loop applies one built :class:`FlatStencil` (as
        :class:`MatrixFreeOperator` does).
    """
    return FlatStencil.from_coefficients(coeffs, dirichlet).apply(x, out)


def operator_diagonal(
    coeffs: FluxCoefficients,
    dirichlet: DirichletSet | None,
    accumulation: np.ndarray | None = None,
) -> np.ndarray:
    """The float64 diagonal of ``J + A`` — the Jacobi preconditioner.

    Interior rows carry the flux-coefficient diagonal plus the optional
    transient accumulation diagonal ``A``; rows in ``T_D`` are identity
    (``(Jx)_K = x_K``), exactly as :func:`apply_jx` evaluates them.
    """
    diag = coeffs.diagonal.astype(np.float64)
    if accumulation is not None:
        diag += np.asarray(accumulation, dtype=np.float64)
    if dirichlet is not None:
        diag[dirichlet.mask] = 1.0
    return diag


class MatrixFreeOperator:
    """Callable operator wrapper with a scipy ``LinearOperator`` view.

    Examples
    --------
    >>> op = MatrixFreeOperator(coeffs, dirichlet)
    >>> y = op(x)                      # field in, field out
    >>> sp = op.as_linear_operator()   # for scipy.sparse.linalg solvers
    """

    def __init__(self, coeffs: FluxCoefficients, dirichlet: DirichletSet | None = None):
        self.coeffs = coeffs
        self.dirichlet = dirichlet
        self.grid = coeffs.grid
        self._stencil = FlatStencil.from_coefficients(coeffs, dirichlet)
        self._scratch: np.ndarray | None = None
        #: Number of operator applications performed (profiling aid).
        self.num_applications = 0

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        self.num_applications += 1
        return self._stencil.apply(x, out)

    def apply_flat(self, x_flat: np.ndarray) -> np.ndarray:
        """Flat-vector interface (for scipy and dense comparisons)."""
        x = x_flat.reshape(self.grid.shape)
        if self._scratch is None or self._scratch.dtype != x.dtype:
            self._scratch = np.empty(self.grid.shape, dtype=x.dtype)
        return self(x, out=self._scratch).reshape(-1).copy()

    def as_linear_operator(self):
        """A ``scipy.sparse.linalg.LinearOperator`` over flat vectors."""
        from scipy.sparse.linalg import LinearOperator

        n = self.grid.num_cells
        return LinearOperator(
            (n, n), matvec=self.apply_flat, rmatvec=self.apply_flat,
            dtype=self.coeffs.dtype,
        )
