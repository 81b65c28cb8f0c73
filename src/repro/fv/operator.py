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
(``repro.core.solver.resolve_tolerance``); :class:`MatrixFreeOperator`,
``TransientOperator`` and every multigrid level keep one built stencil
each.  The fabric kernel's tiled apply is the only other evaluation.
"""

from __future__ import annotations

import numpy as np

from repro.fv.coefficients import FluxCoefficients, cell_faces
from repro.mesh.boundary import DirichletSet
from repro.util.errors import ValidationError


class FlatStencil:
    """``out = diag·x − Σ couplings`` over the C-order flattened field.

    Built once from three grid-shaped face arrays, one per axis, in the
    per-cell layout of :func:`repro.fv.coefficients.cell_faces` (each
    cell's face to its upper neighbour, zero on the last plane where
    there is none — the layout a PE stores), a diagonal and an optional
    identity-row ``mask``.  On the flattened field each axis is one
    contiguous 1-D shift by its stride (``ny·nz``, ``nz``, ``1``), and
    the first ``n − stride`` entries of its flat face array are exactly
    the couplings, zero where the shift wraps (``j = ny−1`` for y,
    ``k = nz−1`` for z; the x shift never wraps).  An axis of extent 1
    is skipped.  Every row is evaluated in the order of the 3-D slice
    form — ``diag·x``, then per axis x, y, z the upper neighbour and the
    lower neighbour, then masked rows take ``x`` — so results are
    bitwise those of that form.  Products are formed in
    ``np.result_type(faces, x)``.

    :meth:`apply` is :meth:`run` on the operands :meth:`bind` returns
    for one ``x → out`` pair; a multigrid level binds its ``z → az`` once,
    at build.  Bound forms of one dtype share one scratch vector, so an
    instance must not be applied from two threads at once.
    """

    def __init__(self, faces, diagonal: np.ndarray, mask: np.ndarray | None = None):
        self.diagonal = np.ascontiguousarray(diagonal)
        self.shape = self.diagonal.shape
        self.faces = tuple(np.ascontiguousarray(f) for f in faces)
        self.dtype = np.result_type(*self.faces)
        self._diagonal = self.diagonal.reshape(-1)
        self._rows = (
            np.flatnonzero(mask) if mask is not None and mask.any() else None
        )
        n = self.diagonal.size
        self._shifts = []  # per axis of extent > 1: (stride, flat faces)
        stride = n
        for axis, f in enumerate(self.faces):
            stride //= self.shape[axis]
            if f.shape != self.shape:
                raise ValidationError(f"axis-{axis} faces {f.shape} != grid {self.shape}")
            if self.shape[axis] > 1:
                self._shifts.append((stride, f.reshape(-1)[: n - stride]))
        self._tmp: np.ndarray | None = None

    @classmethod
    def from_coefficients(
        cls, coeffs: FluxCoefficients, dirichlet: DirichletSet | None
    ) -> "FlatStencil":
        """The stencil of ``J`` with the identity rows of ``T_D``."""
        return cls(
            cell_faces((coeffs.cx, coeffs.cy, coeffs.cz), coeffs.grid.shape),
            coeffs.diagonal, None if dirichlet is None else dirichlet.mask,
        )

    def bind(self, x: np.ndarray, out: np.ndarray) -> tuple:
        """The operands of ``out = S x``; ``out`` must be C-contiguous,
        and a bound form follows ``x`` only if ``x`` is too."""
        if x.shape != self.shape:
            raise ValidationError(f"x shape {x.shape} != grid {self.shape}")
        if out.shape != x.shape:
            raise ValidationError(f"out shape {out.shape} != x shape {x.shape}")
        if not out.flags.c_contiguous:
            raise ValidationError("out must be C-contiguous")
        xf, of, n = x.reshape(-1), out.reshape(-1), x.size
        dtype = np.result_type(self.dtype, x.dtype)
        if self._tmp is None or self._tmp.dtype != dtype:
            self._tmp = np.empty(n, dtype)
        shifts = tuple(
            (f, xf[s:], of[: n - s], xf[: n - s], of[s:], self._tmp[: n - s])
            for s, f in self._shifts
        )
        return self._diagonal, xf, of, shifts, self._rows

    @staticmethod
    def run(bound: tuple) -> None:
        """Evaluate a :meth:`bind` form: ``diag·x``, then per axis the
        upper and the lower neighbour, then the identity rows."""
        diagonal, xf, of, shifts, rows = bound
        np.multiply(diagonal, xf, out=of)
        for f, x_up, of_lo, x_lo, of_up, t in shifts:
            np.multiply(f, x_up, out=t)
            np.subtract(of_lo, t, out=of_lo)
            np.multiply(f, x_lo, out=t)
            np.subtract(of_up, t, out=of_up)
        if rows is not None:
            of[rows] = xf[rows]

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The stencil applied to ``x`` (grid-shaped), into ``out``.

        ``out`` defaults to a new array of ``x``'s dtype; nothing else is
        allocated once the products' dtype has been seen.
        """
        x = np.asarray(x)
        if out is None:
            out = np.empty(self.shape, dtype=x.dtype)
        self.run(self.bind(x, out))
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

    def diagonal_flat(self) -> np.ndarray:
        """Operator diagonal as a flat vector (Jacobi-scaling extension)."""
        return operator_diagonal(self.coeffs, self.dirichlet).reshape(-1)
