"""The matrix-free operator ``x -> Jx`` (Eq. 6) — vectorized NumPy reference.

This is the numerical ground truth the dataflow and GPU implementations are
validated against.  With the outflow-positive sign convention,

    (Jx)_K = Σ_{L ∈ adj(K)} c_KL (x_K - x_L)   if K ∉ T_D,
    (Jx)_K = x_K                               otherwise,

where ``c_KL = Υ_KL λ_KL``.  J is SPD on the subspace of vectors vanishing
on ``T_D`` (the Krylov subspace CG explores when the initial guess honours
the Dirichlet values — a tested invariant).
"""

from __future__ import annotations

import numpy as np

from repro.fv.coefficients import FluxCoefficients
from repro.mesh.boundary import DirichletSet
from repro.util.errors import ValidationError


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
        Optional output array (same shape/dtype) for allocation-free loops.
    """
    grid = coeffs.grid
    x = np.asarray(x)
    if x.shape != grid.shape:
        raise ValidationError(f"x shape {x.shape} != grid {grid.shape}")
    if out is None:
        out = np.empty_like(x)
    elif out.shape != x.shape:
        raise ValidationError(f"out shape {out.shape} != x shape {x.shape}")

    # Diagonal term: D_K * x_K.
    np.multiply(coeffs.diagonal, x, out=out)

    # Off-diagonal terms: subtract c * x_neighbor for both orientations of
    # every internal face (one face couples two rows symmetrically).
    for axis in range(3):
        c = coeffs.axis(axis)
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        lo_t, hi_t = tuple(lo), tuple(hi)
        out[lo_t] -= c * x[hi_t]
        out[hi_t] -= c * x[lo_t]

    if dirichlet is not None and not dirichlet.is_empty:
        np.copyto(out, x, where=dirichlet.mask)
    return out


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
        self._scratch: np.ndarray | None = None
        #: Number of operator applications performed (profiling aid).
        self.num_applications = 0

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        self.num_applications += 1
        return apply_jx(self.coeffs, self.dirichlet, x, out=out)

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
