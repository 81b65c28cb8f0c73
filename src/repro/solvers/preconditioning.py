"""One preconditioner per linear system: :func:`build_preconditioner`.

The :class:`~repro.spec.SolveSpec` names a preconditioner
(``"none"``/``"jacobi"``/``"mg"``); this module is the one place that
turns that name into the system's ``M``.  Every consumer takes the
built :class:`Preconditioner` as data: the fabric solver scales
``rel_tol`` by ``r0^T M^{-1} r0`` and stages it (the inverse diagonal
for Jacobi, the V-cycle hierarchy for mg), and the host reference runs
:func:`~repro.solvers.cg.conjugate_gradient` with ``precondition=M``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.fv.operator import operator_diagonal
from repro.physics.darcy import SinglePhaseProblem
from repro.spec import PRECONDITIONERS
from repro.util.errors import ConfigurationError, ValidationError

if TYPE_CHECKING:
    from repro.mg.hierarchy import MgHierarchy


@dataclass(frozen=True, eq=False)
class Preconditioner:
    """One linear system's ``M``.

    ``diagonal`` is the float64 ``diag(J + A)`` with identity Dirichlet
    rows (``"jacobi"``); ``hierarchy`` is the V-cycle hierarchy
    (``"mg"``), in the solve's working precision; ``"none"`` carries
    neither.  Calling it gives ``M^{-1} r``, in the hierarchy's dtype for
    mg, else float64; a Jacobi or mg ``r`` must be grid-shaped.
    """

    name: str = "none"
    diagonal: np.ndarray | None = None
    hierarchy: MgHierarchy | None = None

    def __call__(self, r: np.ndarray) -> np.ndarray:
        if self.diagonal is not None:
            if np.shape(r) != self.diagonal.shape:
                raise ValidationError(
                    f"r shape {np.shape(r)} != grid {self.diagonal.shape}"
                )
            return r / self.diagonal
        if self.hierarchy is not None:
            # Looked up per call, so wrappers installed on repro.mg apply.
            from repro.mg import mg_apply

            return mg_apply(self.hierarchy, r)
        return np.asarray(r, dtype=np.float64)

    def telemetry(self, cycles: int):
        """The ``preconditioner`` telemetry entry: the name for
        none/jacobi, the structured multigrid record (level shapes,
        sweeps, ``cycles`` V-cycles) for mg."""
        if self.hierarchy is None:
            return self.name
        return self.hierarchy.telemetry(cycles)


def build_preconditioner(
    problem: SinglePhaseProblem,
    name: str = "none",
    *,
    accumulation: np.ndarray | None = None,
    mg_levels: int | None = None,
    mg_smoother_iters: int | None = None,
    dtype=np.float64,
) -> Preconditioner:
    """Build ``M`` for ``(J + A) p = b``, ``A`` the optional transient
    ``accumulation`` diagonal.  The mg knobs and ``dtype`` (the V-cycle's
    precision) tune the hierarchy; only ``name="mg"`` reads them."""
    if name == "none":
        return Preconditioner()
    if name == "jacobi":
        return Preconditioner(
            name,
            diagonal=operator_diagonal(
                problem.coefficients, problem.dirichlet, accumulation
            ),
        )
    if name == "mg":
        # Looked up per build, so wrappers installed on repro.mg count it.
        import repro.mg

        return Preconditioner(
            name,
            hierarchy=repro.mg.hierarchy_for_problem(
                problem,
                accumulation=accumulation,
                levels=mg_levels,
                smoother_iters=mg_smoother_iters,
                dtype=dtype,
            ),
        )
    raise ConfigurationError(
        f"unknown preconditioner {name!r}; choose one of "
        f"{', '.join(map(repr, PRECONDITIONERS))}"
    )


__all__ = ["Preconditioner", "build_preconditioner"]
