"""Matrix-free geometric multigrid preconditioning.

``preconditioner="mg"`` on a :class:`~repro.spec.SolveSpec` runs the
same preconditioned-CG recurrence on the reference solver and every
fabric engine, with the V-cycle's per-level work charged analytically
(``repro.mg.charges``) so counters/traffic/memory stay oracle-pinned.
:func:`repro.solvers.preconditioning.build_preconditioner` builds one
hierarchy per linear system; the reference path runs it through
:func:`repro.solvers.cg.conjugate_gradient`'s ``precondition=``.

* :mod:`repro.mg.hierarchy` — level construction (lateral 2×2 Galerkin
  aggregation of the FV face coefficients) in the working precision,
  and the V-cycle bound once per hierarchy as a schedule of compiled
  sweeps;
* :mod:`repro.mg.cycle` — the V-cycle ``z = M⁻¹ r``: runs that schedule;
* :mod:`repro.mg.charges` — the per-V-cycle charge packet the engines
  merge at every preconditioner application.
"""

from repro.mg.charges import build_mg_packet, merge_mg_packet
from repro.mg.cycle import mg_apply
from repro.mg.hierarchy import (
    DEFAULT_OMEGA,
    DEFAULT_SMOOTHER_ITERS,
    MAX_MG_LEVELS,
    MgHierarchy,
    MgLevel,
    build_hierarchy,
    hierarchy_for_problem,
    planned_level_shapes,
)

__all__ = [
    "DEFAULT_OMEGA",
    "DEFAULT_SMOOTHER_ITERS",
    "MAX_MG_LEVELS",
    "MgHierarchy",
    "MgLevel",
    "build_hierarchy",
    "build_mg_packet",
    "hierarchy_for_problem",
    "merge_mg_packet",
    "mg_apply",
    "planned_level_shapes",
]
